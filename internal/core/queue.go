package core

import (
	"tboost/internal/boost"
	"time"

	"tboost/internal/deque"
	"tboost/internal/stm"
)

// Queue is the paper's boosted BlockingQueue (§3.3, Fig. 7): a bounded
// pipeline buffer with transactional conditional synchronization. The
// linearizable base is a blocking double-ended queue — needed because the
// inverse of offer() is takeLast() and the inverse of take() is
// offerFirst(), so both ends must be addressable.
//
// Two transactional semaphores mirror the queue's committed state: full
// counts free slots (blocking producers at capacity) and empty counts
// committed items (blocking consumers on an empty queue). Release is
// disposable, so an item offered by transaction T becomes visible to
// consumers only after T commits.
//
// As in the paper, a Queue is intended to connect one producer stage to one
// consumer stage (offer() commutes with take() only on a non-empty queue,
// and the takeLast inverse assumes no later uncommitted offers from other
// transactions). Use one Queue per pipeline edge.
type Queue[T any] struct {
	base  *deque.Deque[T]
	full  *Semaphore // free slots: block producers when zero
	empty *Semaphore // committed items: block consumers when zero
	undo  boost.Undo[queueUndo[T]]
}

// queueUndo is the queue's undo record: an offer is undone from the back,
// a take by putting the taken item back at the front.
type queueUndo[T any] struct {
	v    T
	took bool
}

// ApplyUndo runs the recorded call's inverse on the deque.
func (q *Queue[T]) ApplyUndo(e queueUndo[T]) {
	if e.took {
		q.base.OfferFirst(e.v)
	} else {
		q.base.TakeLast()
	}
}

// NewQueue returns a queue with the given capacity and semaphore timeout
// DefaultSemTimeout.
func NewQueue[T any](capacity int) *Queue[T] {
	return NewQueueTimeout[T](capacity, DefaultSemTimeout)
}

// NewQueueTimeout returns a queue whose blocking offers and takes abort the
// calling transaction after timeout.
func NewQueueTimeout[T any](capacity int, timeout time.Duration) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue[T]{
		base:  deque.New[T](capacity),
		full:  NewSemaphoreTimeout(capacity, timeout),
		empty: NewSemaphoreTimeout(0, timeout),
	}
}

// Offer enqueues v, blocking while the queue is full. The item becomes
// visible to consumers when tx commits; if tx aborts, the logged inverse
// removes it from the back.
func (q *Queue[T]) Offer(tx *stm.Tx, v T) {
	q.full.Acquire(tx) // immediate: reserves a slot, inverse logged inside
	q.base.OfferLast(v)
	q.empty.Release(tx) // disposable: publishes the item at commit
	q.undo.Log(tx, q, queueUndo[T]{})
}

// Take dequeues the oldest committed item, blocking while none is
// available. If tx aborts, the logged inverse puts the item back at the
// front, preserving FIFO order.
func (q *Queue[T]) Take(tx *stm.Tx) T {
	q.empty.Acquire(tx) // immediate: claims a committed item
	v := q.base.TakeFirst()
	q.full.Release(tx) // disposable: frees the slot at commit
	q.undo.Log(tx, q, queueUndo[T]{v, true})
	return v
}

// LenCommitted reports how many committed items are available to consumers.
func (q *Queue[T]) LenCommitted() int { return q.empty.Value() }

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return q.base.Cap() }
