package core

import (
	"sync/atomic"

	"tboost/internal/boost"
	"tboost/internal/cheap"
	"tboost/internal/stm"
)

// Holder wraps a key inserted into the boosted heap. Most heaps provide no
// inverse for add(), so the paper synthesizes one (§3.2): undoing an add
// merely sets the holder's deleted flag, and RemoveMin discards deleted
// holders when they surface. The holder also carries an optional payload.
type Holder[V any] struct {
	Key     int64
	Val     V
	deleted atomic.Bool
}

// Deleted reports whether the holder has been logically removed.
func (h *Holder[V]) Deleted() bool { return h.deleted.Load() }

// HeapMode selects the abstract-lock discipline for a boosted heap.
type HeapMode int

const (
	// RWLocked grants add() a shared lock (adds commute with each other)
	// and removeMin()/min() an exclusive lock — the paper's discipline.
	RWLocked HeapMode = iota
	// Exclusive grants every operation the exclusive lock; the Fig. 11
	// baseline that quantifies what the reader/writer discrimination buys.
	Exclusive
)

// BaseHeap is the abstract specification a linearizable min-priority queue
// must satisfy to be boostable. Both the fine-grained Hunt heap
// (internal/cheap) and the coarse-locked pairing heap (internal/pairheap)
// satisfy it; the boosting layer cannot tell them apart.
type BaseHeap[V any] interface {
	Add(key int64, val V) bool
	RemoveMin() (int64, V, bool)
	Min() (int64, V, bool)
	Len() int
}

// Heap is a boosted transactional min-priority queue over any linearizable
// base heap. Duplicate keys are allowed.
//
// The method specs are mode-independent: Add demands shared mode (adds
// commute), RemoveMin and Min demand exclusive mode. RWLocked realizes the
// demands with a readers/writer engine; Exclusive realizes them with a
// coarse engine that maps both demands onto one lock — the two Fig. 11
// configurations differ only in the kernel discipline behind the same spec.
type Heap[V any] struct {
	base BaseHeap[*Holder[V]]
	obj  *boost.Object[int64]
	mode HeapMode
	undo boost.Undo[heapUndo[V]]
}

// heapUndo is the heap's undo record: the holder a call inserted or took
// out.
type heapUndo[V any] struct {
	holder  *Holder[V]
	removed bool
}

// ApplyUndo marks an added holder deleted rather than restructuring the
// heap (§3.2), or puts a removed holder back.
func (h *Heap[V]) ApplyUndo(e heapUndo[V]) {
	e.holder.deleted.Store(!e.removed)
	if e.removed {
		h.base.Add(e.holder.Key, e.holder)
	}
}

// NewHeap returns a boosted heap in the given mode over the fine-grained
// concurrent Hunt-style heap.
func NewHeap[V any](mode HeapMode) *Heap[V] {
	return NewHeapFromBase[V](cheap.New[*Holder[V]](), mode)
}

// NewHeapCapacity returns a boosted heap with a bounded Hunt-style base.
func NewHeapCapacity[V any](mode HeapMode, capacity int) *Heap[V] {
	return NewHeapFromBase[V](cheap.NewCapacity[*Holder[V]](capacity), mode)
}

// NewHeapFromBase boosts an arbitrary linearizable base heap. The base must
// store *Holder[V] payloads (the holder indirection is how the boosting
// layer synthesizes an inverse for Add, §3.2).
func NewHeapFromBase[V any](base BaseHeap[*Holder[V]], mode HeapMode) *Heap[V] {
	obj := boost.NewReadWrite[int64]()
	if mode == Exclusive {
		obj = boost.NewCoarse[int64]()
	}
	return &Heap[V]{base: base, obj: obj, mode: mode}
}

// Mode reports the heap's abstract-lock discipline.
func (h *Heap[V]) Mode() HeapMode { return h.mode }

// Add inserts val with the given priority key. The inverse marks the
// holder deleted rather than restructuring the heap.
func (h *Heap[V]) Add(tx *stm.Tx, key int64, val V) {
	h.obj.Acquire(tx, boost.Shared[int64]()) // adds commute: shared demand
	holder := &Holder[V]{Key: key, Val: val}
	if !h.base.Add(key, holder) {
		tx.Abort(stm.ErrAborted) // base heap at capacity; retry later
	}
	h.undo.Log(tx, h, heapUndo[V]{holder, false})
}

// RemoveMin removes and returns the smallest key and its value; ok is false
// if the heap is empty. Deleted holders surfacing at the root are discarded.
// Inverse: put the removed holder back.
func (h *Heap[V]) RemoveMin(tx *stm.Tx) (key int64, val V, ok bool) {
	h.obj.Acquire(tx, boost.Excl[int64]()) // removeMin commutes with nothing that observes the min
	for {
		k, holder, found := h.base.RemoveMin()
		if !found {
			var zero V
			return 0, zero, false
		}
		if holder.deleted.Load() {
			continue // lazily discard aborted adds
		}
		h.undo.Log(tx, h, heapUndo[V]{holder, true})
		return k, holder.Val, true
	}
}

// Min returns the smallest key and value without removing them; ok is false
// if the heap is empty. Needs no inverse (§3.2) but demands the exclusive
// mode because its answer does not commute with removeMin or with adds of
// smaller keys.
func (h *Heap[V]) Min(tx *stm.Tx) (key int64, val V, ok bool) {
	h.obj.Acquire(tx, boost.Excl[int64]())
	for {
		k, holder, found := h.base.Min()
		if !found {
			var zero V
			return 0, zero, false
		}
		if holder.deleted.Load() {
			// Physically drop the dead holder so Min can terminate.
			h.base.RemoveMin()
			continue
		}
		return k, holder.Val, true
	}
}

// LenQuiescent reports the number of holders (live and deleted) in the base
// heap. Meaningful only when no transactions are active.
func (h *Heap[V]) LenQuiescent() int { return h.base.Len() }

// DrainQuiescent removes every live key in ascending order. For tests.
func (h *Heap[V]) DrainQuiescent() []int64 {
	var out []int64
	for {
		k, holder, ok := h.base.RemoveMin()
		if !ok {
			return out
		}
		if !holder.deleted.Load() {
			out = append(out, k)
		}
	}
}
