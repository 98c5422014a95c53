package core

import (
	"sync"
	"tboost/internal/boost"

	"tboost/internal/stm"
)

// Pool applies the paper's disposability analysis to storage management
// ("similar disposability tradeoffs apply to transactional malloc() and
// free()"): Alloc hands out an object immediately — its inverse returns the
// object to the free list — while Free is disposable and deferred until
// after commit, so memory freed by a transaction that later aborts is never
// recycled out from under it.
type Pool[T any] struct {
	mu    sync.Mutex
	free  []T
	fresh func() T
	// allocs/frees count committed operations, for tests.
	allocs, frees int64
	undo          boost.Undo[T]
	freed         boost.Disposables[T]
}

// ApplyUndo puts an object an aborted Alloc handed out back on the free
// list.
func (p *Pool[T]) ApplyUndo(v T) { p.putBack(v, true) }

// Dispose puts an object a committed Free gave up on the free list.
func (p *Pool[T]) Dispose(v T) { p.putBack(v, false) }

// NewPool returns a pool that calls fresh when the free list is empty.
func NewPool[T any](fresh func() T) *Pool[T] {
	return &Pool[T]{fresh: fresh}
}

// Alloc returns an object from the pool. If tx aborts, the logged inverse
// puts the object back on the free list.
func (p *Pool[T]) Alloc(tx *stm.Tx) T {
	p.mu.Lock()
	var v T
	if n := len(p.free); n > 0 {
		v = p.free[n-1]
		var zero T
		p.free[n-1] = zero
		p.free = p.free[:n-1]
	} else {
		v = p.fresh()
	}
	p.allocs++
	p.mu.Unlock()
	p.undo.Log(tx, p, v)
	return v
}

// Free returns v to the pool after tx commits. Disposable: a deferred free
// is indistinguishable from a slow allocator, and batching frees is
// explicitly sanctioned by the paper.
func (p *Pool[T]) Free(tx *stm.Tx, v T) {
	p.freed.OnCommit(tx, p, v)
}

func (p *Pool[T]) putBack(v T, undoingAlloc bool) {
	p.mu.Lock()
	p.free = append(p.free, v)
	if undoingAlloc {
		p.allocs--
	} else {
		p.frees++
	}
	p.mu.Unlock()
}

// FreeLen reports the current free-list length.
func (p *Pool[T]) FreeLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// Stats reports committed allocs and frees.
func (p *Pool[T]) Stats() (allocs, frees int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.allocs, p.frees
}
