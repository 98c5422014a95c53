package core

import (
	"sync/atomic"

	"tboost/internal/boost"
	"tboost/internal/stm"
)

// Counter is a boosted transactional accumulator exploiting the
// increment/read commutativity lattice: Add(δ) commutes with Add(δ') for
// any deltas, so increments demand only the *shared* mode of the kernel's
// readers/writer discipline and proceed fully in parallel; Get does not
// commute with Add, so it demands exclusive mode. (Note the inversion
// relative to a storage-level readers/writer lock: here the "writers" share
// and the "reader" excludes — conflict is a property of abstract semantics,
// not of loads and stores.)
//
// A shared counter is the paper's canonical read/write-conflict hot-spot
// (§3.4); boosting turns it into a conflict-free fetch-and-add for the
// common increment-only usage.
type Counter struct {
	value atomic.Int64
	obj   *boost.Object[int64]
	undo  boost.Undo[int64]
}

// ApplyUndo subtracts a recorded delta again.
func (c *Counter) ApplyUndo(delta int64) { c.value.Add(-delta) }

// NewCounter returns a counter with the given initial value.
func NewCounter(initial int64) *Counter {
	c := &Counter{obj: boost.NewReadWrite[int64]()}
	c.value.Store(initial)
	return c
}

// Add adds delta to the counter. The update takes effect immediately (the
// base fetch-and-add is the linearization); the inverse subtracts it.
// Concurrent transactional Adds never conflict: a shared demand, and the
// delta as the undo record.
func (c *Counter) Add(tx *stm.Tx, delta int64) {
	c.obj.Acquire(tx, boost.Shared[int64]())
	c.undo.Log(tx, c, delta)
	c.value.Add(delta)
}

// Get returns the counter's value. Reading does not commute with adding,
// so Get demands the exclusive mode, serializing against in-flight Adds.
func (c *Counter) Get(tx *stm.Tx) int64 {
	c.obj.Acquire(tx, boost.Excl[int64]())
	return c.value.Load()
}

// ValueQuiescent returns the committed value without a transaction.
// Meaningful only when no transactions are active.
func (c *Counter) ValueQuiescent() int64 { return c.value.Load() }
