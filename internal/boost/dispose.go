package boost

// Typed disposables: Rule 4 as data. A boosted object whose deferred call
// carries an argument states the call once — a record type E and a Dispose
// method — and each registration appends one E to the transaction's stack
// for the object, as Undo does for inverses: no closure, no allocation. The
// runtime keeps registration order across objects and closures (stm
// dispose.go).

import (
	"sync"

	"tboost/internal/stm"
)

// DisposeSpec is what a boosted object contributes to Rule 4: the disposable
// call one record stands for.
type DisposeSpec[E any] interface {
	Dispose(e E)
}

// Disposables is one boosted object's door to the deferred-call lists: the
// pool of its per-transaction record stacks and the identity they attach
// under. The zero value is ready; it must not be copied after first use.
type Disposables[E any] struct {
	pool sync.Pool
}

// OnCommit defers spec.Dispose(e) to after tx commits; the call is dropped
// if tx (or the nested child registering it) rolls back. Every call on one
// Disposables must pass the same spec.
func (d *Disposables[E]) OnCommit(tx *stm.Tx, spec DisposeSpec[E], e E) { d.push(tx, spec, e, true) }

// OnAbort defers spec.Dispose(e) to after tx's rollback (or the rollback of
// the nested child registering it) completes; the call is dropped if tx
// commits.
func (d *Disposables[E]) OnAbort(tx *stm.Tx, spec DisposeSpec[E], e E) { d.push(tx, spec, e, false) }

func (d *Disposables[E]) push(tx *stm.Tx, spec DisposeSpec[E], e E, onCommit bool) {
	lg, _ := tx.DisposeBegin(d).(*disposeLog[E])
	if lg == nil {
		if lg, _ = d.pool.Get().(*disposeLog[E]); lg == nil {
			lg = &disposeLog[E]{pool: &d.pool, spec: spec}
		}
		tx.DisposeAttach(d, lg)
	}
	lg.recs = append(lg.recs, e)
	tx.DisposeEnd(lg, len(lg.recs)-1, onCommit)
}

// disposeLog is the record stack of one (transaction, object) pair; it
// implements stm.DisposeLog and is pooled per object.
type disposeLog[E any] struct {
	pool *sync.Pool
	spec DisposeSpec[E]
	recs []E
}

func (lg *disposeLog[E]) Dispose(i int) { lg.spec.Dispose(lg.recs[i]) }

// Recycle returns the stack to its object's pool zeroed: the pool never pins
// a user value.
func (lg *disposeLog[E]) Recycle() {
	clear(lg.recs)
	lg.recs = lg.recs[:0]
	lg.pool.Put(lg)
}

var _ stm.DisposeLog = (*disposeLog[int])(nil)
