package boost

// Typed undo records: Rule 3 as data. A boosted object states its inverse
// once — a record type E carrying the arguments by value (a map: key,
// displaced value, whether one existed; a counter: the delta) and one
// ApplyUndo method that turns a record back into the inverse base call —
// and each effective mutation appends one E to the transaction's stack for
// the object: no closure, no boxing, no allocation. The runtime keeps the
// order across objects (stm undo.go).

import (
	"sync"
	"unsafe"

	"tboost/internal/stm"
)

// UndoSpec is what a boosted object contributes to rollback: the inverse of
// one recorded call. It runs on abort only, newest record first, under the
// abstract locks the forward call took (Lemma 5.2).
type UndoSpec[E any] interface {
	ApplyUndo(e E)
}

// undoChunkBytes is the size at which a stack stops growing by doubling and
// starts a new chunk instead: a bulk load logging thousands of records in one
// transaction then never copies them, never asks the allocator for a large
// object (measured: those leave spans half-used long after they are freed),
// and parks nothing in the pool, which keeps one chunk of under twice this
// (as the runtime's redoBufKeep bounds the redo arena).
const undoChunkBytes = 2 << 10

// Undo is one boosted object's door to the undo log: the pool of its
// per-transaction record stacks and the identity they attach under. The
// zero value is ready; it must not be copied after first use.
type Undo[E any] struct {
	pool sync.Pool
}

// Log records e as the inverse of the call the object just made on tx's
// behalf: spec.ApplyUndo(e) runs iff tx (or the nested child logging it)
// rolls back, in reverse logging order among everything tx logged. Every
// call on one Undo must pass the same spec.
func (u *Undo[E]) Log(tx *stm.Tx, spec UndoSpec[E], e E) {
	lg, _ := tx.UndoBegin(u).(*undoLog[E])
	if lg == nil {
		if lg, _ = u.pool.Get().(*undoLog[E]); lg == nil {
			lg = &undoLog[E]{pool: &u.pool, spec: spec}
		}
		tx.UndoAttach(u, lg)
	}
	if n := len(lg.recs); n == cap(lg.recs) && n*int(unsafe.Sizeof(e)) >= undoChunkBytes {
		lg.full = append(lg.full, lg.recs)
		lg.recs = make([]E, 0, n)
	}
	lg.recs = append(lg.recs, e)
	tx.UndoEnd()
}

// undoLog is the record stack of one (transaction, object) pair; it
// implements stm.UndoLog and is pooled per object.
type undoLog[E any] struct {
	pool *sync.Pool
	spec UndoSpec[E]
	recs []E   // the top chunk
	full [][]E // the chunks beneath it, oldest first, each full
}

func (lg *undoLog[E]) UndoTop() {
	if len(lg.recs) == 0 {
		top := len(lg.full) - 1
		lg.recs, lg.full[top] = lg.full[top], nil
		lg.full = lg.full[:top]
	}
	n := len(lg.recs) - 1
	e := lg.recs[n]
	clear(lg.recs[n:])
	lg.recs = lg.recs[:n]
	lg.spec.ApplyUndo(e)
}

// Recycle returns the stack to its object's pool with one chunk, zeroed of
// the records a committed transaction leaves behind: the pool never pins
// user keys or values.
func (lg *undoLog[E]) Recycle() {
	if len(lg.full) > 0 {
		lg.recs = lg.full[0]
	}
	lg.full = nil
	clear(lg.recs)
	lg.recs = lg.recs[:0]
	lg.pool.Put(lg)
}

var _ stm.UndoLog = (*undoLog[int])(nil)
