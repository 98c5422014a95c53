package boost

import (
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"tboost/internal/stm"
)

// cell is what the test records point at; it is large enough to be an
// allocation of its own, so a finalizer on it is reliable.
type cell struct {
	replays int64
	_       [3]int64
}

// ptrUndo is a test spec whose records are pointers, the shape a pooled
// stack could pin: replaying one bumps the pointee.
type ptrUndo struct{ Undo[*cell] }

func (u *ptrUndo) ApplyUndo(c *cell) { c.replays++ }

// attached returns the stack u has attached to tx. UndoBegin takes no lock
// before Parallel escalates, so peeking without the matching UndoEnd is safe
// in these single-goroutine tests.
func (u *ptrUndo) attached(tx *stm.Tx) *undoLog[*cell] {
	lg, _ := tx.UndoBegin(&u.Undo).(*undoLog[*cell])
	return lg
}

// TestUndoStackRecycledEmptyAndCapped: whether its transaction committed or
// aborted, a stack goes back to the pool holding none of the transaction's
// records — over its whole capacity, not just its length — and a
// transaction that logged thousands leaves one chunk there, not its slab.
func TestUndoStackRecycledEmptyAndCapped(t *testing.T) {
	sys := newSys()
	for _, n := range []int{3, 4096} {
		for _, commit := range []bool{true, false} {
			u := new(ptrUndo)
			vals := make([]cell, n)
			var lg *undoLog[*cell]
			err := sys.Atomic(func(tx *stm.Tx) error {
				for i := range vals {
					u.Log(tx, u, &vals[i])
				}
				lg = u.attached(tx)
				held := len(lg.recs)
				for _, chunk := range lg.full {
					held += len(chunk)
				}
				if tx.UndoDepth() != n || held != n {
					t.Errorf("logged %d: depth %d, stack holds %d", n, tx.UndoDepth(), held)
				}
				if commit {
					return nil
				}
				return errAbort
			})
			if commit != (err == nil) {
				t.Fatalf("n=%d commit=%v: err = %v", n, commit, err)
			}
			for i := range vals {
				if got := vals[i].replays; (got == 0) != commit || got > 1 {
					t.Fatalf("n=%d commit=%v: record %d replayed %d times", n, commit, i, got)
				}
			}
			if len(lg.recs) != 0 || lg.full != nil {
				t.Fatalf("n=%d commit=%v: recycled stack still has %d records and %d chunks beneath", n, commit, len(lg.recs), len(lg.full))
			}
			for i, p := range lg.recs[:cap(lg.recs)] {
				if p != nil {
					t.Fatalf("n=%d commit=%v: recycled stack still points at record %d", n, commit, i)
				}
			}
			if kept := cap(lg.recs) * int(unsafe.Sizeof(lg.recs[:1][0])); kept >= 2*undoChunkBytes {
				t.Fatalf("n=%d commit=%v: recycled stack keeps %d bytes, want under %d", n, commit, kept, 2*undoChunkBytes)
			}
		}
	}
}

// TestRecycledUndoStackPinsNoValue: a value reachable only through an undo
// record is collectable once its transaction has committed, though the stack
// that held the record is still alive.
func TestRecycledUndoStackPinsNoValue(t *testing.T) {
	sys := newSys()
	u := new(ptrUndo)
	var lg *undoLog[*cell]
	var freed atomic.Bool
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		v := new(cell)
		runtime.SetFinalizer(v, func(*cell) { freed.Store(true) })
		u.Log(tx, u, v)
		lg = u.attached(tx)
	})
	for i := 0; i < 10 && !freed.Load(); i++ {
		runtime.GC()
		runtime.Gosched()
	}
	if !freed.Load() {
		t.Fatal("a committed transaction's undo record still pins its value")
	}
	runtime.KeepAlive(lg)
}
