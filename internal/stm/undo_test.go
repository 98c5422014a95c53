package stm

import (
	"errors"
	"reflect"
	"testing"
)

// tagStack is a minimal typed undo stack for kernel tests: its records are
// ints, replaying one appends it to *out.
type tagStack struct {
	recs     []int
	out      *[]int
	recycled int
}

func (s *tagStack) UndoTop() {
	n := len(s.recs) - 1
	*s.out = append(*s.out, s.recs[n])
	s.recs = s.recs[:n]
}

func (s *tagStack) Recycle() { s.recs = s.recs[:0]; s.recycled++ }

// log pushes tag the way a boosted object's Undo does.
func (s *tagStack) log(tx *Tx, tag int) {
	if tx.UndoBegin(s) == nil {
		tx.UndoAttach(s, s)
	}
	s.recs = append(s.recs, tag)
	tx.UndoEnd()
}

// TestUndoSequenceOrdersTypedStacksAndClosures: records on two typed stacks
// and closures on the descriptor's own share one sequence — a full abort
// replays all of them newest first, a nested rollback exactly the child's,
// and each attached stack is recycled once per attempt, after the replay.
func TestUndoSequenceOrdersTypedStacksAndClosures(t *testing.T) {
	var out []int
	a, b := &tagStack{out: &out}, &tagStack{out: &out}
	boom := errors.New("boom")
	err := NewSystem(Config{}).Atomic(func(tx *Tx) error {
		a.log(tx, 1)
		tx.Log(func() { out = append(out, 2) })
		b.log(tx, 3)
		_ = tx.Nested(func(tx *Tx) error {
			a.log(tx, 4)
			tx.Log(func() { out = append(out, 5) })
			b.log(tx, 6)
			a.log(tx, 7)
			return boom
		})
		if want := []int{7, 6, 5, 4}; !reflect.DeepEqual(out, want) {
			t.Errorf("child rollback replayed %v, want %v", out, want)
		}
		if tx.UndoDepth() != 3 || a.recycled+b.recycled != 0 {
			t.Errorf("after child rollback: depth %d, recycled %d+%d", tx.UndoDepth(), a.recycled, b.recycled)
		}
		out = out[:0]
		a.log(tx, 8)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if want := []int{8, 3, 2, 1}; !reflect.DeepEqual(out, want) {
		t.Fatalf("abort replayed %v, want %v", out, want)
	}
	if a.recycled != 1 || b.recycled != 1 {
		t.Fatalf("stacks recycled %d and %d times, want once each", a.recycled, b.recycled)
	}
}

// TestBulkTransactionLeavesNoUndoSlabOnDescriptor: a transaction that logs
// thousands of inverses (a bulk load) must not park that capacity, or any
// reference, on the pooled descriptor.
func TestBulkTransactionLeavesNoUndoSlabOnDescriptor(t *testing.T) {
	var out []int
	s := &tagStack{out: &out}
	var d *Tx
	MustAtomicOn(NewSystem(Config{}), func(tx *Tx) {
		d = tx
		for i := 0; i < 4096; i++ {
			s.log(tx, i)
			tx.Log(func() {})
		}
	})
	// d is back in the pool; nothing else runs, so reading it is safe.
	if 4*cap(d.undo) > undoKeep || 8*cap(d.undoFns) > undoKeep {
		t.Fatalf("descriptor keeps %d sequence entries and %d closures, more than %d bytes of either", cap(d.undo), cap(d.undoFns), undoKeep)
	}
	if len(d.undo) != 0 || len(d.undoFns) != 0 || len(d.undoLogs) != 0 {
		t.Fatalf("descriptor recycled with %d entries, %d closures, %d stacks", len(d.undo), len(d.undoFns), len(d.undoLogs))
	}
	for _, f := range d.undoFns[:cap(d.undoFns)] {
		if f != nil {
			t.Fatal("descriptor recycled still holding a logged closure")
		}
	}
	for _, at := range d.undoLogs[:cap(d.undoLogs)] {
		if at.owner != nil || at.log != nil {
			t.Fatal("descriptor recycled still naming an undo stack")
		}
	}
	if s.recycled != 1 || len(out) != 0 {
		t.Fatalf("committed: stack recycled %d times, %d records replayed", s.recycled, len(out))
	}
}
