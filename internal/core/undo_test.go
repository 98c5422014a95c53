package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tboost/internal/stm"
)

// Semantics of the typed undo path (ISSUE 14): records live on one stack per
// (transaction, object), the runtime keeps one sequence across them, and
// every way a transaction can be undone — abort, a nested child's rollback,
// a Parallel transaction's abort, a prepared branch aborted later from
// another goroutine — replays exactly the records it should, newest first.

var errUndoTest = errors.New("undo test: abort")

// tracedSet is a BaseSet that reports every call to a shared recorder.
type tracedSet struct {
	name string
	keys map[int64]bool
	rec  *[]string
}

func (s *tracedSet) Add(k int64) bool {
	*s.rec = append(*s.rec, fmt.Sprintf("%s.add(%d)", s.name, k))
	had := s.keys[k]
	s.keys[k] = true
	return !had
}

func (s *tracedSet) Remove(k int64) bool {
	*s.rec = append(*s.rec, fmt.Sprintf("%s.remove(%d)", s.name, k))
	had := s.keys[k]
	delete(s.keys, k)
	return had
}

func (s *tracedSet) Contains(k int64) bool { return s.keys[k] }

func TestAbortReplaysRecordsAcrossObjectsInReverse(t *testing.T) {
	var rec []string
	a := NewKeyedSet[int64](&tracedSet{name: "a", keys: map[int64]bool{}, rec: &rec})
	b := NewKeyedSet[int64](&tracedSet{name: "b", keys: map[int64]bool{9: true}, rec: &rec})
	c := NewCounter(100)
	sys := stm.NewSystem(stm.Config{})
	err := sys.Atomic(func(tx *stm.Tx) error {
		a.Add(tx, 1)
		b.Add(tx, 2)
		tx.Log(func() { rec = append(rec, fmt.Sprintf("closure sees counter %d", c.ValueQuiescent())) })
		c.Add(tx, 5)
		a.Add(tx, 3)
		b.Remove(tx, 9)
		a.Add(tx, 3) // ineffective: no record
		rec = rec[:0]
		return errUndoTest
	})
	if !errors.Is(err, errUndoTest) {
		t.Fatalf("err = %v", err)
	}
	// Two typed stacks (a's, b's), the counter's, and the descriptor's
	// closure stack, interleaved: the one sequence restores logging order.
	want := []string{"b.add(9)", "a.remove(3)", "closure sees counter 100", "b.remove(2)", "a.remove(1)"}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("replay order\n got %q\nwant %q", rec, want)
	}
	if got := c.ValueQuiescent(); got != 100 {
		t.Fatalf("counter = %d after abort, want 100", got)
	}
}

// mapState reads the given keys of a quiescent base map.
func mapState(m *memMap[int64, int64], keys ...int64) string {
	var out string
	for _, k := range keys {
		if v, ok := m.Get(k); ok {
			out += fmt.Sprintf("%d=%d ", k, v)
		}
	}
	return out
}

func TestNestedRollbackPopsOnlyTheChildsRecords(t *testing.T) {
	base := newMemMap[int64, int64]()
	base.Put(1, 10)
	m := NewMap[int64, int64](base)
	fresh := NewCounter(0) // first touched inside the child: its stack is attached there
	sys := stm.NewSystem(stm.Config{})
	err := sys.Atomic(func(tx *stm.Tx) error {
		m.Put(tx, 1, 11)
		m.Put(tx, 2, 20)
		depth := tx.UndoDepth()
		if nerr := tx.Nested(func(tx *stm.Tx) error {
			m.Put(tx, 1, 12)
			m.Delete(tx, 2)
			m.Put(tx, 3, 30)
			fresh.Add(tx, 7)
			return errUndoTest
		}); !errors.Is(nerr, errUndoTest) {
			t.Errorf("nested err = %v", nerr)
		}
		if got := tx.UndoDepth(); got != depth {
			t.Errorf("undo depth %d after child rollback, want the parent's %d", got, depth)
		}
		if got, want := mapState(base, 1, 2, 3), "1=11 2=20 "; got != want {
			t.Errorf("after child rollback base is %q, want the parent's writes %q", got, want)
		}
		if got := fresh.ValueQuiescent(); got != 0 {
			t.Errorf("counter = %d after child rollback, want 0", got)
		}
		// The parent keeps logging on both stacks, the child-attached one
		// included, and then aborts: its own records must still be there.
		m.Put(tx, 3, 31)
		fresh.Add(tx, 1)
		return errUndoTest
	})
	if !errors.Is(err, errUndoTest) {
		t.Fatalf("err = %v", err)
	}
	if got, want := mapState(base, 1, 2, 3), "1=10 "; got != want {
		t.Fatalf("after parent abort base is %q, want the initial %q", got, want)
	}
	if got := fresh.ValueQuiescent(); got != 0 {
		t.Fatalf("counter = %d after parent abort, want 0", got)
	}
}

func TestParallelBranchesOnOneMapThenAbort(t *testing.T) {
	const perBranch = 500
	base := newMemMap[int64, int64]()
	for k := int64(0); k < perBranch; k++ {
		base.Put(k, -k) // the first branch overwrites, the second inserts fresh keys
	}
	m := NewMap[int64, int64](base)
	sys := stm.NewSystem(stm.Config{})
	branch := func(from int64) func(*stm.Tx) error {
		return func(tx *stm.Tx) error {
			for k := from; k < from+perBranch; k++ {
				m.Put(tx, k, k+1)
			}
			return nil
		}
	}
	err := sys.Atomic(func(tx *stm.Tx) error {
		if err := tx.Parallel(branch(0), branch(perBranch)); err != nil {
			return err
		}
		if got := tx.UndoDepth(); got != 2*perBranch {
			t.Errorf("undo depth %d after two branches, want %d", got, 2*perBranch)
		}
		return errUndoTest
	})
	if !errors.Is(err, errUndoTest) {
		t.Fatalf("err = %v", err)
	}
	for k := int64(0); k < 2*perBranch; k++ {
		v, ok := base.Get(k)
		if k < perBranch && (!ok || v != -k) {
			t.Fatalf("key %d = %d,%v after abort, want %d", k, v, ok, -k)
		}
		if k >= perBranch && ok {
			t.Fatalf("fresh key %d survived the abort with %d", k, v)
		}
	}
}

func TestPreparedBranchAbortedFromAnotherGoroutine(t *testing.T) {
	base := newMemMap[int64, int64]()
	base.Put(1, 10)
	m := NewMap[int64, int64](base)
	s := NewHashSetOf[int64]()
	sys := stm.NewSystem(stm.Config{})
	p, err := sys.Prepare(7, func(tx *stm.Tx) error {
		m.Put(tx, 1, 11)
		s.Add(tx, 5)
		m.Put(tx, 2, 20)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Parked: effects in the base, typed stacks attached to the descriptor.
	if got, want := mapState(base, 1, 2), "1=11 2=20 "; got != want {
		t.Fatalf("prepared base is %q, want %q", got, want)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Abort()
	}()
	wg.Wait()
	if got, want := mapState(base, 1, 2), "1=10 "; got != want {
		t.Fatalf("after the late abort base is %q, want the initial %q", got, want)
	}
	if s.Base().Contains(5) {
		t.Fatal("set still holds the aborted branch's key")
	}
	// The locks went with it and the stacks are back in their pools: the
	// same keys are writable at once.
	stm.MustAtomicOn(sys, func(tx *stm.Tx) { m.Put(tx, 1, 12); s.Add(tx, 5) })
}
