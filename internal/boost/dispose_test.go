package boost

import (
	"errors"
	"reflect"
	"testing"

	"tboost/internal/stm"
)

// tagDisposer is a test spec whose disposable records are strings; Dispose
// appends the record to out.
type tagDisposer struct {
	Disposables[string]
	out []string
}

func (d *tagDisposer) Dispose(tag string) { d.out = append(d.out, tag) }

// TestTypedDisposablesMatchOutcomeInOrder: typed records share the closures'
// lists, so they run in registration order among them, only for the outcome
// they were registered for, a rolled-back child's post-abort records run at
// the child's rollback and never again, and the stack returns to the pool
// holding none of them.
func TestTypedDisposablesMatchOutcomeInOrder(t *testing.T) {
	sys := newSys()
	errChild := errors.New("child fails")
	for _, commit := range []bool{true, false} {
		d := new(tagDisposer)
		var lg *disposeLog[string]
		var atChildRollback []string
		err := sys.Atomic(func(tx *stm.Tx) error {
			OnCommit(tx, func() { d.out = append(d.out, "closure c1") })
			d.OnCommit(tx, d, "c2")
			d.OnAbort(tx, d, "a1")
			OnAbort(tx, func() { d.out = append(d.out, "closure a2") })
			if err := tx.Nested(func(tx *stm.Tx) error {
				d.OnAbort(tx, d, "child a")
				d.OnCommit(tx, d, "child c")
				return errChild
			}); err != errChild {
				t.Errorf("nested: %v", err)
			}
			atChildRollback = append([]string(nil), d.out...)
			d.OnCommit(tx, d, "c3")
			d.OnAbort(tx, d, "a3")
			// DisposeBegin takes no lock before Parallel escalates, so peeking
			// without the matching DisposeEnd is safe here.
			lg, _ = tx.DisposeBegin(&d.Disposables).(*disposeLog[string])
			if commit {
				return nil
			}
			return errAbort
		})
		if commit != (err == nil) {
			t.Fatalf("commit=%v: err = %v", commit, err)
		}
		if !reflect.DeepEqual(atChildRollback, []string{"child a"}) {
			t.Fatalf("commit=%v: the child's rollback ran %q, want its one post-abort record", commit, atChildRollback)
		}
		want := []string{"child a", "closure c1", "c2", "c3"}
		if !commit {
			want = []string{"child a", "a1", "closure a2", "a3"}
		}
		if !reflect.DeepEqual(d.out, want) {
			t.Fatalf("commit=%v: ran %q, want %q", commit, d.out, want)
		}
		for i, tag := range lg.recs[:cap(lg.recs)] {
			if tag != "" {
				t.Fatalf("commit=%v: recycled stack still holds record %d %q", commit, i, tag)
			}
		}
	}
}

// A read-only transaction has no outcome to defer to.
func TestTypedDisposableInReadOnlyPanics(t *testing.T) {
	sys := newSys()
	d := new(tagDisposer)
	defer func() {
		if recover() == nil {
			t.Fatal("typed disposable accepted by a read-only transaction")
		}
	}()
	_ = sys.AtomicRO(func(tx *stm.Tx) error { d.OnCommit(tx, d, "x"); return nil })
}
