package boost

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tboost/internal/stm"
)

func newSys() *stm.System {
	return stm.NewSystem(stm.Config{LockTimeout: 25 * time.Millisecond})
}

var errAbort = errors.New("deliberate abort")

func TestDemandAndDisciplineStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{DemandNone.String(), "none"},
		{DemandKey.String(), "key"},
		{DemandRange.String(), "range"},
		{DemandShared.String(), "shared"},
		{DemandExcl.String(), "excl"},
		{Demand(99).String(), "demand(99)"},
		{Unsynced.String(), "unsynced"},
		{Keyed.String(), "keyed"},
		{Coarse.String(), "coarse"},
		{ReadWrite.String(), "readwrite"},
		{Ranged.String(), "ranged"},
		{Discipline(99).String(), "discipline(99)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestConstructorsReportDiscipline(t *testing.T) {
	if d := NewKeyed[int64]().Discipline(); d != Keyed {
		t.Errorf("NewKeyed discipline = %v", d)
	}
	if d := NewCoarse[string]().Discipline(); d != Coarse {
		t.Errorf("NewCoarse discipline = %v", d)
	}
	if d := NewReadWrite[int64]().Discipline(); d != ReadWrite {
		t.Errorf("NewReadWrite discipline = %v", d)
	}
	if d := NewRanged[int64]().Discipline(); d != Ranged {
		t.Errorf("NewRanged discipline = %v", d)
	}
	if d := NewUnsynced[int64]().Discipline(); d != Unsynced {
		t.Errorf("NewUnsynced discipline = %v", d)
	}
	if NewKeyed[int64]().KeyTable() == nil {
		t.Error("KeyTable() nil for keyed engine")
	}
	if NewCoarse[int64]().KeyTable() != nil {
		t.Error("KeyTable() non-nil for coarse engine")
	}
}

// TestInexpressibleDemandPanics: a spec asking a discipline for a demand it
// cannot realize is a programming error and must fail loudly, not silently
// under-lock.
func TestInexpressibleDemandPanics(t *testing.T) {
	cases := []struct {
		name string
		obj  *Object[int64]
		op   Op[int64]
	}{
		{"keyed-shared", NewKeyed[int64](), Shared[int64]()},
		{"keyed-excl", NewKeyed[int64](), Excl[int64]()},
		{"keyed-range", NewKeyed[int64](), Span[int64](1, 2)},
		{"rw-key", NewReadWrite[int64](), Key[int64](1)},
		{"rw-range", NewReadWrite[int64](), Span[int64](1, 2)},
		{"ranged-shared", NewRanged[int64](), Shared[int64]()},
		{"ranged-excl", NewRanged[int64](), Excl[int64]()},
		{"unsynced-key", NewUnsynced[int64](), Key[int64](1)},
	}
	sys := newSys()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stm.MustAtomicOn(sys, func(tx *stm.Tx) {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Acquire did not panic", c.name)
					}
				}()
				c.obj.Acquire(tx, c.op)
			})
		})
	}
}

// TestDemandNoneIsUniversal: DemandNone passes through every discipline
// without touching any lock — it is how pure inverse/disposable records flow
// through Apply.
func TestDemandNoneIsUniversal(t *testing.T) {
	sys := newSys()
	objs := []*Object[int64]{
		NewKeyed[int64](), NewCoarse[int64](), NewReadWrite[int64](),
		NewRanged[int64](), NewUnsynced[int64](),
	}
	ran := 0
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		for _, o := range objs {
			o.Apply(tx, Op[int64]{OnCommit: func() { ran++ }})
		}
	})
	if ran != len(objs) {
		t.Fatalf("OnCommit disposables ran %d times, want %d", ran, len(objs))
	}
}

// tagUndo is a test spec whose undo records are bare tags: replaying one
// hands the tag to fn.
type tagUndo struct {
	Undo[int]
	fn func(int)
}

func (u *tagUndo) ApplyUndo(tag int)       { u.fn(tag) }
func (u *tagUndo) log(tx *stm.Tx, tag int) { u.Log(tx, u, tag) }

// TestInversesReplayInReverseOrder: Rule 3 requires the undo log to be
// replayed strictly last-in first-out; anything else can reconstruct a state
// the object never had.
func TestInversesReplayInReverseOrder(t *testing.T) {
	sys := newSys()
	obj := NewKeyed[int64]()
	var replay []int
	und := &tagUndo{fn: func(i int) { replay = append(replay, i) }}
	err := sys.Atomic(func(tx *stm.Tx) error {
		for i := 0; i < 8; i++ {
			obj.Acquire(tx, Key(int64(i)))
			und.log(tx, i)
		}
		return errAbort
	})
	if !errors.Is(err, errAbort) {
		t.Fatalf("err = %v", err)
	}
	if len(replay) != 8 {
		t.Fatalf("replayed %d inverses, want 8", len(replay))
	}
	for i, got := range replay {
		if want := 7 - i; got != want {
			t.Fatalf("replay[%d] = %d, want %d (order %v)", i, got, want, replay)
		}
	}
}

// TestCommitRunsNoInverses: on commit the undo log is discarded untouched.
func TestCommitRunsNoInverses(t *testing.T) {
	sys := newSys()
	obj := NewCoarse[int64]()
	inverses := 0
	und := &tagUndo{fn: func(int) { inverses++ }}
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		obj.Acquire(tx, Excl[int64]())
		und.log(tx, 0)
	})
	if inverses != 0 {
		t.Fatalf("commit ran %d inverses", inverses)
	}
}

// TestDisposablesMatchOutcome: OnCommit runs iff the transaction commits,
// OnAbort iff it aborts — never both, never neither.
func TestDisposablesMatchOutcome(t *testing.T) {
	sys := newSys()
	obj := NewUnsynced[int64]()
	for _, commit := range []bool{true, false} {
		commits, aborts := 0, 0
		err := sys.Atomic(func(tx *stm.Tx) error {
			obj.Apply(tx, Op[int64]{
				OnCommit: func() { commits++ },
				OnAbort:  func() { aborts++ },
			})
			if !commit {
				return errAbort
			}
			return nil
		})
		if commit {
			if err != nil || commits != 1 || aborts != 0 {
				t.Fatalf("commit: err=%v commits=%d aborts=%d", err, commits, aborts)
			}
		} else {
			if !errors.Is(err, errAbort) || commits != 0 || aborts != 1 {
				t.Fatalf("abort: err=%v commits=%d aborts=%d", err, commits, aborts)
			}
		}
	}
}

// TestOnAbortRunsAfterRollback: Rule 4 — a disposable deferred to abort must
// observe the fully rolled-back state, i.e. run after every inverse.
func TestOnAbortRunsAfterRollback(t *testing.T) {
	sys := newSys()
	obj := NewKeyed[int64]()
	var order []string
	und := &tagUndo{fn: func(i int) { order = append(order, fmt.Sprint("inverse-", i)) }}
	_ = sys.Atomic(func(tx *stm.Tx) error {
		obj.Apply(tx, Op[int64]{
			Demand:  DemandKey,
			Key:     1,
			OnAbort: func() { order = append(order, "dispose-1") },
		})
		und.log(tx, 1)
		obj.Apply(tx, Op[int64]{
			Demand:  DemandKey,
			Key:     2,
			OnAbort: func() { order = append(order, "dispose-2") },
		})
		und.log(tx, 2)
		return errAbort
	})
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	if order[0] != "inverse-2" || order[1] != "inverse-1" {
		t.Fatalf("inverses not reverse order: %v", order)
	}
	if order[2] == "inverse-1" || order[3] == "inverse-1" {
		t.Fatalf("an inverse ran after disposables: %v", order)
	}
}

// TestStringKeyedEngine: the kernel's key space is fully generic — a string
// keyed engine serializes same-key transactions and frees the key on commit.
func TestStringKeyedEngine(t *testing.T) {
	sys := newSys()
	obj := NewKeyed[string]()
	for i := 0; i < 20; i++ {
		stm.MustAtomicOn(sys, func(tx *stm.Tx) {
			obj.Acquire(tx, Key("alpha"))
			obj.Acquire(tx, Key("beta"))
			obj.Acquire(tx, Key("alpha")) // reentrant
		})
	}
	if st := sys.Stats(); st.Aborts != 0 {
		t.Fatalf("sequential transactions aborted %d times", st.Aborts)
	}
}

// TestRangedPointIsDegenerateInterval: under the Ranged discipline, a
// DemandKey op locks [k, k] and therefore conflicts with a span covering k.
func TestRangedPointIsDegenerateInterval(t *testing.T) {
	sys := stm.NewSystem(stm.Config{LockTimeout: 10 * time.Millisecond, MaxRetries: 1})
	obj := NewRanged[int64]()
	inFlight := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- sys.Atomic(func(tx *stm.Tx) error {
			obj.Acquire(tx, Span[int64](10, 20))
			close(inFlight)
			<-release
			return nil
		})
	}()
	<-inFlight
	err := sys.Atomic(func(tx *stm.Tx) error {
		obj.Acquire(tx, Key[int64](15)) // inside [10, 20]: must conflict
		return nil
	})
	if !errors.Is(err, stm.ErrTooManyRetries) {
		t.Fatalf("point inside held span: err = %v, want timeout abort", err)
	}
	if err := sys.Atomic(func(tx *stm.Tx) error {
		obj.Acquire(tx, Key[int64](25)) // outside: must proceed
		return nil
	}); err != nil {
		t.Fatalf("point outside held span blocked: %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestPackageLevelHelpers: Inverse/OnCommit/OnAbort are the kernel's door to
// the runtime for objects with no lockable key space.
func TestPackageLevelHelpers(t *testing.T) {
	sys := newSys()
	var order []string
	_ = sys.Atomic(func(tx *stm.Tx) error {
		Inverse(tx, func() { order = append(order, "undo") })
		OnAbort(tx, func() { order = append(order, "abort-hook") })
		OnCommit(tx, func() { order = append(order, "commit-hook") })
		return errAbort
	})
	if len(order) != 2 || order[0] != "undo" || order[1] != "abort-hook" {
		t.Fatalf("order = %v", order)
	}
}
