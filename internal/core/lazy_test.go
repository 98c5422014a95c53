package core

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"tboost/internal/boost"
	"tboost/internal/hashset"
	"tboost/internal/stm"
)

// countingSet wraps a BaseSet and counts mutation calls that reached it, so
// tests can assert that fused-away ops never touch the base.
type countingSet[K comparable] struct {
	inner    BaseSet[K]
	mu       sync.Mutex
	adds     int
	removes  int
	contains int
}

func (c *countingSet[K]) Add(key K) bool {
	c.mu.Lock()
	c.adds++
	c.mu.Unlock()
	return c.inner.Add(key)
}

func (c *countingSet[K]) Remove(key K) bool {
	c.mu.Lock()
	c.removes++
	c.mu.Unlock()
	return c.inner.Remove(key)
}

func (c *countingSet[K]) Contains(key K) bool {
	c.mu.Lock()
	c.contains++
	c.mu.Unlock()
	return c.inner.Contains(key)
}

func (c *countingSet[K]) mutations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.adds + c.removes
}

// TestLazySetReadYourWrites pins the paper-facing contract of the lazy
// discipline: inside the transaction every answer reflects the pending log,
// and after commit the base holds exactly the net effect.
func TestLazySetReadYourWrites(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	s := NewLazyKeyedSet[int64](hashset.New[int64]())
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		if !s.Add(tx, 1) {
			t.Error("Add(1) on empty set should report true")
		}
		if s.Add(tx, 1) {
			t.Error("second Add(1) should report false (read-your-writes)")
		}
		if !s.Contains(tx, 1) {
			t.Error("Contains(1) should see the pending add")
		}
		if !s.Remove(tx, 1) {
			t.Error("Remove(1) should see the pending add and report true")
		}
		if s.Contains(tx, 1) {
			t.Error("Contains(1) should see the pending remove")
		}
		if s.Remove(tx, 1) {
			t.Error("second Remove(1) should report false")
		}
		if !s.Add(tx, 2) {
			t.Error("Add(2) should report true")
		}
	})
	if s.Base().Contains(1) {
		t.Error("key 1 was added and removed in one tx; must not reach the base")
	}
	if !s.Base().Contains(2) {
		t.Error("key 2 committed but is missing from the base")
	}
}

// TestLazyFusionNeverTouchesBase asserts the elimination guarantee with a
// counting base: an add∘remove pair on one key performs zero base
// mutations, and the object's fusion counters record the eliminated pair.
func TestLazyFusionNeverTouchesBase(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	cs := &countingSet[int64]{inner: hashset.New[int64]()}
	s := NewLazyKeyedSet[int64](cs)
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		s.Add(tx, 7)
		s.Remove(tx, 7)
	})
	if n := cs.mutations(); n != 0 {
		t.Fatalf("fused add∘remove pair performed %d base mutations, want 0", n)
	}
	logged, fused := s.Engine().LazyStats()
	if logged != 2 || fused != 2 {
		t.Fatalf("LazyStats() = (%d logged, %d fused), want (2, 2)", logged, fused)
	}
}

// TestLazyAbortIsTruncation: a failed lazy transaction leaves the base
// untouched without replaying any inverse (there are none to replay).
func TestLazyAbortIsTruncation(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	cs := &countingSet[int64]{inner: hashset.New[int64]()}
	s := NewLazyKeyedSet[int64](cs)
	errBoom := errors.New("boom")
	err := sys.Atomic(func(tx *stm.Tx) error {
		s.Add(tx, 1)
		s.Add(tx, 2)
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("Atomic error = %v, want %v", err, errBoom)
	}
	if n := cs.mutations(); n != 0 {
		t.Fatalf("aborted lazy tx performed %d base mutations, want 0", n)
	}
	if cs.inner.Contains(1) || cs.inner.Contains(2) {
		t.Fatal("aborted lazy adds are visible in the base")
	}
}

// TestLazyNestedSavepoint: a failed nested child truncates only its own
// suffix of the pending log; the parent's deferred ops survive and commit.
func TestLazyNestedSavepoint(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	s := NewLazyKeyedSet[int64](hashset.New[int64]())
	errChild := errors.New("child failed")
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		s.Add(tx, 1)
		err := tx.Nested(func(tx *stm.Tx) error {
			s.Add(tx, 2)
			if !s.Contains(tx, 2) {
				t.Error("child should see its own pending add")
			}
			return errChild
		})
		if !errors.Is(err, errChild) {
			t.Errorf("Nested error = %v, want %v", err, errChild)
		}
		if s.Contains(tx, 2) {
			t.Error("parent sees the rolled-back child's pending add")
		}
		if !s.Contains(tx, 1) {
			t.Error("child rollback destroyed the parent's pending add")
		}
	})
	if !s.Base().Contains(1) || s.Base().Contains(2) {
		t.Fatalf("base after commit: 1=%v 2=%v, want true/false",
			s.Base().Contains(1), s.Base().Contains(2))
	}
}

// TestLazyChildAttachedLogDiscarded: a pending log first attached inside a
// failed child is detached wholesale.
func TestLazyChildAttachedLogDiscarded(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	s := NewLazyKeyedSet[int64](hashset.New[int64]())
	errChild := errors.New("child failed")
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		_ = tx.Nested(func(tx *stm.Tx) error {
			s.Add(tx, 9)
			return errChild
		})
		if got := tx.LazyCount(); got != 0 {
			t.Errorf("LazyCount after child rollback = %d, want 0", got)
		}
	})
	if s.Base().Contains(9) {
		t.Fatal("rolled-back child's lazy add reached the base")
	}
}

// TestLazyValidationAbortRetries: invalidate a transaction's optimistic
// observation before it commits; the drain must detect the stale read,
// abort with a validation-kind cause, and succeed on retry.
func TestLazyValidationAbortRetries(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	s := NewLazyKeyedSet[int64](hashset.New[int64]())
	attempts := 0
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		attempts++
		// First attempt observes 5 absent; then the observation is
		// invalidated underfoot before the drain re-checks it.
		if got := s.Contains(tx, 5); got != (attempts > 1) {
			t.Errorf("attempt %d: Contains(5) = %v", attempts, got)
		}
		if attempts == 1 {
			// A conflicting committer slips in between the unlocked read
			// and this transaction's commit instant.
			stm.MustAtomicOn(sys, func(other *stm.Tx) {
				s.Add(other, 5)
			})
		}
	})
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one validation abort, one commit)", attempts)
	}
	if got := sys.Stats().AbortsValidation; got != 1 {
		t.Fatalf("AbortsValidation = %d, want 1", got)
	}
}

// TestLazyOrderedFlush: range queries on a lazy ordered set read their own
// pending writes via the early flush, and a post-flush abort still reverts
// everything.
func TestLazyOrderedFlush(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	s := NewLazyOrderedSet()
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		for k := int64(1); k <= 5; k++ {
			s.Add(tx, k)
		}
		if n := s.CountRange(tx, 1, 10); n != 5 {
			t.Errorf("CountRange over pending adds = %d, want 5", n)
		}
		// Post-flush ops go back to deferring.
		s.Add(tx, 6)
		if !s.Contains(tx, 6) {
			t.Error("post-flush pending add invisible")
		}
	})
	if n := quiescentCount(s, 1, 10); n != 6 {
		t.Fatalf("committed keys in [1,10] = %d, want 6", n)
	}

	errBoom := errors.New("boom")
	err := sys.Atomic(func(tx *stm.Tx) error {
		s.Add(tx, 100)
		if n := s.CountRange(tx, 100, 200); n != 1 {
			t.Errorf("CountRange after flush = %d, want 1", n)
		}
		return errBoom // flushed op must roll back via its inverse
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("Atomic error = %v, want %v", err, errBoom)
	}
	if s.Base().Contains(100) {
		t.Fatal("aborted flushed add survived in the base")
	}
}

// TestLazyFlushInNestedChild: the hard case — a child early-flushes ops the
// *parent* deferred, then fails. The flush's undo must re-pend the parent's
// entries so they still commit with the parent.
func TestLazyFlushInNestedChild(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	s := NewLazyOrderedSet()
	errChild := errors.New("child failed")
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		s.Add(tx, 1) // parent defers
		err := tx.Nested(func(tx *stm.Tx) error {
			s.Add(tx, 2) // child defers
			// Flush applies BOTH pending adds eagerly (range queries
			// cannot be answered from a point log).
			if n := s.CountRange(tx, 1, 10); n != 2 {
				t.Errorf("CountRange in child = %d, want 2", n)
			}
			return errChild
		})
		if !errors.Is(err, errChild) {
			t.Errorf("Nested error = %v, want %v", err, errChild)
		}
		// Child rollback: base reverted (1 and 2 removed), parent's
		// pending add of 1 restored, child's add of 2 discarded.
		if !s.Contains(tx, 1) {
			t.Error("parent's deferred add lost by child rollback after flush")
		}
		if s.Contains(tx, 2) {
			t.Error("child's deferred add survived its rollback")
		}
	})
	if !s.Base().Contains(1) {
		t.Fatal("parent's add of 1 missing after commit")
	}
	if s.Base().Contains(2) {
		t.Fatal("child's add of 2 present after its rollback")
	}
}

// TestLazyMapLastWriterWins: put∘put fuses to one base write, delete of a
// key observed absent fuses away, and read-your-writes holds throughout.
func TestLazyMapLastWriterWins(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	m := NewLazyRBTreeMap[string]()
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		if _, existed := m.Put(tx, 1, "a"); existed {
			t.Error("Put(1) on empty map reported an existing binding")
		}
		if old, existed := m.Put(tx, 1, "b"); !existed || old != "a" {
			t.Errorf("second Put(1) = (%q, %v), want (\"a\", true)", old, existed)
		}
		if v, ok := m.Get(tx, 1); !ok || v != "b" {
			t.Errorf("Get(1) = (%q, %v), want (\"b\", true)", v, ok)
		}
		// Delete of a key never bound: observed absent, fuses away.
		if _, existed := m.Delete(tx, 2); existed {
			t.Error("Delete(2) on empty map reported a binding")
		}
		m.Update(tx, 3, func(v string, ok bool) string {
			if ok {
				t.Error("Update(3) observed a binding on an empty map")
			}
			return "c"
		})
	})
	if v, ok := m.Base().Get(1); !ok || v != "b" {
		t.Fatalf("base Get(1) = (%q, %v), want (\"b\", true)", v, ok)
	}
	if _, ok := m.Base().Get(2); ok {
		t.Fatal("fused-away delete materialized key 2")
	}
	if v, ok := m.Base().Get(3); !ok || v != "c" {
		t.Fatalf("base Get(3) = (%q, %v), want (\"c\", true)", v, ok)
	}
}

// TestLazyMultisetDeltaFusion: n adds and m removes of one key fuse into a
// single net delta, and in-transaction counts track the pending view.
func TestLazyMultisetDeltaFusion(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	ms := NewLazyMultiset[string]()
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		if got := ms.Add(tx, "k"); got != 1 {
			t.Errorf("first Add = %d, want 1", got)
		}
		if got := ms.Add(tx, "k"); got != 2 {
			t.Errorf("second Add = %d, want 2", got)
		}
		if got := ms.Add(tx, "k"); got != 3 {
			t.Errorf("third Add = %d, want 3", got)
		}
		if !ms.RemoveOne(tx, "k") {
			t.Error("RemoveOne should succeed at pending count 3")
		}
		if got := ms.Count(tx, "k"); got != 2 {
			t.Errorf("Count = %d, want 2", got)
		}
	})
	if got := ms.Base().Count("k"); got != 2 {
		t.Fatalf("base count = %d, want 2", got)
	}
	logged, fused := ms.obj.LazyStats()
	if logged != 4 || fused != 3 {
		// 4 deferred unit ops fused into one net +2 delta.
		t.Fatalf("LazyStats = (%d, %d), want (4, 3)", logged, fused)
	}
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		if ms.RemoveOne(tx, "absent") {
			t.Error("RemoveOne of an absent key reported true")
		}
	})
}

// recordingJournal captures emitted ops so tests can assert the journal sees
// the post-fusion stream.
type recordingJournal struct {
	mu  sync.Mutex
	ops []struct {
		kind uint8
		key  int64
	}
}

func (j *recordingJournal) Begin(_ *stm.Tx, key int64) []byte {
	return binary.AppendVarint(nil, key)
}

func (j *recordingJournal) End(_ *stm.Tx, kind uint8, buf []byte) {
	key, _ := binary.Varint(buf)
	j.mu.Lock()
	j.ops = append(j.ops, struct {
		kind uint8
		key  int64
	}{kind, key})
	j.mu.Unlock()
}

// TestLazyJournalSeesFusedStream: the bound journal (the WAL's hook)
// receives only the surviving net ops — the durable log shrinks with
// fusion — and an aborted transaction emits nothing.
func TestLazyJournalSeesFusedStream(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	s := NewLazyKeyedSet[int64](hashset.New[int64]())
	j := &recordingJournal{}
	s.Engine().BindJournal(j)
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		s.Add(tx, 1) // survives
		s.Add(tx, 2) // annihilated by the remove below
		s.Remove(tx, 2)
		s.Add(tx, 3) // survives
	})
	if len(j.ops) != 2 {
		t.Fatalf("journal saw %d ops, want 2 (post-fusion)", len(j.ops))
	}
	for _, op := range j.ops {
		if op.kind != RedoAdd || (op.key != 1 && op.key != 3) {
			t.Fatalf("unexpected journal op kind=%d key=%d", op.kind, op.key)
		}
	}
	err := sys.Atomic(func(tx *stm.Tx) error {
		s.Add(tx, 4)
		return errors.New("abort")
	})
	if err == nil {
		t.Fatal("expected abort")
	}
	if len(j.ops) != 2 {
		t.Fatalf("aborted tx leaked %d ops into the journal", len(j.ops)-2)
	}
}

// TestLazyEngineConformance sanity-checks the lazy constructors' wiring.
func TestLazyEngineConformance(t *testing.T) {
	if !NewLazySkipListSet().Engine().Lazy() {
		t.Error("NewLazySkipListSet engine is not lazy")
	}
	if !NewLazyHashSetOf[string]().Engine().Lazy() {
		t.Error("NewLazyHashSetOf engine is not lazy")
	}
	if !NewLazyOrderedSet().Engine().Lazy() {
		t.Error("NewLazyOrderedSet engine is not lazy")
	}
	if NewSkipListSet().Engine().Lazy() {
		t.Error("eager NewSkipListSet engine claims lazy")
	}
	if NewLazyOrderedSet().Engine().Discipline() != boost.Ranged {
		t.Error("lazy ordered set should keep the Ranged discipline")
	}
}

// quiescentCount counts committed keys in [lo, hi] via the base skip list.
func quiescentCount(s *OrderedSet[int64], lo, hi int64) int {
	n := 0
	s.Base().AscendRange(lo, hi, func(int64) bool { n++; return true })
	return n
}

// TestLazyQuietOps pins the answer-free contract: quiet mutations log no
// observation — the transaction body performs zero base reads — they fuse
// as upserts whose no-op apply is not a validation failure, and they still
// feed read-your-writes answers to later answering ops on the same key.
func TestLazyQuietOps(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	cs := &countingSet[int64]{inner: hashset.New[int64]()}
	s := NewLazyKeyedSet[int64](cs)
	cs.inner.Add(1) // quiet add of 1 below lands on an already-present key
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		s.AddQuiet(tx, 1)    // upsert no-op at commit: 1 is already present
		s.AddQuiet(tx, 2)    // inserts
		s.RemoveQuiet(tx, 3) // upsert no-op: 3 was never present
	})
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		s.RemoveQuiet(tx, 2)
		if s.Contains(tx, 2) {
			t.Error("Contains(2) should see the pending quiet remove")
		}
		if !s.Add(tx, 2) {
			t.Error("Add(2) after a quiet remove should report true")
		}
	})
	cs.mu.Lock()
	reads := cs.contains
	cs.mu.Unlock()
	if reads != 0 {
		t.Errorf("quiet-op transactions performed %d base reads, want 0 (no observations, no phase-B validation)", reads)
	}
	for k, want := range map[int64]bool{1: true, 2: true, 3: false} {
		if got := cs.inner.Contains(k); got != want {
			t.Errorf("base.Contains(%d) = %v, want %v", k, got, want)
		}
	}
}
