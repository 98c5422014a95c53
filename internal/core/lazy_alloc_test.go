package core

import (
	"testing"
	"time"

	"tboost/internal/hashset"
	"tboost/internal/stm"
)

// Allocation budgets of the lazy pending log (ISSUE 7 acceptance): a
// deferred mutation is an entry appended to a pooled slice — zero
// allocations in steady state — and a pair that fuses away must reach
// neither the base object nor the heap. Pending logs are recycled
// through the engine's sync.Pool across attempts and Atomic calls.

func TestLazyDeferredAddRemoveAllocBudget(t *testing.T) {
	skipIfRace(t)
	sys := stm.NewSystem(stm.Config{})
	s := NewLazyKeyedSet(hashset.New[int64]())
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		for k := int64(0); k < 64; k++ {
			s.Add(tx, k) // install the per-key locks up front
		}
	})
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		for k := int64(0); k < 64; k++ {
			s.Remove(tx, k)
		}
	})
	var k int64
	// Two deferred ops per run. Lazy ops log no inverse; the entries land
	// in the pooled log slice, which is warm.
	body := func(tx *stm.Tx) error {
		s.Add(tx, k)
		s.Remove(tx, k)
		return nil
	}
	_ = sys.Atomic(body)
	avg := testing.AllocsPerRun(200, func() {
		k = (k + 1) & 63
		_ = sys.Atomic(body)
	})
	if avg > 0 {
		t.Fatalf("deferred add+remove allocates %.2f objects/run, want 0", avg)
	}
}

// A deferred Put keeps its value by value in the map's typed pending entry
// (it was boxed into an interface, one object per Put of anything wider than
// a byte), through fusion and the commit-time apply.
func TestLazyMapPutAllocsZero(t *testing.T) {
	skipIfRace(t)
	sys := stm.NewSystem(stm.Config{})
	mp := NewLazyMap[int64, int64](newMemMap[int64, int64]())
	var k int64
	body := func(tx *stm.Tx) error {
		mp.Put(tx, k, 1_000_000+k)
		mp.Put(tx, k, 2_000_000+k) // last writer wins at the drain
		if v, _ := mp.Get(tx, k); v != 2_000_000+k {
			t.Errorf("deferred Put not read back: %d", v)
		}
		return nil
	}
	step := func() {
		k = (k + 1) & 63
		_ = sys.Atomic(body)
	}
	for i := 0; i < 64; i++ { // install every key's lock and map slot
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg > 0 {
		t.Fatalf("lazy Put+Put+Get allocates %.2f objects/tx, want 0", avg)
	}
}

func TestLazyFusedPairAllocsZero(t *testing.T) {
	skipIfRace(t)
	sys := stm.NewSystem(stm.Config{})
	cs := &countingSet[int64]{inner: hashset.New[int64]()}
	s := NewLazyKeyedSet[int64](cs)
	// Warm: install the key's lock and the pending-log pool.
	body := func(tx *stm.Tx) error {
		s.Add(tx, 7)
		s.Remove(tx, 7)
		return nil
	}
	_ = sys.Atomic(body)
	base := cs.mutations()
	avg := testing.AllocsPerRun(200, func() {
		_ = sys.Atomic(body)
	})
	if avg > 0 {
		t.Fatalf("annihilated add∘remove pair allocates %.2f objects/run, want 0", avg)
	}
	if got := cs.mutations(); got != base {
		t.Fatalf("annihilated pairs performed %d base mutations", got-base)
	}
}

func TestLazyLogReusedAcrossAttempts(t *testing.T) {
	skipIfRace(t)
	sys := stm.NewSystem(stm.Config{BackoffBase: time.Nanosecond, BackoffCap: time.Nanosecond})
	s := NewLazyKeyedSet(hashset.New[int64]())
	stm.MustAtomicOn(sys, func(tx *stm.Tx) { s.Add(tx, 1) })
	// Every run dooms its first attempt after logging deferred ops, so the
	// retry path recycles the pending log through the pool and the second
	// attempt re-fetches it. If each attempt leaked a log (or its entry
	// slice), the run average would exceed the budget immediately.
	body := func(tx *stm.Tx) error {
		s.Contains(tx, 1)
		s.Add(tx, 2)
		s.Remove(tx, 2)
		if tx.Attempt() == 0 {
			tx.Doom()
		}
		return nil
	}
	_ = sys.Atomic(body)
	avg := testing.AllocsPerRun(100, func() {
		_ = sys.Atomic(body)
	})
	if avg > 0 {
		t.Fatalf("doomed-then-retried lazy tx allocates %.2f objects/run, want 0", avg)
	}
}
