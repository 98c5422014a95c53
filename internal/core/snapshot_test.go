package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"tboost/internal/hashset"
	"tboost/internal/stm"
)

// TestSnapshotReadsCommittedState checks the basic multi-version contract:
// a read-only transaction sees every previously committed write, and a
// pinned Snapshot keeps answering from its pin while writers move on.
func TestSnapshotReadsCommittedState(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	s := NewKeyedSet(hashset.New[int64]())

	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		for k := int64(0); k < 8; k++ {
			s.Add(tx, k)
		}
	})
	if err := sys.AtomicRO(func(tx *stm.Tx) error {
		for k := int64(0); k < 8; k++ {
			if !s.Contains(tx, k) {
				t.Errorf("read-only tx missing committed key %d", k)
			}
		}
		if s.Contains(tx, 99) {
			t.Error("read-only tx sees never-written key")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	sn := sys.OpenSnapshot()
	defer sn.Close()
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		s.Remove(tx, 3)
		s.Add(tx, 50)
	})
	// The pinned snapshot still sees the pre-write state...
	if err := sn.Atomic(func(tx *stm.Tx) error {
		if !s.Contains(tx, 3) {
			t.Error("snapshot lost key 3 to a later writer")
		}
		if s.Contains(tx, 50) {
			t.Error("snapshot sees a write from beyond its pin")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// ...while a fresh read-only transaction sees the new state.
	if err := sys.AtomicRO(func(tx *stm.Tx) error {
		if s.Contains(tx, 3) {
			t.Error("fresh read-only tx sees removed key 3")
		}
		if !s.Contains(tx, 50) {
			t.Error("fresh read-only tx missing committed key 50")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotMapAndMultiset exercises the other versioned read paths: a
// map snapshot returns the binding at the pin, a multiset snapshot the
// count at the pin.
func TestSnapshotMapAndMultiset(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	mp := NewMap[int64, string](rbtreeStringBase())
	ms := NewMultiset[int64]()

	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		mp.Put(tx, 1, "old")
		ms.Add(tx, 1)
		ms.Add(tx, 1)
	})
	sn := sys.OpenSnapshot()
	defer sn.Close()
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		mp.Put(tx, 1, "new")
		mp.Put(tx, 2, "fresh")
		ms.Add(tx, 1)
	})
	if err := sn.Atomic(func(tx *stm.Tx) error {
		if v, ok := mp.Get(tx, 1); !ok || v != "old" {
			t.Errorf("snapshot map read = %q,%v want old,true", v, ok)
		}
		if _, ok := mp.Get(tx, 2); ok {
			t.Error("snapshot sees binding from beyond its pin")
		}
		if n := ms.Count(tx, 1); n != 2 {
			t.Errorf("snapshot multiset count = %d, want 2", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AtomicRO(func(tx *stm.Tx) error {
		if v, ok := mp.Get(tx, 1); !ok || v != "new" {
			t.Errorf("fresh read-only map read = %q,%v want new,true", v, ok)
		}
		if n := ms.Count(tx, 1); n != 3 {
			t.Errorf("fresh read-only multiset count = %d, want 3", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// rbtreeStringBase builds a BaseMap[int64,string] over the plain map-based
// test double used elsewhere in the package tests.
func rbtreeStringBase() BaseMap[int64, string] {
	return newMemMap[int64, string]()
}

// memMap is a trivially linearizable (mutex-guarded) BaseMap for tests.
type memMap[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

func newMemMap[K comparable, V any]() *memMap[K, V] {
	return &memMap[K, V]{m: make(map[K]V)}
}

func (t *memMap[K, V]) Put(key K, val V) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.m[key]
	t.m[key] = val
	return old, ok
}

func (t *memMap[K, V]) Delete(key K) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.m[key]
	delete(t.m, key)
	return old, ok
}

func (t *memMap[K, V]) Get(key K) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.m[key]
	return v, ok
}

// TestVersionGCReclaimsBelowOldestPin pins the retention contract: with no
// snapshot pinned, a hot key's version chain stays at its steady-state
// floor no matter how often it is rewritten; a live pin retains history and
// surfaces the growth in the manager's stats; closing the pin lets the next
// flush reclaim everything below the new bound.
func TestVersionGCReclaimsBelowOldestPin(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	s := NewKeyedSet(hashset.New[int64]())
	// Activate versioning before measuring (the first pin does it).
	if err := sys.AtomicRO(func(tx *stm.Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}

	toggle := func(i int) {
		stm.MustAtomicOn(sys, func(tx *stm.Tx) {
			if i%2 == 0 {
				s.Add(tx, 0)
			} else {
				s.Remove(tx, 0)
			}
		})
	}
	for i := 0; i < 50; i++ {
		toggle(i)
	}
	if n := s.Versions().ChainLen(0); n > 2 {
		t.Fatalf("unpinned hot-key chain grew to %d entries, want <= 2", n)
	}

	sn := sys.OpenSnapshot()
	for i := 0; i < 50; i++ {
		toggle(i)
	}
	grown := s.Versions().ChainLen(0)
	if grown < 40 {
		t.Fatalf("pinned chain holds %d entries, want history retained (>= 40)", grown)
	}
	st := sys.Snapshots().Stats()
	if st.ActivePins != 1 {
		t.Fatalf("ActivePins = %d, want 1", st.ActivePins)
	}
	if st.OldestPin != sn.Seq() {
		t.Fatalf("OldestPin = %d, want %d", st.OldestPin, sn.Seq())
	}
	if st.VersionsRetained < int64(grown) {
		t.Fatalf("VersionsRetained = %d, below live chain length %d", st.VersionsRetained, grown)
	}
	// The pinned snapshot must still read its frozen state (key 0 was
	// absent at the pin: the 50th toggle, i=49, removed it).
	if err := sn.Atomic(func(tx *stm.Tx) error {
		if s.Contains(tx, 0) {
			t.Error("snapshot sees post-pin state")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	sn.Close()
	toggle(0) // next flush trims below the released pin
	if n := s.Versions().ChainLen(0); n > 2 {
		t.Fatalf("chain still holds %d entries after unpin, want <= 2", n)
	}
	if st := sys.Snapshots().Stats(); st.VersionsReclaimed == 0 {
		t.Fatal("VersionsReclaimed stayed 0 after trim")
	}
}

// TestPreActivationWriterNeverSeeds pins the per-call versioning latch: a
// transaction that begins while versioning is dormant must not start seeding
// or recording mid-flight when the manager activates under it. Before the
// latch, the second mutation below passed NeedsSeed and planted a sequence-0
// floor read from the base — a state containing the transaction's own
// uncommitted first mutation — and that floor survived the abort, leaving a
// never-committed state in the chain for every future snapshot to read.
func TestPreActivationWriterNeverSeeds(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	s := NewKeyedSet(hashset.New[int64]())

	sentinel := errors.New("roll back")
	err := sys.Atomic(func(tx *stm.Tx) error {
		s.Add(tx, 7) // dormant: no seed, no record
		// Simulate the mid-transaction activation flip (a real first pin
		// additionally drains; the flip alone is the hazardous half).
		sys.Snapshots().Activate()
		s.Remove(tx, 7) // latched false: still no seed, no record
		return sentinel
	})
	if err != sentinel {
		t.Fatalf("Atomic = %v, want sentinel", err)
	}
	if n := s.Versions().ChainLen(7); n != 0 {
		t.Fatalf("aborted pre-activation writer left %d version entries, want 0", n)
	}

	// A call that begins after activation latches true and versions normally.
	stm.MustAtomicOn(sys, func(tx *stm.Tx) { s.Add(tx, 7) })
	if n := s.Versions().ChainLen(7); n == 0 {
		t.Fatal("post-activation writer recorded no versions")
	}
}

// firstTouchStress runs snapshot readers against writers whose every
// transaction first-touches fresh keys, so chain creation, the stripe spill
// from the linear scan to the index (thousands of keys over 64 stripes) and
// the reader's miss-then-double-check all run against each other — with
// trims, recycled pending logs and chain slots reused underneath. Each
// transaction binds, or later deletes, the pair (k, k+half) whole, so a
// reader pinned anywhere must find both keys or neither; mk makes values
// that name their key and round, so a state that reached a reader through a
// stale pending record or an unzeroed chain slot shows as the wrong key's
// value. Run it under -race (make test-race).
func firstTouchStress[V any](t *testing.T, mk func(key, round int64) V, parse func(V) (key, round int64)) {
	const writers, perWriter, half = 4, 384, 4 * 384
	if testing.Short() {
		t.Skip("stress")
	}
	sys := stm.NewSystem(stm.Config{})
	mp := NewMap[int64, V](newMemMap[int64, V]())
	if err := sys.AtomicRO(func(*stm.Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var wg, rg sync.WaitGroup
	stop := make(chan struct{})
	for w := int64(0); w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < perWriter; i++ {
				k := w*perWriter + i
				stm.MustAtomicOn(sys, func(tx *stm.Tx) {
					mp.Put(tx, k, mk(k, i))
					mp.Put(tx, k+half, mk(k+half, i))
					if old := k - 3; i >= 3 && i%4 == 0 { // and retire an earlier pair
						mp.Delete(tx, old)
						mp.Delete(tx, old+half)
					}
				})
			}
		}()
	}
	for r := int64(0); r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for k := r; ; k = (k + 7) % half {
				select {
				case <-stop:
					return
				default:
				}
				err := sys.AtomicRO(func(tx *stm.Tx) error {
					for j := int64(0); j < 16; j++ {
						lo := (k + j*97) % half
						a, okA := mp.Get(tx, lo)
						b, okB := mp.Get(tx, lo+half)
						if okA != okB {
							t.Errorf("pin %d: key %d present=%v but its partner %d present=%v", tx.SnapshotSeq(), lo, okA, lo+half, okB)
							return nil
						}
						if !okA {
							continue
						}
						ka, ra := parse(a)
						kb, rb := parse(b)
						if ka != lo || kb != lo+half || ra != rb {
							t.Errorf("pin %d: keys %d/%d read values of %d (round %d) and %d (round %d)", tx.SnapshotSeq(), lo, lo+half, ka, ra, kb, rb)
							return nil
						}
					}
					return nil
				})
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if st := sys.Stats(); st.ROAborts != 0 || st.ReaderLockDemands != 0 {
		t.Fatalf("readers aborted %d times and demanded %d locks, want 0 and 0", st.ROAborts, st.ReaderLockDemands)
	}
	// Quiescent: a fresh pin answers every key, from its chain, as the base
	// does — the seeds, publications and trims above lost or invented none.
	if err := sys.AtomicRO(func(tx *stm.Tx) error {
		for k := int64(0); k < 2*half; k++ {
			v, ok := mp.Get(tx, k)
			if _, inBase := mp.Base().Get(k); ok != inBase || mp.Versions().ChainLen(k) == 0 {
				t.Fatalf("key %d: snapshot present=%v, base present=%v, chain of %d", k, ok, inBase, mp.Versions().ChainLen(k))
			}
			if !ok {
				continue
			}
			if key, _ := parse(v); key != k {
				t.Fatalf("key %d reads the value of key %d", k, key)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFirstTouchStressStringValues(t *testing.T) {
	firstTouchStress(t,
		func(key, round int64) string { return fmt.Sprintf("%d:%d", key, round) },
		func(s string) (key, round int64) { fmt.Sscanf(s, "%d:%d", &key, &round); return })
}

// boxed is a value that holds pointers: what it points at names its key, so
// a reader handed another record's pointer reads another key's name.
type boxed struct {
	key   *int64
	round int64
}

func TestFirstTouchStressPointerValues(t *testing.T) {
	firstTouchStress(t,
		func(key, round int64) boxed { return boxed{&key, round} },
		func(b boxed) (key, round int64) { return *b.key, b.round })
}

// TestNestedRollbackDropsChildVersions: a rolled-back child's pending
// version records leave the typed log with it (the savepoint is a length,
// see stm nested.go), whether the parent or the child attached the log, so
// the commit publishes the parent's states only.
func TestNestedRollbackDropsChildVersions(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	mp := NewMap[int64, string](newMemMap[int64, string]())
	if err := sys.AtomicRO(func(*stm.Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	errChild := errors.New("child fails")
	for _, parentFirst := range []bool{true, false} {
		k := int64(10)
		if parentFirst {
			k = 20
		}
		stm.MustAtomicOn(sys, func(tx *stm.Tx) {
			if parentFirst {
				mp.Put(tx, k, "parent")
			}
			if err := tx.Nested(func(tx *stm.Tx) error {
				mp.Put(tx, k, "child")
				mp.Put(tx, k+1, "child only")
				return errChild
			}); err != errChild {
				t.Fatalf("nested: %v", err)
			}
			mp.Put(tx, k+2, "after")
		})
		if err := sys.AtomicRO(func(tx *stm.Tx) error {
			v, ok := mp.Get(tx, k)
			if ok != parentFirst || (ok && v != "parent") {
				t.Errorf("parentFirst=%v: key %d reads %q (present %v)", parentFirst, k, v, ok)
			}
			if v, ok := mp.Get(tx, k+1); ok {
				t.Errorf("parentFirst=%v: the rolled-back child's key reads %q", parentFirst, v)
			}
			if v, _ := mp.Get(tx, k+2); v != "after" {
				t.Errorf("parentFirst=%v: the parent's later write reads %q", parentFirst, v)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// hookedSet and hookedMap run a hook before every base mutation.
type hookedSet struct {
	BaseSet[int64]
	before func(key int64)
}

func (h *hookedSet) Add(k int64) bool    { h.before(k); return h.BaseSet.Add(k) }
func (h *hookedSet) Remove(k int64) bool { h.before(k); return h.BaseSet.Remove(k) }

type hookedMap struct {
	BaseMap[int64, int64]
	before func(key int64)
}

func (h *hookedMap) Put(k, v int64) (int64, bool) { h.before(k); return h.BaseMap.Put(k, v) }
func (h *hookedMap) Delete(k int64) (int64, bool) { h.before(k); return h.BaseMap.Delete(k) }

// TestSeedLandsBeforeBaseMutation: once versioning is live, no base mutation
// of a key — eager call, lazy drain, early flush — runs while the key's
// chain is empty. The reader's chain-miss double check is only conclusive
// because of this order: a mutation that could tear its base read has
// already left a chain for the re-check to find.
func TestSeedLandsBeforeBaseMutation(t *testing.T) {
	sys := stm.NewSystem(stm.Config{})
	if err := sys.AtomicRO(func(*stm.Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	mutations := 0
	check := func(name string, needsSeed func(int64) bool) func(int64) {
		return func(k int64) {
			mutations++
			if needsSeed(k) {
				t.Errorf("%s: base mutation of key %d with no chain seeded", name, k)
			}
		}
	}
	hs := &hookedSet{BaseSet: hashset.New[int64]()}
	hm := &hookedMap{BaseMap: newMemMap[int64, int64]()}
	sets := map[string]*Set[int64]{"set": NewKeyedSet[int64](hs), "lazy set": NewLazyKeyedSet[int64](hs)}
	maps := map[string]*Map[int64, int64]{"map": NewMap[int64, int64](hm), "lazy map": NewLazyMap[int64, int64](hm)}
	for name, s := range sets {
		hs.before = check(name, s.Versions().NeedsSeed)
		stm.MustAtomicOn(sys, func(tx *stm.Tx) {
			s.Add(tx, 1)
			s.AddQuiet(tx, 2)
			s.Remove(tx, 1)
			s.Add(tx, 3)
		})
		stm.MustAtomicOn(sys, func(tx *stm.Tx) { s.Remove(tx, 3) })
	}
	for name, m := range maps {
		hm.before = check(name, m.Versions().NeedsSeed)
		stm.MustAtomicOn(sys, func(tx *stm.Tx) {
			m.Put(tx, 1, 10)
			m.Put(tx, 2, 20)
			m.Delete(tx, 1)
		})
		stm.MustAtomicOn(sys, func(tx *stm.Tx) { m.Delete(tx, 2) })
	}
	if mutations < 12 {
		t.Fatalf("only %d base mutations observed: the hooks did not run", mutations)
	}
}
