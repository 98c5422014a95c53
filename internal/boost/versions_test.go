package boost

import (
	"errors"
	"testing"

	"tboost/internal/mvcc"
	"tboost/internal/stm"
)

// liveSys returns a System whose versioning is already active, so every
// later transaction latches RecordsVersions.
func liveSys(t *testing.T) *stm.System {
	t.Helper()
	sys := newSys()
	if err := sys.AtomicRO(func(*stm.Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return sys
}

// pending returns the log vs has attached to tx.
func pending[K comparable, S any](tx *stm.Tx, vs *Versions[K, S]) *versionLog[K, S] {
	vl, _ := tx.VersionLookup(vs).(*versionLog[K, S])
	return vl
}

// TestRecycledVersionLogPinsNoState: whether its transaction committed,
// aborted or rolled a nested child back, a pending log returns to the pool
// holding no key and no state — over its whole capacity — and a nested
// rollback truncates exactly the child's records (the typed log behind
// stm.VersionPending's TruncateTo), so only the parent's are published.
func TestRecycledVersionLogPinsNoState(t *testing.T) {
	sys := liveSys(t)
	errChild := errors.New("child fails")
	for _, commit := range []bool{true, false} {
		vs := new(Versions[string, *cell])
		vals := make([]cell, 8)
		var vl *versionLog[string, *cell]
		err := sys.Atomic(func(tx *stm.Tx) error {
			if !vs.Live(tx) {
				t.Fatal("versioning not live")
			}
			vs.Record(tx, "parent", true, &vals[0])
			vl = pending(tx, vs)
			if err := tx.Nested(func(tx *stm.Tx) error {
				vs.Record(tx, "parent", true, &vals[1]) // would overwrite the parent's
				vs.Record(tx, "child", true, &vals[2])
				if vl.Len() != 3 {
					t.Errorf("child sees %d pending records, want 3", vl.Len())
				}
				return errChild
			}); err != errChild {
				t.Errorf("nested: %v", err)
			}
			if vl.Len() != 1 || vl.recs[:3][1].key != "" || vl.recs[:3][2].ver.State != nil {
				t.Errorf("after the child's rollback: %d records, tail %+v", vl.Len(), vl.recs[:3][1:])
			}
			vs.Record(tx, "later", false, &vals[3]) // absent: the state is dropped at the door
			if commit {
				return nil
			}
			return errAbort
		})
		if commit != (err == nil) {
			t.Fatalf("commit=%v: err = %v", commit, err)
		}
		for i, r := range vl.recs[:cap(vl.recs)] {
			if r.key != "" || r.ver != (Version[*cell]{}) {
				t.Fatalf("commit=%v: recycled log still holds record %d: %+v", commit, i, r)
			}
		}
		seq := sys.Snapshots().Visible()
		parent, okP := vs.At("parent", seq)
		_, okC := vs.At("child", seq)
		later, okL := vs.At("later", seq)
		if !commit {
			if okP || okC || okL {
				t.Fatal("an aborted transaction published versions")
			}
			continue
		}
		if !okP || parent.State != &vals[0] || okC {
			t.Fatalf("published parent=%+v (ok %v) child ok=%v, want the parent's own record and no child", parent, okP, okC)
		}
		if !okL || later.Present || later.State != nil {
			t.Fatalf("absent key published as %+v (ok %v), want present=false with no state", later, okL)
		}
	}
}

// TestSeededChainNeverEmpties: the two chain invariants the lock-free reader
// leans on. A seed lands at sequence 0 and only on an empty chain (a second
// seed is ignored, a chain that exists is never re-floored); and once a
// chain has an entry no trim, however high its bound, takes the last one
// at-or-below it — a reader that hit the chain once hits it for good.
func TestSeededChainNeverEmpties(t *testing.T) {
	sys := liveSys(t)
	vs := new(Versions[int64, int64])
	if !vs.NeedsSeed(7) {
		t.Fatal("a key with no chain does not ask for a seed")
	}
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		vs.Seed(tx, 7, true, 100)
		vs.Seed(tx, 7, true, 999) // the chain is no longer empty: ignored
		if vs.NeedsSeed(7) {
			t.Error("a seeded chain asks for another seed")
		}
		if v, ok := vs.At(7, 0); !ok || v.Seq != 0 || v.State != 100 {
			t.Errorf("floor is %+v (ok %v), want the first seed at sequence 0", v, ok)
		}
		vs.Record(tx, 7, true, 101)
		if v, _ := vs.At(7, ^uint64(0)); v.State != 100 {
			t.Errorf("a pending record is visible before commit: %+v", v)
		}
	})
	for i := int64(0); i < 100; i++ { // unpinned: every publication trims to the newest
		stm.MustAtomicOn(sys, func(tx *stm.Tx) { vs.Record(tx, 7, i%2 == 0, 200+i) })
		if n := vs.ChainLen(7); n < 1 || n > 2 {
			t.Fatalf("after %d publications the chain holds %d entries, want 1 or 2", i+1, n)
		}
	}
	if v, ok := vs.At(7, sys.Snapshots().Visible()); !ok || v.Present || v.State != 0 {
		t.Fatalf("newest is %+v (ok %v), want the last publication: absent, state dropped", v, ok)
	}
}

// TestVersionChainGivesCapacityBack: a reader pinned across a stall makes a
// hot key's chain grow without bound; once the pin is released the next
// publication must not only trim the chain's length but return its capacity,
// or every key the stall touched stays at its high-water mark for good.
func TestVersionChainGivesCapacityBack(t *testing.T) {
	const key = int64(7)
	tab := new(Versions[int64, uint64])
	m := mvcc.NewManager()
	commit := func() {
		seq := m.Begin()
		tab.publish(key, Version[uint64]{Present: true, State: seq}, seq, m.TrimBound(), m)
		m.Publish(seq)
	}
	chain := func() []Version[uint64] {
		s := tab.stripe(key)
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.chains[s.find(key)].vers
	}

	// Unpinned, the chain sits at its steady state and never reaches the
	// shrink guard: its slice is reused in place, nothing is reallocated.
	for i := 0; i < 64; i++ {
		commit()
	}
	steady := chain()
	if len(steady) > 2 || cap(steady) > 4 {
		t.Fatalf("unpinned chain: len %d cap %d, want <= 2 in <= 4", len(steady), cap(steady))
	}
	for i := 0; i < 64; i++ {
		commit()
	}
	if now := chain(); &now[:1][0] != &steady[:1][0] {
		t.Fatal("steady-state trim reallocated the chain")
	}

	pin := m.Pin()
	for i := 0; i < 1024; i++ {
		commit()
	}
	if grown := chain(); len(grown) < 1024 {
		t.Fatalf("pinned chain holds %d entries, want the 1024 the pin retains", len(grown))
	}
	m.Unpin(pin)
	commit()
	after := chain()
	if len(after) > 2 || cap(after) > 8 {
		t.Fatalf("after unpin and one publication: len %d cap %d, want <= 2 in <= 8", len(after), cap(after))
	}
	if last := after[len(after)-1]; last.State != m.Visible() {
		t.Fatalf("newest entry is %v, want the last commit %d", last.State, m.Visible())
	}
}
