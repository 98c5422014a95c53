package boost

import (
	"testing"

	"tboost/internal/mvcc"
)

// TestVersionChainGivesCapacityBack: a reader pinned across a stall makes a
// hot key's chain grow without bound; once the pin is released the next
// publication must not only trim the chain's length but return its capacity,
// or every key the stall touched stays at its high-water mark for good.
func TestVersionChainGivesCapacityBack(t *testing.T) {
	const key = int64(7)
	tab := newVersionTable[int64]()
	m := mvcc.NewManager()
	commit := func() {
		seq := m.Begin()
		tab.publish(key, Version{Present: true, Val: seq}, seq, m.TrimBound(), m)
		m.Publish(seq)
	}
	chain := func() []Version {
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
	if last := after[len(after)-1]; last.Val != m.Visible() {
		t.Fatalf("newest entry is %v, want the last commit %d", last.Val, m.Visible())
	}
}
