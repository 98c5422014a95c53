package histories

import (
	"math/rand/v2"
	"sync"
	"testing"

	"tboost/internal/core"
	"tboost/internal/stm"
)

// TestSnapshotReadsMatchSequentialSpec is the snapshot oracle: concurrent
// writers stamped with their commit sequence numbers, concurrent read-only
// snapshot transactions stamped with their pins, and every snapshot read
// checked against the sequential specification replayed to exactly the
// reader's pinned prefix (satellite of the multi-version read path).
func TestSnapshotReadsMatchSequentialSpec(t *testing.T) {
	flavours := []struct {
		name string
		make func() *core.Set[int64]
	}{
		{"skiplist-keyed", core.NewSkipListSet},
		{"hashset-keyed", core.NewHashSet},
		{"skiplist-coarse", core.NewSkipListSetCoarse},
	}
	for _, f := range flavours {
		t.Run(f.name, func(t *testing.T) {
			s := f.make()
			rec := NewRecorder()
			rs := recordingSet{set: s, rec: rec}
			// Default 10 ms lock budget: the writers take three keys in
			// random order, so the keyed flavours deadlock (ABBA) and the
			// timeout is what resolves it.
			sys := stm.NewSystem(stm.Config{})
			// Activate versioning before any writer commits, so every
			// effective writer carries a commit sequence number the
			// snapshot checker can place (see CheckSnapshotReads).
			if err := sys.AtomicRO(func(tx *stm.Tx) error { return nil }); err != nil {
				t.Fatal(err)
			}

			const keyRange = 16
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ { // writers
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := rand.New(rand.NewPCG(uint64(g), 99))
					for i := 0; i < 80; i++ {
						err := sys.Atomic(func(tx *stm.Tx) error {
							rec.Init(tx.ID())
							for j := 0; j < 3; j++ {
								k := int64(r.IntN(keyRange))
								if r.IntN(2) == 0 {
									rs.add(tx, k)
								} else {
									rs.remove(tx, k)
								}
							}
							tx.AtCommit(func() { rec.CommitAt(tx.ID(), tx.CommitSeq()) })
							return nil
						})
						if err != nil {
							t.Errorf("writer: %v", err)
							return
						}
					}
				}()
			}
			for g := 0; g < 4; g++ { // snapshot readers
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := rand.New(rand.NewPCG(uint64(g), 1234))
					for i := 0; i < 40; i++ {
						err := sys.AtomicRO(func(tx *stm.Tx) error {
							rec.Init(tx.ID())
							for j := 0; j < 5; j++ {
								rs.contains(tx, int64(r.IntN(keyRange)))
							}
							tx.AtCommit(func() { rec.SnapshotCommit(tx.ID(), tx.SnapshotSeq()) })
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

			h := rec.History()
			specs := map[string]Spec{"set": SetSpec{}}
			if err := CheckStrictSerializability(h, specs); err != nil {
				t.Fatalf("writer history not serializable: %v", err)
			}
			if err := CheckSnapshotReads(h, specs); err != nil {
				t.Fatalf("snapshot oracle violated: %v", err)
			}
			st := sys.Stats()
			if st.ROCommits == 0 {
				t.Fatal("no read-only commits recorded")
			}
			if st.ROAborts != 0 {
				t.Errorf("read-only transactions aborted: %d", st.ROAborts)
			}
			if st.ReaderLockDemands != 0 {
				t.Errorf("read-only transactions demanded %d abstract locks", st.ReaderLockDemands)
			}
		})
	}
}

// TestCheckSnapshotReadsCatchesTornRead pins the checker itself: a
// hand-built history whose reader observed a write from beyond its pin must
// be rejected.
func TestCheckSnapshotReadsCatchesTornRead(t *testing.T) {
	specs := map[string]Spec{"set": SetSpec{}}

	// Writer 1 (seq 1) adds 7; writer 2 (seq 2) removes 7. A reader pinned
	// at seq 1 must see 7 present.
	base := History{
		{Kind: EvCall, Tx: 1, Object: "set", Call: Call{Method: "add", Args: []int64{7}, Resp: Resp{OK: true}}},
		{Kind: EvCommit, Tx: 1, Seq: 1},
		{Kind: EvCall, Tx: 2, Object: "set", Call: Call{Method: "remove", Args: []int64{7}, Resp: Resp{OK: true}}},
		{Kind: EvCommit, Tx: 2, Seq: 2},
	}

	good := append(History{}, base...)
	good = append(good,
		Event{Kind: EvCall, Tx: 3, Object: "set", Call: Call{Method: "contains", Args: []int64{7}, Resp: Resp{OK: true}}},
		Event{Kind: EvCommit, Tx: 3, Seq: 1, RO: true},
	)
	if err := CheckSnapshotReads(good, specs); err != nil {
		t.Fatalf("consistent snapshot rejected: %v", err)
	}

	// The torn reader saw writer 2's removal despite its pin at seq 1.
	torn := append(History{}, base...)
	torn = append(torn,
		Event{Kind: EvCall, Tx: 4, Object: "set", Call: Call{Method: "contains", Args: []int64{7}, Resp: Resp{OK: false}}},
		Event{Kind: EvCommit, Tx: 4, Seq: 1, RO: true},
	)
	if err := CheckSnapshotReads(torn, specs); err == nil {
		t.Fatal("torn snapshot read not detected")
	}
}
