package histories

import (
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"tboost/internal/core"
	"tboost/internal/stm"
)

// recordingSet wraps a boosted set so every call is recorded while the
// abstract lock is still held (the call happens first, then the record;
// both under the same lock, so record order = serialization order for
// conflicting calls).
type recordingSet struct {
	set *core.Set[int64]
	rec *Recorder
}

func (r recordingSet) add(tx *stm.Tx, k int64) bool {
	v := r.set.Add(tx, k)
	r.rec.RecordCall(tx.ID(), "set", "add", []int64{k}, Resp{OK: v})
	return v
}

func (r recordingSet) remove(tx *stm.Tx, k int64) bool {
	v := r.set.Remove(tx, k)
	r.rec.RecordCall(tx.ID(), "set", "remove", []int64{k}, Resp{OK: v})
	return v
}

func (r recordingSet) contains(tx *stm.Tx, k int64) bool {
	v := r.set.Contains(tx, k)
	r.rec.RecordCall(tx.ID(), "set", "contains", []int64{k}, Resp{OK: v})
	return v
}

// runRecordedWorkload drives a boosted set with concurrent multi-operation
// transactions (some deliberately aborting) and returns the recorded
// history. The transactions touch their keys in random order, so on the
// keyed flavours they deadlock (ABBA) and only a lock timeout resolves it:
// the System takes the default 10 ms budget. At 200 ms this one workload was
// 27 of tier-1's seconds, all of them spent asleep in those waits.
func runRecordedWorkload(t *testing.T, s *core.Set[int64], goroutines, txPerG, opsPerTx, keyRange int) History {
	t.Helper()
	rec := NewRecorder()
	rs := recordingSet{set: s, rec: rec}
	sys := stm.NewSystem(stm.Config{})
	giveUp := errors.New("deliberate abort")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(g), 4242))
			for i := 0; i < txPerG; i++ {
				fail := r.IntN(4) == 0
				ops := make([][2]int64, opsPerTx) // (opcode, key)
				for j := range ops {
					ops[j] = [2]int64{int64(r.IntN(3)), int64(r.IntN(keyRange))}
				}
				err := sys.Atomic(func(tx *stm.Tx) error {
					rec.Init(tx.ID())
					for _, op := range ops {
						switch op[0] {
						case 0:
							rs.add(tx, op[1])
						case 1:
							rs.remove(tx, op[1])
						default:
							rs.contains(tx, op[1])
						}
					}
					if fail {
						tx.OnAbort(func() { rec.Aborted(tx.ID()) })
						return giveUp
					}
					tx.AtCommit(func() { rec.Commit(tx.ID()) })
					return nil
				})
				if err != nil && !errors.Is(err, giveUp) {
					t.Errorf("Atomic: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return rec.History()
}

func TestBoostedSetStrictlySerializable(t *testing.T) {
	flavours := []struct {
		name string
		make func() *core.Set[int64]
	}{
		{"skiplist-keyed", core.NewSkipListSet},
		{"skiplist-coarse", core.NewSkipListSetCoarse},
		{"rbtree-coarse", core.NewRBTreeSet},
		{"hashset-keyed", core.NewHashSet},
		{"linkedlist-keyed", core.NewLinkedListSet},
	}
	specs := map[string]Spec{"set": SetSpec{}}
	for _, f := range flavours {
		t.Run(f.name, func(t *testing.T) {
			s := f.make()
			h := runRecordedWorkload(t, s, 8, 60, 4, 16)
			if err := CheckStrictSerializability(h, specs); err != nil {
				t.Fatalf("Theorem 5.3 violated: %v", err)
			}
			// Theorem 5.4: the base object's quiescent state equals the
			// committed history's final abstract state — aborted
			// transactions left no trace.
			finals, err := FinalStates(h, specs)
			if err != nil {
				t.Fatal(err)
			}
			for k := int64(0); k < 16; k++ {
				want, _, _ := finals["set"].Apply("contains", []int64{k})
				if got := s.Base().Contains(k); got != want.OK {
					t.Errorf("key %d: base=%v, committed history=%v", k, got, want.OK)
				}
			}
		})
	}
}

func TestBoostedSetSerializableUnderHighAbortRate(t *testing.T) {
	// Tiny key range + long transactions = heavy lock conflicts and many
	// timeout aborts; serializability must survive.
	s := core.NewSkipListSet()
	rec := NewRecorder()
	rs := recordingSet{set: s, rec: rec}
	sys := stm.NewSystem(stm.Config{LockTimeout: 2 * time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(g), 7))
			for i := 0; i < 40; i++ {
				err := sys.Atomic(func(tx *stm.Tx) error {
					for j := 0; j < 3; j++ {
						k := int64(r.IntN(4))
						if (g+j)%2 == 0 {
							rs.add(tx, k)
						} else {
							rs.remove(tx, k)
						}
					}
					tx.AtCommit(func() { rec.Commit(tx.ID()) })
					return nil
				})
				if err != nil {
					t.Errorf("Atomic: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := CheckStrictSerializability(rec.History(), map[string]Spec{"set": SetSpec{}}); err != nil {
		t.Fatalf("high-contention run not serializable: %v", err)
	}
	if st := sys.Stats(); st.Aborts == 0 {
		t.Log("note: no aborts occurred; contention lower than intended")
	}
}
