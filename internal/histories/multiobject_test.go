package histories

import (
	"errors"
	"math/rand/v2"
	"sync"
	"testing"

	"tboost/internal/core"
	"tboost/internal/stm"
)

// TestMultiObjectStrictSerializability drives transactions that span THREE
// boosted objects — a set, a priority queue, and a unique-ID generator —
// and checks that the committed history is strictly serializable across all
// of them in one commit order (dynamic atomicity is a property of the
// transaction system, not of any single object).
func TestMultiObjectStrictSerializability(t *testing.T) {
	set := core.NewSkipListSet()
	pq := core.NewHeap[struct{}](core.RWLocked)
	ids := core.NewUniqueID()
	rec := NewRecorder()
	// Default 10 ms lock budget: Add then RemoveMin on the RWLocked heap is
	// a shared-to-exclusive upgrade, two of them deadlock, and the timeout
	// resolves it — at 300 ms an interleaved run slept for 17 s.
	sys := stm.NewSystem(stm.Config{})
	giveUp := errors.New("deliberate abort")

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(g), 1234))
			for i := 0; i < 50; i++ {
				fail := r.IntN(4) == 0
				k := int64(r.IntN(24))
				_ = sys.Atomic(func(tx *stm.Tx) error {
					// One transaction touches all three objects.
					added := set.Add(tx, k)
					rec.RecordCall(tx.ID(), "set", "add", []int64{k}, Resp{OK: added})

					pq.Add(tx, k, struct{}{})
					rec.RecordCall(tx.ID(), "pq", "add", []int64{k}, Resp{OK: true})

					if r.IntN(2) == 0 {
						mk, _, ok := pq.RemoveMin(tx)
						rec.RecordCall(tx.ID(), "pq", "removeMin", nil, Resp{Val: mk, OK: ok})
					}
					id := ids.AssignID(tx)
					rec.RecordCall(tx.ID(), "idgen", "assignID", []int64{id}, Resp{Val: id, OK: true})

					removed := set.Remove(tx, k+100)
					rec.RecordCall(tx.ID(), "set", "remove", []int64{k + 100}, Resp{OK: removed})

					if fail {
						return giveUp
					}
					tx.AtCommit(func() { rec.Commit(tx.ID()) })
					return nil
				})
			}
		}()
	}
	wg.Wait()

	specs := map[string]Spec{
		"set":   SetSpec{},
		"pq":    PQSpec{},
		"idgen": IDGenSpec{},
	}
	h := rec.History()
	if err := CheckStrictSerializability(h, specs); err != nil {
		t.Fatalf("multi-object history not serializable in one commit order: %v", err)
	}

	// Theorem 5.4 across objects: quiescent concrete state matches the
	// committed history's final abstract states.
	finals, err := FinalStates(h, specs)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 24; k++ {
		want, _, _ := finals["set"].Apply("contains", []int64{k})
		if got := set.Base().Contains(k); got != want.OK {
			t.Errorf("set key %d: base=%v, history=%v", k, got, want.OK)
		}
	}
	var wantDrain []int64
	st := finals["pq"]
	for {
		r2, next, _ := st.Apply("removeMin", nil)
		if !r2.OK {
			break
		}
		wantDrain = append(wantDrain, r2.Val)
		st = next
	}
	gotDrain := pq.DrainQuiescent()
	if len(gotDrain) != len(wantDrain) {
		t.Fatalf("heap drained %d keys, history implies %d", len(gotDrain), len(wantDrain))
	}
	for i := range wantDrain {
		if gotDrain[i] != wantDrain[i] {
			t.Fatalf("drain[%d] = %d, want %d", i, gotDrain[i], wantDrain[i])
		}
	}
}
