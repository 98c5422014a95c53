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

// TestBoostedHeapStrictlySerializable drives the boosted priority queue
// concurrently (with deliberate aborts) and replays the committed history
// in commit order against the PQueue specification.
func TestBoostedHeapStrictlySerializable(t *testing.T) {
	for _, mode := range []struct {
		name string
		m    core.HeapMode
	}{{"rwlocked", core.RWLocked}, {"exclusive", core.Exclusive}} {
		t.Run(mode.name, func(t *testing.T) {
			h := core.NewHeap[struct{}](mode.m)
			rec := NewRecorder()
			// Default 10 ms lock budget: in rwlocked mode two adders that
			// both go on to RemoveMin deadlock on the shared-to-exclusive
			// upgrade, and sleeping out the timeout is what resolves it.
			sys := stm.NewSystem(stm.Config{})
			giveUp := errors.New("deliberate abort")
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := rand.New(rand.NewPCG(uint64(g), 99))
					for i := 0; i < 60; i++ {
						fail := r.IntN(4) == 0
						ops := make([][2]int64, 3)
						for j := range ops {
							ops[j] = [2]int64{int64(r.IntN(3)), int64(r.IntN(50))}
						}
						_ = sys.Atomic(func(tx *stm.Tx) error {
							for _, op := range ops {
								switch op[0] {
								case 0:
									h.Add(tx, op[1], struct{}{})
									rec.RecordCall(tx.ID(), "pq", "add", []int64{op[1]}, Resp{OK: true})
								case 1:
									k, _, ok := h.RemoveMin(tx)
									rec.RecordCall(tx.ID(), "pq", "removeMin", nil, Resp{Val: k, OK: ok})
								default:
									k, _, ok := h.Min(tx)
									rec.RecordCall(tx.ID(), "pq", "min", nil, Resp{Val: k, OK: ok})
								}
							}
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
			specs := map[string]Spec{"pq": PQSpec{}}
			h2 := rec.History()
			if err := CheckStrictSerializability(h2, specs); err != nil {
				t.Fatalf("boosted heap history not serializable: %v", err)
			}
			// Theorem 5.4 on the concrete object: draining the quiescent
			// base heap must match the committed history's final multiset.
			finals, err := FinalStates(h2, specs)
			if err != nil {
				t.Fatal(err)
			}
			var want []int64
			st := finals["pq"]
			for {
				r, next, _ := st.Apply("removeMin", nil)
				if !r.OK {
					break
				}
				want = append(want, r.Val)
				st = next
			}
			got := h.DrainQuiescent()
			if len(got) != len(want) {
				t.Fatalf("drained %d keys, history implies %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("drain[%d] = %d, history implies %d", i, got[i], want[i])
				}
			}
		})
	}
}

// TestBoostedQueueFIFOHistory drives the pipeline queue SPSC (its intended
// topology) with aborts on both sides and replays the committed history
// against the FIFO specification.
func TestBoostedQueueFIFOHistory(t *testing.T) {
	q := core.NewQueueTimeout[int64](8, 5*time.Second)
	rec := NewRecorder()
	sys := stm.NewSystem(stm.Config{LockTimeout: 300 * time.Millisecond})
	flake := errors.New("flake")
	const n = 150
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		r := rand.New(rand.NewPCG(1, 1))
		for i := int64(0); i < n; i++ {
			for {
				fail := r.IntN(5) == 0
				err := sys.Atomic(func(tx *stm.Tx) error {
					q.Offer(tx, i)
					rec.RecordCall(tx.ID(), "queue", "offer", []int64{i}, Resp{OK: true})
					if fail {
						return flake
					}
					tx.AtCommit(func() { rec.Commit(tx.ID()) })
					return nil
				})
				if err == nil {
					break
				}
			}
		}
	}()
	go func() { // consumer
		defer wg.Done()
		r := rand.New(rand.NewPCG(2, 2))
		for got := 0; got < n; {
			fail := r.IntN(5) == 0
			err := sys.Atomic(func(tx *stm.Tx) error {
				v := q.Take(tx)
				rec.RecordCall(tx.ID(), "queue", "take", nil, Resp{Val: v, OK: true})
				if fail {
					return flake
				}
				tx.AtCommit(func() { rec.Commit(tx.ID()) })
				return nil
			})
			if err == nil {
				got++
			}
		}
	}()
	wg.Wait()
	if err := CheckStrictSerializability(rec.History(), map[string]Spec{"queue": QueueSpec{}}); err != nil {
		t.Fatalf("queue history not serializable: %v", err)
	}
	if q.LenCommitted() != 0 {
		t.Fatalf("%d items left committed", q.LenCommitted())
	}
}

// TestBoostedUniqueIDHistory validates the §3.4 story end to end: recorded
// assignID calls (with aborts whose releases are post-abort disposables)
// replay against the IDGen specification.
func TestBoostedUniqueIDHistory(t *testing.T) {
	u := core.NewUniqueID()
	rec := NewRecorder()
	sys := stm.NewSystem(stm.Config{LockTimeout: 100 * time.Millisecond})
	giveUp := errors.New("abort")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(g), 5))
			for i := 0; i < 100; i++ {
				fail := r.IntN(3) == 0
				_ = sys.Atomic(func(tx *stm.Tx) error {
					id := u.AssignID(tx)
					rec.RecordCall(tx.ID(), "idgen", "assignID", []int64{id}, Resp{Val: id, OK: true})
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
	if err := CheckStrictSerializability(rec.History(), map[string]Spec{"idgen": IDGenSpec{}}); err != nil {
		t.Fatalf("idgen history not serializable: %v", err)
	}
}
