package boost

import (
	"math/rand/v2"
	"testing"
	"time"

	"tboost/internal/stm"
)

// FuzzKernelReplay interprets fuzz input bytes as a descriptor sequence
// applied inside one transaction (2 bits: discipline-legal op shape, 6 bits:
// key) and checks the kernel's two ordering guarantees on every input:
//
//   - inverses replay in exact reverse logging order, and only on abort,
//     whichever of two typed record stacks or the closure stack holds them;
//   - disposables never run before the transaction's outcome is decided,
//     and the outcome picks exactly one of OnCommit/OnAbort per descriptor.
//
// The final input byte decides commit vs abort, so the corpus explores both
// outcomes. Run continuously with:
//
//	go test -fuzz FuzzKernelReplay ./internal/boost
func FuzzKernelReplay(f *testing.F) {
	f.Add([]byte{0x01, 0x41, 0x81, 0xc1, 0x00})
	f.Add([]byte{0x00, 0x40, 0x00, 0x40, 0x80, 0x01})
	seed := make([]byte, 64)
	r := rand.New(rand.NewPCG(2, 2))
	for i := range seed {
		seed[i] = byte(r.IntN(256))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		commit := ops[len(ops)-1]&1 == 0
		ops = ops[:len(ops)-1]

		sys := stm.NewSystem(stm.Config{LockTimeout: 25 * time.Millisecond})
		keyed := NewKeyed[int64]()
		unsynced := NewUnsynced[int64]()

		var (
			logged     []int // descriptor index, in logging order
			replayed   []int // descriptor index, in replay order
			committed  []int
			aborted    []int
			inBody     = true // flips false once the body returns
			nInverses  = 0
			nCommitFns = 0
			nAbortFns  = 0
		)
		replay := func(i int) {
			if len(aborted) != 0 {
				t.Error("inverse ran after an OnAbort disposable")
			}
			replayed = append(replayed, i)
		}
		undoA, undoB := &tagUndo{fn: replay}, &tagUndo{fn: replay}
		err := sys.Atomic(func(tx *stm.Tx) error {
			for i, b := range ops {
				i := i
				k := int64(b & 0x3f)
				op := Op[int64]{}
				engine := unsynced
				switch b >> 6 {
				case 0: // keyed call with inverse
					engine = keyed
					op.Demand = DemandKey
					op.Key = k
					undoA.log(tx, i)
					logged = append(logged, i)
					nInverses++
				case 1: // keyed call, read-only (lock, no log)
					engine = keyed
					op.Demand = DemandKey
					op.Key = k
					op.OnCommit = func() {
						if inBody {
							t.Error("OnCommit ran before outcome")
						}
						committed = append(committed, i)
					}
					nCommitFns++
				case 2: // pure disposable pair, no lock
					op.OnCommit = func() {
						if inBody {
							t.Error("OnCommit ran before outcome")
						}
						committed = append(committed, i)
					}
					op.OnAbort = func() {
						if inBody {
							t.Error("OnAbort ran before outcome")
						}
						aborted = append(aborted, i)
					}
					nCommitFns++
					nAbortFns++
				case 3: // inverse + abort disposable: disposal must follow replay
					if k&1 == 0 {
						undoB.log(tx, i)
					} else {
						Inverse(tx, func() { replay(i) })
					}
					op.OnAbort = func() {
						if inBody {
							t.Error("OnAbort ran before outcome")
						}
						aborted = append(aborted, i)
					}
					logged = append(logged, i)
					nInverses++
					nAbortFns++
				}
				engine.Apply(tx, op)
			}
			// No inverse or disposable may have run while the body was
			// still deciding the outcome.
			if len(replayed) != 0 || len(committed) != 0 || len(aborted) != 0 {
				t.Error("closure ran during transaction body")
			}
			inBody = false
			if commit {
				return nil
			}
			return errAbort
		})
		if commit {
			if err != nil {
				t.Fatalf("commit path errored: %v", err)
			}
			if len(replayed) != 0 {
				t.Fatalf("commit replayed %d inverses", len(replayed))
			}
			if len(aborted) != 0 {
				t.Fatalf("commit ran %d OnAbort disposables", len(aborted))
			}
			if len(committed) != nCommitFns {
				t.Fatalf("commit ran %d/%d OnCommit disposables", len(committed), nCommitFns)
			}
		} else {
			if err == nil {
				t.Fatal("abort path committed")
			}
			if len(committed) != 0 {
				t.Fatalf("abort ran %d OnCommit disposables", len(committed))
			}
			if len(aborted) != nAbortFns {
				t.Fatalf("abort ran %d/%d OnAbort disposables", len(aborted), nAbortFns)
			}
			if len(replayed) != nInverses {
				t.Fatalf("abort replayed %d/%d inverses", len(replayed), nInverses)
			}
			// The exact-reverse-order assertion: replay is the mirror image
			// of the logging sequence.
			for j, idx := range replayed {
				if want := logged[len(logged)-1-j]; idx != want {
					t.Fatalf("replay[%d] = descriptor %d, want %d (logged %v, replayed %v)",
						j, idx, want, logged, replayed)
				}
			}
		}
	})
}
