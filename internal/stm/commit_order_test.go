package stm_test

// Ordering pins for the durability path. The WAL's correctness rests on
// commit-time sequencing guarantees that nothing else in the test suite
// nails down explicitly:
//
//  1. when the DurabilitySink's Commit runs, every Redo op of the
//     transaction is present, in emission order, and the AtCommit handlers
//     have already run (the sink sees the final redo stream);
//  2. the sink runs before lock release and before OnCommit disposables,
//     and its wait (the durability barrier) completes before the outcome
//     reaches the caller;
//  3. an aborting transaction never reaches the sink;
//  4. a rolled-back nested child contributes nothing to the redo stream;
//  5. a failing barrier surfaces as ErrNotDurable while the commit stands;
//  6. the redo arena behind the ops' Data views never shows a sink bytes
//     that are not the committing transaction's own: not a rolled-back
//     child's, not a sibling Parallel branch's torn write, not the
//     descriptor's previous life.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"tboost/internal/stm"
)

// redo emits one forward op the way a journal binding does: data is encoded
// into the buffer RedoBegin lends and handed back through RedoEnd.
func redo(tx *stm.Tx, obj uint32, kind uint8, data ...byte) {
	tx.RedoEnd(obj, kind, append(tx.RedoBegin(), data...))
}

// captureSink records what it is handed and when, and can fail its barrier.
type captureSink struct {
	calls   [][]stm.RedoOp
	txIDs   []uint64
	seq     *[]string // shared event sequence, appended under the caller's control
	waitErr error
}

func (s *captureSink) Commit(txID uint64, ops []stm.RedoOp) func() error {
	cp := make([]stm.RedoOp, len(ops))
	for i, op := range ops {
		cp[i] = stm.RedoOp{Obj: op.Obj, Kind: op.Kind, Data: append([]byte(nil), op.Data...)}
	}
	s.calls = append(s.calls, cp)
	s.txIDs = append(s.txIDs, txID)
	if s.seq != nil {
		*s.seq = append(*s.seq, "sink")
	}
	return func() error {
		if s.seq != nil {
			*s.seq = append(*s.seq, "wait")
		}
		return s.waitErr
	}
}

func TestSinkSeesAllPriorOpsInOrder(t *testing.T) {
	var seq []string
	sink := &captureSink{seq: &seq}
	sys := stm.NewSystem(stm.Config{Durability: sink})

	err := sys.Atomic(func(tx *stm.Tx) error {
		redo(tx, 1, 1, 10)
		tx.AtCommit(func() {
			// AtCommit runs at the commit point; an op emitted here (as a
			// commit-time touch-up would) must still reach the sink.
			seq = append(seq, "atCommit")
			redo(tx, 1, 2, 11)
		})
		tx.OnCommit(func() { seq = append(seq, "onCommit") })
		redo(tx, 2, 1, 12)
		return nil
	})
	if err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if len(sink.calls) != 1 {
		t.Fatalf("sink called %d times, want 1", len(sink.calls))
	}
	ops := sink.calls[0]
	if len(ops) != 3 || ops[0].Data[0] != 10 || ops[1].Data[0] != 12 || ops[2].Data[0] != 11 {
		t.Fatalf("sink saw %+v, want emission order 10,12,11", ops)
	}
	want := []string{"atCommit", "sink", "wait", "onCommit"}
	if len(seq) != len(want) {
		t.Fatalf("sequence = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", seq, want)
		}
	}
}

func TestSinkRunsBeforeLockRelease(t *testing.T) {
	// The log's replay-order argument needs conflicting transactions to
	// enter the sink in serialization order, which holds iff the sink runs
	// under the transaction's abstract locks. Pin it directly: a lock
	// registered with the transaction must still be held (unreleased) when
	// the sink runs.
	released := false
	sink := &captureSink{}
	probe := &orderProbe{sink: sink, released: &released}
	sys := stm.NewSystem(stm.Config{Durability: probe})

	err := sys.Atomic(func(tx *stm.Tx) error {
		redo(tx, 1, 1)
		// Locks release in reverse registration order after the sink call;
		// model one with the exported registration hook.
		tx.RegisterLock(markUnlocker{released: &released})
		return nil
	})
	if err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if !probe.sawHeld {
		t.Fatal("sink ran after lock release")
	}
	if !released {
		t.Fatal("lock never released")
	}
}

type markUnlocker struct{ released *bool }

func (m markUnlocker) Unlock(*stm.Tx) { *m.released = true }

type orderProbe struct {
	sink     *captureSink
	released *bool
	sawHeld  bool
}

func (p *orderProbe) Commit(txID uint64, ops []stm.RedoOp) func() error {
	p.sawHeld = !*p.released
	return p.sink.Commit(txID, ops)
}

func TestAbortNeverReachesSink(t *testing.T) {
	sink := &captureSink{}
	sys := stm.NewSystem(stm.Config{Durability: sink})
	boom := errors.New("boom")
	if err := sys.Atomic(func(tx *stm.Tx) error {
		redo(tx, 1, 1)
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if len(sink.calls) != 0 {
		t.Fatalf("sink called on abort: %+v", sink.calls)
	}
	// The descriptor is recycled; the next transaction must not inherit the
	// aborted one's redo ops.
	if err := sys.Atomic(func(tx *stm.Tx) error {
		redo(tx, 2, 2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(sink.calls) != 1 || len(sink.calls[0]) != 1 || sink.calls[0][0].Obj != 2 {
		t.Fatalf("stale redo leaked into next tx: %+v", sink.calls)
	}
}

func TestNestedRollbackDropsChildRedo(t *testing.T) {
	sink := &captureSink{}
	sys := stm.NewSystem(stm.Config{Durability: sink})
	childErr := errors.New("child")
	err := sys.Atomic(func(tx *stm.Tx) error {
		redo(tx, 1, 1, 0xa1, 0xa2)
		if err := tx.Nested(func(tx *stm.Tx) error {
			redo(tx, 1, 2, bytes.Repeat([]byte{0xb2}, 300)...) // regrows the arena
			redo(tx, 1, 3, 0xc3)
			return childErr
		}); !errors.Is(err, childErr) {
			return err
		}
		if n, size := tx.RedoLen(); n != 1 || size != 2 {
			t.Errorf("RedoLen after child rollback = %d ops, %d bytes; want 1 op, 2 bytes (the child's bytes leave the arena too)", n, size)
		}
		redo(tx, 1, 4, 0xd4)
		return nil
	})
	if err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	ops := sink.calls[0]
	if len(ops) != 2 || ops[0].Kind != 1 || ops[1].Kind != 4 {
		t.Fatalf("sink saw %+v, want kinds 1,4 only", ops)
	}
	// The parent's first op kept its bytes through the child's regrowth of
	// the arena, and the op after the rollback reuses the child's space.
	if !bytes.Equal(ops[0].Data, []byte{0xa1, 0xa2}) || !bytes.Equal(ops[1].Data, []byte{0xd4}) {
		t.Fatalf("sink saw data %x / %x, want a1a2 / d4", ops[0].Data, ops[1].Data)
	}
}

func TestParallelBranchesEmitWholeOps(t *testing.T) {
	// Two branches emit concurrently into one redo stream. Every op must
	// reach the sink whole — its own bytes, none of a sibling's — and the
	// owner's pre-Parallel op must survive the branches' arena growth.
	const perBranch = 200
	sink := &captureSink{}
	sys := stm.NewSystem(stm.Config{Durability: sink})
	branch := func(id byte) func(tx *stm.Tx) error {
		return func(tx *stm.Tx) error {
			for i := 0; i < perBranch; i++ {
				redo(tx, uint32(id), 1, bytes.Repeat([]byte{id}, 1+i%32)...)
			}
			return nil
		}
	}
	if err := sys.Atomic(func(tx *stm.Tx) error {
		redo(tx, 9, 9, 0x99)
		return tx.Parallel(branch(1), branch(2))
	}); err != nil {
		t.Fatal(err)
	}
	ops := sink.calls[0]
	if len(ops) != 1+2*perBranch || !bytes.Equal(ops[0].Data, []byte{0x99}) {
		t.Fatalf("sink saw %d ops, first %x; want %d, first 99", len(ops), ops[0].Data, 1+2*perBranch)
	}
	seen := map[uint32]int{}
	for _, op := range ops[1:] {
		i := seen[op.Obj]
		seen[op.Obj]++
		if want := bytes.Repeat([]byte{byte(op.Obj)}, 1+i%32); !bytes.Equal(op.Data, want) {
			t.Fatalf("branch %d op %d: data %x, want %x", op.Obj, i, op.Data, want)
		}
	}
}

func TestRecycledDescriptorNeverShowsStaleRedoBytes(t *testing.T) {
	// Descriptors are pooled and the arena is reused in place, so this is
	// the test that the reuse is invisible: across commits, aborts and one
	// transaction large enough to be dropped rather than kept, every sink
	// call sees exactly the bytes its own transaction emitted.
	sink := &captureSink{}
	sys := stm.NewSystem(stm.Config{Durability: sink})
	boom := errors.New("boom")
	for i := 0; i < 64; i++ {
		size := 1 + i%7
		if i == 20 {
			size = 16 << 10 // past what a pooled descriptor keeps
		}
		want := bytes.Repeat([]byte{byte(i)}, size)
		abort := i%5 == 4
		calls := len(sink.calls)
		err := sys.Atomic(func(tx *stm.Tx) error {
			if n, b := tx.RedoLen(); n != 0 || b != 0 {
				return fmt.Errorf("tx %d began with %d redo ops, %d arena bytes", i, n, b)
			}
			redo(tx, 1, 1, want...)
			redo(tx, 1, 2, want[:1]...)
			if abort {
				return boom
			}
			return nil
		})
		if abort {
			if !errors.Is(err, boom) || len(sink.calls) != calls {
				t.Fatalf("tx %d: err %v, sink calls %d→%d", i, err, calls, len(sink.calls))
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		ops := sink.calls[len(sink.calls)-1]
		if len(ops) != 2 || !bytes.Equal(ops[0].Data, want) || !bytes.Equal(ops[1].Data, want[:1]) {
			t.Fatalf("tx %d: sink saw %d ops, data %x…; want %x…", i, len(ops), ops[0].Data[:1], want[:1])
		}
	}
}

func TestFailedBarrierSurfacesErrNotDurable(t *testing.T) {
	cause := errors.New("disk gone")
	sink := &captureSink{waitErr: cause}
	sys := stm.NewSystem(stm.Config{Durability: sink})
	committed := false
	err := sys.Atomic(func(tx *stm.Tx) error {
		redo(tx, 1, 1)
		tx.OnCommit(func() { committed = true })
		return nil
	})
	if !errors.Is(err, stm.ErrNotDurable) || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want ErrNotDurable wrapping the cause", err)
	}
	if !committed {
		t.Fatal("OnCommit skipped: the tx DID commit in memory")
	}
	if got := sys.Stats().Commits; got != 1 {
		t.Fatalf("Commits = %d, want 1 (not-durable still commits)", got)
	}
	// The failure must not stick to the recycled descriptor.
	if err := sys.Atomic(func(tx *stm.Tx) error { return nil }); err != nil {
		t.Fatalf("next tx inherited durability failure: %v", err)
	}
}

func TestReadOnlyTxSkipsSink(t *testing.T) {
	sink := &captureSink{}
	sys := stm.NewSystem(stm.Config{Durability: sink})
	if err := sys.Atomic(func(tx *stm.Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(sink.calls) != 0 {
		t.Fatalf("read-only tx reached the sink: %+v", sink.calls)
	}
}
