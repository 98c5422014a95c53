package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"tboost/internal/core"
	"tboost/internal/faultpoint"
	"tboost/internal/histories"
	"tboost/internal/stm"
)

// Lazy chaos: the same end-to-end guarantees as Run, demanded of the lazy
// discipline. A lazy transaction's reads are optimistic observations and its
// writes a pending log, so the recovery machinery under fault injection is
// different in kind from the eager runs: a fault mid-drain (the boost/
// lazy-drain site fires as commit acquires each fused op's lock) must abort
// by log truncation with the base untouched, and the history must stay
// strictly serializable even though in-flight reads never held locks.
//
// Each lazy structure also records its post-fusion op stream through a
// journal bound to the kernel object, and the run cross-checks that stream
// with histories.CheckOpLog: every drained op came from a committed
// transaction, applied effectively, and replays to the same final state as
// the method-call history.

// LazyDrainDoomSchedule arms the mid-drain failpoint with forced dooms — the
// contention manager kills the transaction after fusion, while commit holds
// some of the drain locks — plus background lock-registration timeouts.
func LazyDrainDoomSchedule() Schedule {
	return Schedule{
		{faultpoint.BoostLazyDrain, faultpoint.Trigger{Effect: faultpoint.Doom, EveryN: 7}},
		{faultpoint.LockRegistered, faultpoint.Trigger{Effect: faultpoint.Timeout, EveryN: 17}},
		{faultpoint.StmMidRollback, faultpoint.Trigger{Effect: faultpoint.Delay, Delay: 200 * time.Microsecond, EveryN: 5}},
	}
}

// LazyDrainTimeoutSchedule arms the mid-drain failpoint with forced lock
// timeouts — the drain's commit-instant acquisition loses its lock race —
// plus background pre-commit dooms, so both drain-abort paths interleave.
func LazyDrainTimeoutSchedule() Schedule {
	return Schedule{
		{faultpoint.BoostLazyDrain, faultpoint.Trigger{Effect: faultpoint.Timeout, EveryN: 5}},
		{faultpoint.StmPreCommit, faultpoint.Trigger{Effect: faultpoint.Doom, EveryN: 13}},
		{faultpoint.StmMidRollback, faultpoint.Trigger{Effect: faultpoint.Delay, Delay: 200 * time.Microsecond, EveryN: 5}},
	}
}

// RunLazy arms sched, drives the lazy keyed set and the lazy ordered set
// (whose range queries early-flush the pending log mid-transaction), disarms,
// and verifies histories, op logs, and quiescent base states.
func RunLazy(cfg Config, sched Schedule) Report {
	cfg = cfg.withDefaults()
	Disarm()
	sched.Arm()
	defer Disarm()

	rep := Report{}
	rep.Structures = append(rep.Structures,
		runLazySet(cfg),
		runLazyOrdered(cfg),
	)
	rep.Faults = faultpoint.Snapshot()
	return rep
}

// opJournal implements boost.Journal by buffering each transaction's emitted
// ops until the workload's AtCommit hook harvests them — mirroring how the
// WAL sink only persists tx.redo at commit, so ops from aborted transactions
// (possible when an early flush applied eagerly and the transaction later
// rolled back) are dropped, never leaked into the op log. Emit runs while the
// drain holds the op's abstract lock and AtCommit runs before lock release,
// so the harvested log is in serialization order.
type opJournal struct {
	obj string
	mu  sync.Mutex
	buf map[uint64][]histories.OpRec
	ops []histories.OpRec
}

func newOpJournal(obj string) *opJournal {
	return &opJournal{obj: obj, buf: map[uint64][]histories.OpRec{}}
}

// Begin and End carry the key through the journal's byte buffer, the way a
// codec-backed binding does; this journal keeps no bytes, only the op.
func (j *opJournal) Begin(_ *stm.Tx, key int64) []byte {
	return binary.AppendVarint(nil, key)
}

func (j *opJournal) End(tx *stm.Tx, kind uint8, buf []byte) {
	key, _ := binary.Varint(buf)
	method := "add"
	if kind == core.RedoRemove {
		method = "remove"
	}
	j.mu.Lock()
	j.buf[tx.ID()] = append(j.buf[tx.ID()], histories.OpRec{Tx: tx.ID(), Object: j.obj, Method: method, Key: key})
	j.mu.Unlock()
}

// harvest moves txID's buffered ops into the committed op log.
func (j *opJournal) harvest(txID uint64) {
	j.mu.Lock()
	j.ops = append(j.ops, j.buf[txID]...)
	delete(j.buf, txID)
	j.mu.Unlock()
}

func (j *opJournal) log() []histories.OpRec {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ops
}

// runLazySet drives the lazy skip-list set — all point ops, every mutation
// deferred to the pending log and drained at commit — and checks strict
// serializability, the post-fusion op log, and Theorem 5.4.
func runLazySet(cfg Config) StructureReport {
	set := core.NewLazySkipListSet()
	jn := newOpJournal("set")
	set.Engine().BindJournal(jn)
	rec := histories.NewRecorder()
	sys := newSystem(cfg)
	giveUp := errors.New("chaos: deliberate user abort")
	var shed atomic.Int64
	var fatal errOnce
	var wg sync.WaitGroup
	for g := 0; g < cfg.Goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(cfg.Seed+2, uint64(g)))
			for i := 0; i < cfg.TxPerG; i++ {
				fail := r.IntN(5) == 0
				ops := make([][2]int64, cfg.OpsPerTx)
				for j := range ops {
					ops[j] = [2]int64{int64(r.IntN(3)), int64(r.IntN(cfg.KeyRange))}
				}
				err := sys.Atomic(func(tx *stm.Tx) error {
					for _, op := range ops {
						k := op[1]
						switch op[0] {
						case 0:
							ok := set.Add(tx, k)
							rec.RecordCall(tx.ID(), "set", "add", []int64{k}, histories.Resp{OK: ok})
						case 1:
							ok := set.Remove(tx, k)
							rec.RecordCall(tx.ID(), "set", "remove", []int64{k}, histories.Resp{OK: ok})
						default:
							ok := set.Contains(tx, k)
							rec.RecordCall(tx.ID(), "set", "contains", []int64{k}, histories.Resp{OK: ok})
						}
					}
					if fail {
						return giveUp
					}
					tx.AtCommit(func() {
						jn.harvest(tx.ID())
						rec.Commit(tx.ID())
					})
					return nil
				})
				if err != nil && !errors.Is(err, giveUp) {
					if !shedable(err) {
						fatal.set(fmt.Errorf("lazy set worker: unexpected error: %w", err))
						return
					}
					shed.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	h := rec.History()
	out := StructureReport{Name: "lzset", Events: len(h), Shed: int(shed.Load()), Stats: sys.Stats()}
	if err := fatal.get(); err != nil {
		out.Err = err
		return out
	}
	out.Err = verifyLazySet(h, jn.log(), "set", func(k int64) bool { return set.Base().Contains(k) }, cfg.KeyRange)
	return out
}

// runLazyOrdered drives the lazy ordered set: point mutations defer, range
// queries early-flush the pending log mid-transaction and run under interval
// locks. Faults landing after a flush exercise the flush-undo path — the
// inverses revert the base and the restored pending entries are discarded
// with the transaction.
func runLazyOrdered(cfg Config) StructureReport {
	set := core.NewLazyOrderedSet()
	jn := newOpJournal("set")
	set.Engine().BindJournal(jn)
	rec := histories.NewRecorder()
	sys := newSystem(cfg)
	giveUp := errors.New("chaos: deliberate user abort")
	var shed atomic.Int64
	var fatal errOnce
	var wg sync.WaitGroup
	for g := 0; g < cfg.Goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(cfg.Seed+3, uint64(g)))
			for i := 0; i < cfg.TxPerG; i++ {
				fail := r.IntN(5) == 0
				ops := make([][2]int64, cfg.OpsPerTx)
				for j := range ops {
					ops[j] = [2]int64{int64(r.IntN(4)), int64(r.IntN(cfg.KeyRange))}
				}
				err := sys.Atomic(func(tx *stm.Tx) error {
					for _, op := range ops {
						k := op[1]
						switch op[0] {
						case 0:
							ok := set.Add(tx, k)
							rec.RecordCall(tx.ID(), "set", "add", []int64{k}, histories.Resp{OK: ok})
						case 1:
							ok := set.Remove(tx, k)
							rec.RecordCall(tx.ID(), "set", "remove", []int64{k}, histories.Resp{OK: ok})
						case 2:
							ok := set.Contains(tx, k)
							rec.RecordCall(tx.ID(), "set", "contains", []int64{k}, histories.Resp{OK: ok})
						default:
							hi := k + 4
							n := set.CountRange(tx, k, hi)
							rec.RecordCall(tx.ID(), "set", "countRange", []int64{k, hi}, histories.Resp{Val: int64(n), OK: true})
						}
					}
					if fail {
						return giveUp
					}
					tx.AtCommit(func() {
						jn.harvest(tx.ID())
						rec.Commit(tx.ID())
					})
					return nil
				})
				if err != nil && !errors.Is(err, giveUp) {
					if !shedable(err) {
						fatal.set(fmt.Errorf("lazy ordered worker: unexpected error: %w", err))
						return
					}
					shed.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	h := rec.History()
	out := StructureReport{Name: "lzord", Events: len(h), Shed: int(shed.Load()), Stats: sys.Stats()}
	if err := fatal.get(); err != nil {
		out.Err = err
		return out
	}
	out.Err = verifyLazySet(h, jn.log(), "set", func(k int64) bool { return set.Base().Contains(k) }, cfg.KeyRange+4)
	return out
}

// verifyLazySet runs the three lazy checks on a set history: strict
// serializability of the recorded calls, op-log conformance of the drained
// post-fusion stream, and Theorem 5.4 on the quiescent base.
func verifyLazySet(h histories.History, ops []histories.OpRec, obj string, baseContains func(int64) bool, keyRange int) error {
	specs := map[string]histories.Spec{obj: histories.SetSpec{}}
	if err := histories.CheckStrictSerializability(h, specs); err != nil {
		return err
	}
	if err := histories.CheckOpLog(h, ops, specs); err != nil {
		return err
	}
	finals, err := histories.FinalStates(h, specs)
	if err != nil {
		return err
	}
	for k := int64(0); k < int64(keyRange); k++ {
		want, _, _ := finals[obj].Apply("contains", []int64{k})
		if got := baseContains(k); got != want.OK {
			return fmt.Errorf("theorem 5.4 violated at key %d: base=%v history=%v", k, got, want.OK)
		}
	}
	return nil
}
