package wal

// Two-phase-commit records and in-doubt recovery.
//
// The log implements stm.PreparedSink with two record shapes on top of the
// ordinary commit record:
//
//   - A prepare record: a meta op (metaObj, metaPrepare, uvarint gid)
//     followed by the branch's redo ops. Force-fsynced before Prepare
//     returns — the record IS the yes vote, and a vote that is not durable
//     would let the coordinator commit on air.
//   - A decision marker: a single meta op (metaObj, metaCommit/metaAbort,
//     uvarint gid). Commit markers ride the mode's normal group barrier;
//     abort markers are hygiene only — under presumed-abort the *absence*
//     of a commit marker already means abort, which is what makes aborts
//     free of forced writes.
//
// Recovery replays a prepared transaction's ops at its commit marker's
// position, not at the prepare record's: between the two the original held
// its abstract locks, so every intervening record commutes with it and log
// order remains a legal replay order (the same argument as the package
// comment's, applied to the prepare-to-decision window). A prepare with no
// marker is in-doubt: it is not replayed, and the log exposes it via
// InDoubt for the coordinator's recovery to resolve — after AdoptInDoubt
// has re-acquired its abstract locks so conflicting traffic blocks exactly
// as it did before the crash.
//
// Checkpoints interact safely by construction: stm's active counter includes
// prepared transactions, and Checkpoint requires quiescence, so a checkpoint
// boundary can never fall between a prepare record and its decision marker.

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"tboost/internal/faultpoint"
	"tboost/internal/stm"
)

// metaObj is the reserved object ID of two-phase-commit meta ops. Real
// object IDs are registration indices counted from zero, so the top of the
// ID space can never collide with one.
const metaObj = ^uint32(0)

// Meta op kinds, in metaObj's opcode namespace.
const (
	metaPrepare uint8 = 1
	metaCommit  uint8 = 2
	metaAbort   uint8 = 3
)

// metaOf decodes a record's leading meta op, if it has one.
func metaOf(rec Record) (gid uint64, kind uint8, ok bool) {
	if len(rec.Ops) == 0 || rec.Ops[0].Obj != metaObj {
		return 0, 0, false
	}
	gid, n := binary.Uvarint(rec.Ops[0].Data)
	if n <= 0 {
		return 0, 0, false
	}
	return gid, rec.Ops[0].Kind, true
}

// twopcState is the log's in-doubt bookkeeping: prepared-but-undecided
// transactions found by Recover, and the adopted lock holders standing in
// for them until a decision arrives.
type twopcState struct {
	mu      sync.Mutex
	inDoubt map[uint64]*inDoubtRec
	adopted map[uint64]*adoption
}

type inDoubtRec struct {
	gid  uint64
	txID uint64
	lsn  uint64
	ops  []Op
}

type adoption struct {
	ptx   *stm.PreparedTx
	rec   *inDoubtRec
	timer *time.Timer // presumed-abort deadline, when configured
}

// Prepare implements stm.PreparedSink: it force-logs the branch's redo
// stream under a prepare meta op. The record is fsynced before Prepare
// returns regardless of mode — this is the participant's vote. The two
// crash sites bracket the force: TwopcPrePrepare kills the participant with
// nothing logged (presumed abort recovers it for free), TwopcPostPrepare
// kills it with a durable prepare whose vote the coordinator never heard
// (the classic in-doubt transaction).
func (l *Log) Prepare(txID, gid uint64, ops []stm.RedoOp) error {
	if l.opts.Mode == Off {
		return nil
	}
	if faultpoint.Hit(faultpoint.TwopcPrePrepare) == faultpoint.Crash {
		l.crash()
		return ErrCrashed
	}
	l.commits.Add(1)
	if err := l.appendForced(txID, meta{metaPrepare, gid}, ops); err != nil {
		return err
	}
	if faultpoint.Hit(faultpoint.TwopcPostPrepare) == faultpoint.Crash {
		l.crash()
		return ErrCrashed
	}
	return nil
}

// Decide implements stm.PreparedSink: it appends the decision marker for
// gid. A commit marker returns the mode's usual durability barrier (the
// runtime awaits it after lock release); an abort marker is presumed-abort
// hygiene and returns no barrier. TwopcPreApply simulates a participant
// dying after the coordinator decided commit but before this participant
// recorded (or applied) it — the span is then half-notified, and recovery
// must commit the in-doubt half from the coordinator's decision log.
func (l *Log) Decide(txID, gid uint64, commit bool) (wait func() error, err error) {
	if l.opts.Mode == Off {
		return nil, nil
	}
	if commit && faultpoint.Hit(faultpoint.TwopcPreApply) == faultpoint.Crash {
		l.crash()
		return nil, ErrCrashed
	}
	kind := metaAbort
	if commit {
		kind = metaCommit
	}
	lsn, err := l.append(txID, meta{kind, gid}, nil)
	if !commit {
		return nil, nil
	}
	return l.barrier(lsn, err, l.opts.Mode == Group), nil
}

// appendForced appends one record and waits for its fsync whatever the mode.
func (l *Log) appendForced(txID uint64, m meta, ops []stm.RedoOp) error {
	lsn, err := l.append(txID, m, ops)
	if err != nil {
		return err
	}
	return l.awaitDurable(lsn)
}

// InDoubtTx is one prepared-but-undecided transaction surviving in the log.
type InDoubtTx struct {
	GID  uint64 // the coordinator's global transaction ID
	TxID uint64 // the original runtime transaction ID
	LSN  uint64 // the prepare record's LSN
	Ops  []Op   // the branch's redo ops (meta op stripped)
}

// InDoubt lists the prepared-but-undecided transactions Recover found, in
// LSN order, minus any already resolved. The coordinator's recovery walks
// this list and calls ResolveInDoubt per entry.
func (l *Log) InDoubt() []InDoubtTx {
	l.twopc.mu.Lock()
	defer l.twopc.mu.Unlock()
	out := make([]InDoubtTx, 0, len(l.twopc.inDoubt))
	for _, r := range l.twopc.inDoubt {
		out = append(out, InDoubtTx{GID: r.gid, TxID: r.txID, LSN: r.lsn, Ops: r.ops})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LSN < out[j].LSN })
	return out
}

// Relocker is the optional extension of Durable that re-acquires the
// abstract lock of one logged op on behalf of an adopted in-doubt
// transaction. The core durable adapters implement it by decoding the op's
// key and issuing the same keyed demand the original call made; objects
// without it cannot host in-doubt recovery (AdoptInDoubt fails).
type Relocker interface {
	Relock(tx *stm.Tx, kind uint8, data []byte) error
}

// AdoptInDoubt re-acquires the abstract locks of every in-doubt transaction
// under an adopted prepared transaction on sys. Call it after Recover and
// before serving traffic: the locks then block conflicting transactions —
// which must not observe or overwrite state a pending commit may still
// claim — until ResolveInDoubt learns each decision, exactly as the
// original prepared transactions did before the crash. In-doubt lock sets
// are mutually disjoint (they were all simultaneously held when the process
// died), so adoption order cannot deadlock.
//
// With Options.InDoubtDeadline set, each adopted transaction is also given
// a presumed-abort timer: if no decision arrives in time it resolves as
// aborted, bounding how long an unreachable coordinator can block traffic.
func (l *Log) AdoptInDoubt(sys *stm.System) error {
	l.twopc.mu.Lock()
	recs := make([]*inDoubtRec, 0, len(l.twopc.inDoubt))
	for gid, r := range l.twopc.inDoubt {
		if _, dup := l.twopc.adopted[gid]; dup {
			continue // already adopted: AdoptInDoubt is idempotent
		}
		recs = append(recs, r)
	}
	l.twopc.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].lsn < recs[j].lsn })
	for _, rec := range recs {
		rec := rec
		ptx, err := sys.AdoptPrepared(rec.gid, func(tx *stm.Tx) error {
			for _, op := range rec.ops {
				if int(op.Obj) >= len(l.objs) {
					return fmt.Errorf("wal: in-doubt gid %d references unregistered object %d", rec.gid, op.Obj)
				}
				rl, ok := l.objs[op.Obj].obj.(Relocker)
				if !ok {
					return fmt.Errorf("wal: object %q cannot relock in-doubt ops", l.objs[op.Obj].name)
				}
				if err := rl.Relock(tx, op.Kind, op.Data); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		ad := &adoption{ptx: ptx, rec: rec}
		l.twopc.mu.Lock()
		l.twopc.adopted[rec.gid] = ad
		if d := l.opts.InDoubtDeadline; d > 0 {
			gid := rec.gid
			ad.timer = time.AfterFunc(d, func() { l.ResolveInDoubt(gid, false) })
		}
		l.twopc.mu.Unlock()
	}
	return nil
}

// ResolveInDoubt settles one adopted in-doubt transaction with the
// coordinator's decision. Abort releases the adopted locks and appends the
// hygiene marker — nothing was ever applied, so there is nothing to undo.
// Commit forces the commit marker FIRST and only then applies the logged
// ops and releases the locks: if the process dies mid-apply, the next
// recovery sees prepare + marker and replays the ops over the from-scratch
// base — the marker-before-apply order makes the resolution idempotent
// across crashes. Resolving an unknown (or already-resolved) gid returns an
// error, which the presumed-abort timer path ignores by design.
func (l *Log) ResolveInDoubt(gid uint64, commit bool) error {
	l.twopc.mu.Lock()
	ad, ok := l.twopc.adopted[gid]
	if !ok {
		l.twopc.mu.Unlock()
		return fmt.Errorf("wal: gid %d is not an adopted in-doubt transaction", gid)
	}
	delete(l.twopc.adopted, gid)
	delete(l.twopc.inDoubt, gid)
	if ad.timer != nil {
		ad.timer.Stop()
	}
	l.twopc.mu.Unlock()

	if !commit {
		l.append(ad.rec.txID, meta{metaAbort, gid}, nil) // presumed-abort hygiene: best effort
		ad.ptx.Abort()
		return nil
	}
	if err := l.appendForced(ad.rec.txID, meta{metaCommit, gid}, nil); err != nil {
		// The marker never became durable (the log froze again): put the
		// transaction back so a later resolution pass can retry.
		l.twopc.mu.Lock()
		l.twopc.adopted[gid] = ad
		l.twopc.inDoubt[gid] = ad.rec
		l.twopc.mu.Unlock()
		return err
	}
	for _, op := range ad.rec.ops {
		if err := l.objs[op.Obj].obj.Replay(op.Kind, op.Data); err != nil {
			return fmt.Errorf("wal: in-doubt apply gid %d obj %q: %w", gid, l.objs[op.Obj].name, err)
		}
	}
	return ad.ptx.Commit()
}
