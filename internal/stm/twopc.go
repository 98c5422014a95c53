package stm

// Two-phase commit participant surface.
//
// A cross-System transaction is driven by a coordinator (internal/txncoord)
// as one branch per System. Prepare runs a branch exactly like Atomic runs a
// transaction — same retry loop, same eager effects and undo log — but stops
// at the brink of the commit point: after validation and the lazy drain, the
// branch's redo stream is force-logged as a prepare record (the vote), and
// the transaction parks in the Prepared state with its effects applied, its
// abstract locks held, and its undo log intact. The coordinator later
// resolves it with PreparedTx.Commit or PreparedTx.Abort.
//
// The protocol is presumed-abort: a prepare record with no decision marker
// means abort, so aborting costs no forced write anywhere, and a participant
// that never voted recovers for free. Only the coordinator's commit decision
// (and, as hygiene, each participant's commit marker) is logged.
//
// A prepared transaction is past its point of no return in one direction
// only: it can still be undone (the undo log is intact), but it can no
// longer lose a conflict — Commit ignores dooms. A contention manager that
// wounds a parked prepared transaction therefore stalls until its own lock
// timeout instead of making progress; that is the specified behaviour
// ("prepared transactions block conflicting traffic"), and the coordinator's
// decision latency bounds the stall.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"tboost/internal/faultpoint"
)

// ErrBackpressure is the cause wrapped under ErrContentionCollapse when a
// transaction is shed because the durability sink's write controller is
// more than MaxPending bytes behind. errors.Is matches both sentinels, so
// existing shed-handling (which tests ErrContentionCollapse) keeps working
// while callers that care can distinguish log overload from lock contention.
var ErrBackpressure = errors.New("stm: durability sink overloaded")

// ErrNoPreparedSink is returned by Prepare when the system has a durability
// sink that does not implement PreparedSink: a durable system must not run
// volatile branches of a durable span.
var ErrNoPreparedSink = errors.New("stm: durability sink does not support two-phase commit")

// ErrResolved is returned by PreparedTx.Commit when the transaction was
// already committed or aborted.
var ErrResolved = errors.New("stm: prepared transaction already resolved")

// OverloadSink extends DurabilitySink with a backpressure signal. When the
// configured sink implements it, the admission path sheds new mutating
// transactions (ErrContentionCollapse wrapping ErrBackpressure) while
// Overloaded reports true, instead of letting appenders queue behind a slow
// fsync under the log mutex.
type OverloadSink interface {
	DurabilitySink
	Overloaded() bool
}

// PreparedSink extends DurabilitySink with the two-phase-commit records.
//
// Prepare must force-log the branch's redo stream before returning — a yes
// vote that is not durable is a protocol violation (the coordinator may
// commit on its strength). Decide appends the decision marker; for a commit
// it returns the mode's usual durability barrier (awaited by PreparedTx
// after lock release), for an abort the marker is pure hygiene under
// presumed-abort and the error may be ignored. Both are called with the
// transaction's abstract locks held, preserving the log-order-equals-
// serialization-order invariant for conflicting transactions.
type PreparedSink interface {
	DurabilitySink
	Prepare(txID, gid uint64, ops []RedoOp) error
	Decide(txID, gid uint64, commit bool) (wait func() error, err error)
}

// PreparedTx is a transaction parked between the two phases: effects
// applied, abstract locks held, prepare record durable. Exactly one of
// Commit or Abort must eventually be called (by the coordinator, or by
// recovery's in-doubt resolution); until then every conflicting transaction
// blocks on its locks. PreparedTx is not safe for concurrent resolution
// from multiple goroutines racing Commit against Abort with different
// outcomes — the first resolver wins and the loser is a no-op.
type PreparedTx struct {
	sys         *System
	tx          *Tx
	gid         uint64
	sink        PreparedSink // nil for volatile and adopted transactions
	esh         *epochShard
	holdsActive bool
	commitSeq   uint64
	done        atomic.Bool
}

// GID returns the coordinator's global transaction ID for this branch.
func (p *PreparedTx) GID() uint64 { return p.gid }

// CommitSeq returns the commit sequence number assigned when the branch's
// version records were published: nonzero only after Commit, and only if the
// branch mutated a versioned object. Coordinators use it for matched-
// sequence read-only pinning.
func (p *PreparedTx) CommitSeq() uint64 { return p.commitSeq }

// Commit resolves the branch as committed: the decision marker enters the
// log, effects become permanent, versions publish, and the locks release.
// Dooms landed while parked are ignored — prepared is past the point where
// a contention manager may win. An error from the marker append (the log
// crashed mid-decision) leaves the transaction prepared for recovery to
// resolve; an error wrapped in ErrNotDurable means the commit is applied
// and the locks are released but the marker's fsync was never acknowledged.
func (p *PreparedTx) Commit() error {
	if !p.done.CompareAndSwap(false, true) {
		return ErrResolved
	}
	tx := p.tx
	var wait func() error
	if p.sink != nil {
		w, err := p.sink.Decide(tx.id, p.gid, true)
		if err != nil {
			p.done.Store(false)
			return err
		}
		wait = w
	}
	tx.status.Store(int32(Committed))
	if len(tx.vers) > 0 {
		tx.flushVersions()
	}
	p.commitSeq = tx.commitSeq
	for _, f := range tx.atCommit {
		f()
	}
	tx.atCommit = clearTail(tx.atCommit, 0)
	tx.dropUndo()
	tx.dropRedo()
	tx.clearLazy()
	tx.releaseLocks()
	tx.clearDisc()
	var derr error
	if wait != nil {
		// Post-release durability barrier, as in the one-phase commit path:
		// lock hold times stay independent of disk latency.
		derr = wait()
	}
	tx.settle(true)
	p.finish(true)
	if derr != nil {
		return fmt.Errorf("%w: %w", ErrNotDurable, derr)
	}
	return nil
}

// Abort resolves the branch as aborted: the undo log runs in reverse under
// the still-held locks (Lemma 5.2 — inverses need no new locks), locks
// release, and post-abort disposables run. Under presumed-abort the decision
// marker is appended as hygiene only; its absence already means abort.
func (p *PreparedTx) Abort() {
	if !p.done.CompareAndSwap(false, true) {
		return
	}
	tx := p.tx
	if p.sink != nil {
		p.sink.Decide(tx.id, p.gid, false) // best-effort; never awaited
	}
	tx.setCause(ErrAborted)
	tx.rollback()
	p.finish(false)
}

// finish retires the descriptor and the call's epoch/active accounting —
// held since Prepare so checkpoints and versioning activation wait for
// parked branches.
func (p *PreparedTx) finish(committed bool) {
	tx := p.tx
	s := p.sys
	if committed {
		s.stats.add(tx.id, cCommits)
		s.stats.countCommitAge(tx.id, tx.attempt)
	} else {
		s.stats.add(tx.id, cAborts)
		s.stats.countAbortKind(tx.id, ClassifyAbort(tx.Cause()))
	}
	p.esh.ended.Add(1)
	if p.holdsActive {
		s.active.Add(-1)
	}
	p.tx = nil
	tx.recycle()
}

// Prepare runs fn as one branch of cross-System transaction gid and parks it
// prepared. The retry loop matches Atomic's (aborted attempts roll back,
// back off, and rerun) up to the vote; a branch whose prepare record cannot
// be forced fails without retrying rather than spinning against a frozen
// log. On success the caller owns the returned PreparedTx and must resolve
// it; on error the branch left no trace.
func (s *System) Prepare(gid uint64, fn func(tx *Tx) error) (*PreparedTx, error) {
	return s.prepareWith(nil, gid, fn)
}

// PrepareCtx is Prepare honouring ctx: admission queueing, lock waits,
// backoff sleeps, and the between-attempt check all observe cancellation,
// so a coordinator's per-participant timeout bounds the vote round.
func (s *System) PrepareCtx(ctx context.Context, gid uint64, fn func(tx *Tx) error) (*PreparedTx, error) {
	return s.prepareWith(ctx, gid, fn)
}

func (s *System) prepareWith(ctx context.Context, gid uint64, fn func(tx *Tx) error) (*PreparedTx, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	var sink PreparedSink
	if s.cfg.Durability != nil {
		var ok bool
		if sink, ok = s.cfg.Durability.(PreparedSink); !ok {
			return nil, ErrNoPreparedSink
		}
	}
	if s.overload != nil && s.overload.Overloaded() {
		s.stats.add(0, cAdmissionRejects)
		return nil, fmt.Errorf("%w: %w", ErrContentionCollapse, ErrBackpressure)
	}
	if err := s.admit(ctx); err != nil {
		return nil, err
	}
	// The admission slot is released when Prepare returns either way: a
	// prepared branch parks for as long as the coordinator (or recovery)
	// takes, and holding a slot would let a few in-doubt transactions choke
	// the whole system's admission. The epoch shard and active counter ARE
	// held until resolution — checkpoints must not run over parked effects.
	defer s.releaseSlot()
	holdsActive := s.cfg.Durability != nil
	if holdsActive {
		s.active.Add(1)
	}
	esh := s.epochEnter(rand.Uint64())
	versLive := s.snaps.Active()
	parked := false
	defer func() {
		if !parked {
			esh.ended.Add(1)
			if holdsActive {
				s.active.Add(-1)
			}
		}
	}()

	tx := txPool.Get().(*Tx)
	var birth uint64
	for attempt := 0; ; attempt++ {
		id := txIDs.Add(1)
		if birth == 0 {
			birth = id
		}
		tx.resetAttempt(s, ctx, id, birth, attempt)
		tx.versLive = versLive
		s.stats.add(id, cStarts)
		aborted, err := s.runAttempt(tx, fn)
		if !aborted {
			if err != nil {
				s.stats.add(id, cUserAborts)
				tx.recycle()
				return nil, err
			}
			if tx.prepare(sink, gid) {
				parked = true
				return &PreparedTx{
					sys: s, tx: tx, gid: gid, sink: sink,
					esh: esh, holdsActive: holdsActive,
				}, nil
			}
			aborted = true
		}
		s.stats.add(id, cAborts)
		s.stats.countAbortKind(id, ClassifyAbort(tx.Cause()))
		if derr := tx.durErr; derr != nil {
			// The prepare force-log failed: the log is frozen (crashed or
			// I/O error), so retrying cannot succeed. The attempt has rolled
			// back; whether the prepare record reached disk is unknown, and
			// recovery's presumed-abort rule disposes of it either way.
			tx.durErr = nil
			tx.recycle()
			return nil, fmt.Errorf("stm: prepare not durable: %w", derr)
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				tx.recycle()
				return nil, err
			}
		}
		if s.cfg.MaxRetries > 0 && attempt+1 >= s.cfg.MaxRetries {
			tx.recycle()
			return nil, ErrTooManyRetries
		}
		if err := s.backoff(ctx, attempt, 0); err != nil {
			tx.recycle()
			return nil, err
		}
	}
}

// prepare is the first half of commit(): validation, the lazy drain, and the
// forced prepare record — everything up to but excluding the Committed
// store. On success the transaction is Prepared: effects applied, locks
// held, undo intact. On failure it has rolled back (a sink failure
// additionally lands in tx.durErr so the retry loop fails fast instead of
// spinning on a frozen log).
func (tx *Tx) prepare(sink PreparedSink, gid uint64) bool {
	if faultpoint.Hit(faultpoint.StmPreCommit) == faultpoint.Doom {
		tx.Doom()
	}
	if tx.doomed.Load() {
		tx.setCause(ErrDoomed)
		tx.rollback()
		return false
	}
	tx.status.Store(int32(Validating))
	if faultpoint.Hit(faultpoint.StmValidate) == faultpoint.FailValidation {
		tx.setCause(ErrInjectedValidation)
		tx.system.stats.add(tx.id, cValidationFailures)
		tx.rollback()
		return false
	}
	for _, f := range tx.onValidate {
		if err := f(); err != nil {
			tx.setCause(err)
			tx.system.stats.add(tx.id, cValidationFailures)
			tx.rollback()
			return false
		}
	}
	clear(tx.onValidate)
	tx.onValidate = tx.onValidate[:0]
	if len(tx.lazy) > 0 && !tx.drainLazy() {
		return false
	}
	if sink != nil {
		// The vote: force the redo stream to disk before reporting
		// prepared. Always logged, even with an empty redo stream, so every
		// branch of a durable span is resolvable from the log alone.
		if err := sink.Prepare(tx.id, gid, tx.redo); err != nil {
			tx.durErr = err
			tx.setCause(err)
			tx.rollback()
			return false
		}
	}
	tx.status.Store(int32(Prepared))
	return true
}

// AdoptPrepared reconstructs a prepared transaction from its logged state at
// recovery: relock must re-acquire the abstract locks the original held (the
// WAL drives it from the prepare record's ops through each object's
// journal binding). The adopted transaction has no undo log and no redo
// stream — its effects are NOT in the base (recovery replays only decided
// transactions) — so Abort merely releases the locks, and the WAL's in-doubt
// resolution replays the ops itself before calling Commit. Like Prepare, the
// adopted transaction holds the system's epoch shard and active counter
// until resolved, blocking checkpoints and conflicting traffic exactly as a
// live prepared transaction would.
func (s *System) AdoptPrepared(gid uint64, relock func(tx *Tx) error) (*PreparedTx, error) {
	holdsActive := s.cfg.Durability != nil
	if holdsActive {
		s.active.Add(1)
	}
	esh := s.epochEnter(rand.Uint64())
	tx := txPool.Get().(*Tx)
	id := txIDs.Add(1)
	tx.resetAttempt(s, nil, id, id, 0)
	tx.versLive = s.snaps.Active()
	aborted, err := s.runAttempt(tx, relock)
	if aborted || err != nil {
		if err == nil {
			if err = tx.Cause(); err == nil {
				err = ErrAborted
			}
		}
		esh.ended.Add(1)
		if holdsActive {
			s.active.Add(-1)
		}
		tx.recycle()
		return nil, fmt.Errorf("stm: adopt prepared gid %d: %w", gid, err)
	}
	tx.status.Store(int32(Prepared))
	return &PreparedTx{sys: s, tx: tx, gid: gid, esh: esh, holdsActive: holdsActive}, nil
}
