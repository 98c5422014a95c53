// Package txncoord coordinates two-phase commit across stm.Systems.
//
// A cross-System transaction (a "span") runs one branch per participating
// System. The coordinator drives the textbook presumed-abort protocol over
// the participant surface stm and the WAL expose:
//
//  1. Vote round: every branch runs under System.PrepareCtx, which executes
//     it eagerly (effects in the base, undo logged, abstract locks held) and
//     force-logs its redo stream as the prepare record — the yes vote. Each
//     participant gets a per-vote timeout, with bounded retries on the
//     retryable failures (admission shed, contention, timeout). Any no vote
//     aborts every prepared branch: under presumed-abort that costs no
//     forced write anywhere.
//  2. Decision: with every vote in hand, the coordinator force-logs the
//     commit decision in its own decision log. This write is the commit
//     point of the whole span — before it, a crash aborts the span
//     everywhere (no marker, presumed abort); after it, recovery finds the
//     decision and commits every in-doubt branch.
//  3. Notify: each prepared branch is committed (its marker enters the
//     participant's log, effects become permanent, locks release). A crash
//     between decision and notify leaves branches prepared; Recover resolves
//     them from the decision log.
//
// Branches hold their abstract locks from first effect to notify, so a span
// is serializable against one-System traffic and other spans by exactly the
// boosting argument: conflicting operations are excluded for the span's
// whole lifetime, commuting ones never needed ordering.
//
// Read-only spans skip the protocol entirely: ReadOnlySpan pins each
// participant's MVCC clock at or past the coordinator's high-water commit
// sequence for that participant. Because notify runs under the coordinator's
// mutex — a span publishes on every participant or on none while it is held
// — matched pins can never observe a span on one participant and miss it on
// another. No locks, no votes, no aborts.
package txncoord

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"tboost/internal/faultpoint"
	"tboost/internal/stm"
	"tboost/internal/wal"
)

// ErrCoordinatorCrashed is returned by Span when a coordinator faultpoint
// simulated a crash, and by later Spans on the same (now dead) coordinator.
// Prepared branches are deliberately left prepared — that is the crash being
// simulated — for a recovered coordinator to resolve.
var ErrCoordinatorCrashed = errors.New("txncoord: coordinator crashed (simulated)")

// Participant is one System a coordinator can span. Log is the System's
// durability sink when it has one (used for in-doubt resolution at
// recovery); nil for a volatile participant.
type Participant struct {
	Sys *stm.System
	Log *wal.Log
}

// Options configures a Coordinator.
type Options struct {
	// Dir is the decision log's directory. Empty runs the coordinator
	// volatile: decisions live only in memory, and a coordinator crash
	// aborts every in-flight span at recovery (presumed abort). Durable
	// coordinators survive their own crash: the decision log replays and
	// in-doubt participants resolve to the logged outcome.
	Dir string
	// PrepareTimeout bounds each participant's vote (admission, lock waits,
	// retries inside stm, and the prepare force-log). Zero means no bound.
	PrepareTimeout time.Duration
	// Retries is how many times a failed vote is re-solicited when the
	// failure is retryable (admission shed, contention collapse, retry
	// exhaustion, timeout). Zero votes once.
	Retries int
	// Backoff is the base sleep between vote retries, doubling per attempt.
	Backoff time.Duration
}

// decisionKind is the single op kind of the decision log's one object: a
// committed gid, payload uvarint(gid). Aborts are never logged — presumed
// abort applies to the coordinator's own log too.
const decisionKind uint8 = 1

// decisionSet is the decision log's Durable: the set of committed gids.
type decisionSet struct {
	mu        sync.Mutex
	committed map[uint64]bool
	maxGID    uint64
}

func (d *decisionSet) Replay(kind uint8, data []byte) error {
	if kind != decisionKind {
		return fmt.Errorf("txncoord: decision replay: unknown op kind %d", kind)
	}
	gid, n := binary.Uvarint(data)
	if n <= 0 || n != len(data) {
		return fmt.Errorf("txncoord: decision replay: bad gid payload")
	}
	d.mark(gid)
	return nil
}

func (d *decisionSet) Snapshot(emit func(kind uint8, data []byte) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for gid := range d.committed {
		if err := emit(decisionKind, binary.AppendUvarint(nil, gid)); err != nil {
			return err
		}
	}
	return nil
}

func (d *decisionSet) mark(gid uint64) {
	d.mu.Lock()
	d.committed[gid] = true
	if gid > d.maxGID {
		d.maxGID = gid
	}
	d.mu.Unlock()
}

func (d *decisionSet) isCommitted(gid uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.committed[gid]
}

// Coordinator drives spans over a fixed participant list. Methods are safe
// for concurrent use; concurrent Spans on disjoint footprints proceed in
// parallel through the vote round and serialize only through the short
// notify section.
type Coordinator struct {
	parts []Participant
	opts  Options

	dec   *decisionSet
	dlog  *wal.Log // nil when volatile
	decID uint32

	// mu orders notify rounds and read-only pinning: while held, every span
	// is either fully published on all its participants or on none.
	mu   sync.Mutex
	high []uint64 // per-participant high-water commit sequence

	gidMu   sync.Mutex
	nextGID uint64

	crashed bool
	crashMu sync.Mutex
}

// New opens a coordinator over parts. With a durable Options.Dir the
// decision log is recovered immediately (it has no in-doubt states of its
// own — it is a plain single-System log); participants' in-doubt branches
// are NOT resolved here — call Recover once every participant has been
// recovered and adopted.
func New(parts []Participant, opts Options) (*Coordinator, error) {
	if len(parts) == 0 {
		return nil, errors.New("txncoord: no participants")
	}
	c := &Coordinator{
		parts: parts,
		opts:  opts,
		dec:   &decisionSet{committed: map[uint64]bool{}},
		high:  make([]uint64, len(parts)),
	}
	if opts.Dir != "" {
		dlog, err := wal.Open(wal.Options{Dir: opts.Dir, Mode: wal.Group})
		if err != nil {
			return nil, err
		}
		b, err := wal.Bind(dlog, "decisions", wal.Uint64Codec, c.dec)
		if err != nil {
			dlog.Close()
			return nil, err
		}
		c.decID = b.ID()
		if _, err := dlog.Recover(); err != nil {
			dlog.Close()
			return nil, err
		}
		c.dlog = dlog
	}
	c.nextGID = c.dec.maxGID
	return c, nil
}

// Close closes the decision log. Outstanding spans must have completed.
func (c *Coordinator) Close() error {
	if c.dlog != nil {
		return c.dlog.Close()
	}
	return nil
}

// Branch is one participant's part of a span. It runs under that System's
// usual transactional discipline (eager effects, undo, abstract locks,
// retries) and is told the span's gid.
type Branch func(tx *stm.Tx, gid uint64) error

// Span runs one cross-System transaction: branches[i] on participant i, nil
// meaning not participating. It returns the span's gid and nil once every
// branch is durably committed; any vote failure aborts the whole span and
// returns the first failure. An error wrapping ErrCoordinatorCrashed or a
// decision-log failure means the span's outcome is owned by recovery:
// branches were left prepared, and Recover on a reopened coordinator settles
// them (commit iff the decision record survived).
func (c *Coordinator) Span(branches ...Branch) (uint64, error) {
	if len(branches) != len(c.parts) {
		return 0, fmt.Errorf("txncoord: Span got %d branches for %d participants", len(branches), len(c.parts))
	}
	c.crashMu.Lock()
	dead := c.crashed
	c.crashMu.Unlock()
	if dead {
		return 0, ErrCoordinatorCrashed
	}
	c.gidMu.Lock()
	c.nextGID++
	gid := c.nextGID
	c.gidMu.Unlock()

	// Vote round: all branches in parallel, each with its own timeout and
	// retry budget.
	ptxs := make([]*stm.PreparedTx, len(branches))
	errs := make([]error, len(branches))
	var wg sync.WaitGroup
	for i, fn := range branches {
		if fn == nil {
			continue
		}
		wg.Add(1)
		go func(i int, fn Branch) {
			defer wg.Done()
			ptxs[i], errs[i] = c.prepareOne(i, gid, fn)
		}(i, fn)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		// A no vote: abort every branch that did prepare. Presumed abort
		// makes this free of forced writes on every log.
		for _, p := range ptxs {
			if p != nil {
				p.Abort()
			}
		}
		return gid, fmt.Errorf("txncoord: span %d: participant %d voted no: %w", gid, i, err)
	}

	// Decision point. A crash here is PRE-decision: no marker anywhere, so
	// recovery presumes abort for every prepared branch.
	if faultpoint.Hit(faultpoint.TwopcPreDecision) == faultpoint.Crash {
		c.die()
		return gid, ErrCoordinatorCrashed
	}
	if err := c.logDecision(gid); err != nil {
		// The decision never became durable; the span's branches stay
		// prepared and recovery presumes abort.
		c.die()
		return gid, fmt.Errorf("txncoord: span %d: decision log: %w", gid, err)
	}
	// POST-decision, pre-notify: the span IS committed — the decision record
	// is durable — but no participant knows. Recovery must finish the job.
	if faultpoint.Hit(faultpoint.TwopcPostDecision) == faultpoint.Crash {
		c.die()
		return gid, ErrCoordinatorCrashed
	}

	// Notify round, under mu: a concurrent ReadOnlySpan sees this span on
	// every participant or on none.
	c.mu.Lock()
	defer c.mu.Unlock()
	var nerr error
	for i, p := range ptxs {
		if p == nil {
			continue
		}
		if err := p.Commit(); err != nil && nerr == nil {
			nerr = fmt.Errorf("participant %d: %w", i, err)
		}
		if s := p.CommitSeq(); s > c.high[i] {
			c.high[i] = s
		}
	}
	if nerr != nil {
		// Decided and (at least partially) applied, but some participant's
		// acknowledgment failed: the span may appear whole only after that
		// participant recovers. Not an abort — the decision stands.
		return gid, fmt.Errorf("txncoord: span %d committed but not fully acknowledged: %w", gid, nerr)
	}
	return gid, nil
}

func (c *Coordinator) die() {
	c.crashMu.Lock()
	c.crashed = true
	c.crashMu.Unlock()
}

// prepareOne solicits participant i's vote with timeout and retry.
func (c *Coordinator) prepareOne(i int, gid uint64, fn Branch) (*stm.PreparedTx, error) {
	sys := c.parts[i].Sys
	body := func(tx *stm.Tx) error { return fn(tx, gid) }
	for attempt := 0; ; attempt++ {
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if c.opts.PrepareTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, c.opts.PrepareTimeout)
		}
		ptx, err := sys.PrepareCtx(ctx, gid, body)
		cancel()
		if err == nil {
			return ptx, nil
		}
		if attempt >= c.opts.Retries || !retryable(err) {
			return nil, err
		}
		if c.opts.Backoff > 0 {
			time.Sleep(c.opts.Backoff << uint(attempt))
		}
	}
}

// retryable reports whether a vote failure is worth re-soliciting: transient
// overload and contention outcomes, not user errors or frozen logs.
func retryable(err error) bool {
	return errors.Is(err, stm.ErrContentionCollapse) ||
		errors.Is(err, stm.ErrTooManyRetries) ||
		errors.Is(err, context.DeadlineExceeded)
}

// logDecision makes the commit decision durable (the span's commit point),
// then publishes it in memory. Order matters: a decision visible in memory
// but absent from the log could commit a span that a post-crash recovery
// aborts.
func (c *Coordinator) logDecision(gid uint64) error {
	if c.dlog != nil {
		// The log encodes the op before Commit returns and keeps nothing, so
		// the record is built on the stack.
		var key [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(key[:], gid)
		ops := [1]stm.RedoOp{{Obj: c.decID, Kind: decisionKind, Data: key[:n]}}
		wait := c.dlog.Commit(gid, ops[:])
		if wait != nil {
			if err := wait(); err != nil {
				return err
			}
		}
	}
	c.dec.mark(gid)
	return nil
}

// LogStats snapshots the decision log's counters (zero when volatile) —
// benchmarks charge a span's forced decision write against them.
func (c *Coordinator) LogStats() wal.Stats {
	if c.dlog == nil {
		return wal.Stats{}
	}
	return c.dlog.Stats()
}

// Decided returns every gid with a committed decision, unordered — the
// audit surface for crash harnesses reconstructing "what was promised".
func (c *Coordinator) Decided() []uint64 {
	c.dec.mu.Lock()
	defer c.dec.mu.Unlock()
	out := make([]uint64, 0, len(c.dec.committed))
	for gid := range c.dec.committed {
		out = append(out, gid)
	}
	return out
}

// Recover resolves every participant's in-doubt branches against the
// decision log: committed iff the decision record survived, else presumed
// abort. It adopts unadopted in-doubt transactions first (idempotent), so
// the usual sequence is: recover each participant's log, build its System,
// then New + Recover here, then serve traffic. Recover also advances the gid
// counter past every gid it saw, so reopened coordinators never reuse one.
func (c *Coordinator) Recover() error {
	for _, p := range c.parts {
		if p.Log == nil {
			continue
		}
		if err := p.Log.AdoptInDoubt(p.Sys); err != nil {
			return err
		}
		for _, in := range p.Log.InDoubt() {
			c.gidMu.Lock()
			if in.GID > c.nextGID {
				c.nextGID = in.GID
			}
			c.gidMu.Unlock()
			if err := p.Log.ResolveInDoubt(in.GID, c.dec.isCommitted(in.GID)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ROSpan is a read-only cross-System span: one pinned snapshot per
// participant, taken at matched sequences. Reads run lock-free against
// version chains — zero abstract-lock demands, zero aborts — and mutually
// consistent across participants (see the package comment's argument).
type ROSpan struct {
	snaps []*stm.Snapshot
}

// ReadOnlySpan pins every participant at (or past) the coordinator's
// high-water commit sequence for it. The caller must Close the span.
func (c *Coordinator) ReadOnlySpan() *ROSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	snaps := make([]*stm.Snapshot, len(c.parts))
	for i, p := range c.parts {
		snaps[i] = p.Sys.OpenSnapshotAtLeast(c.high[i])
	}
	return &ROSpan{snaps: snaps}
}

// Atomic runs fn as a read-only transaction on participant i's snapshot.
func (r *ROSpan) Atomic(i int, fn func(tx *stm.Tx) error) error {
	return r.snaps[i].Atomic(fn)
}

// Seqs returns the pinned sequence per participant, for tests and stats.
func (r *ROSpan) Seqs() []uint64 {
	out := make([]uint64, len(r.snaps))
	for i, sn := range r.snaps {
		out[i] = sn.Seq()
	}
	return out
}

// Close releases every pin. Idempotent per snapshot.
func (r *ROSpan) Close() {
	for _, sn := range r.snaps {
		sn.Close()
	}
}
