package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tboost/internal/faultpoint"
	"tboost/internal/stm"
)

// Mode selects what a durability acknowledgment means.
type Mode int

const (
	// Off: Commit is a no-op. The sink can stay configured (benchmarks
	// sweep modes through one surface) while costing only the nil-check in
	// stm's commit path plus an interface call.
	Off Mode = iota
	// Async: records are appended and fsynced in the background; Commit
	// never waits. An acknowledgment means "committed in memory"; a crash
	// may lose a suffix of acknowledged transactions (whole, never
	// partial).
	Async
	// Group: Commit's wait function blocks until the record's batch is
	// fsynced — the group-commit barrier. One fsync acknowledges every
	// committer in the batch.
	Group
)

// String returns the lower-case mode name.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Async:
		return "async"
	case Group:
		return "group"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options configures a Log.
type Options struct {
	// Mode selects the acknowledgment discipline (default Off, which makes
	// the zero Options explicit-opt-in).
	Mode Mode
	// GroupWindow is how long the log writer lingers after a batch's first
	// record before fsyncing, letting concurrent committers pile on. Zero
	// means fsync as soon as the writer is free — batching then happens
	// naturally while the previous fsync is in flight.
	GroupWindow time.Duration
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size. Zero selects 4 MiB.
	SegmentBytes int64
	// MaxPending bounds the bytes buffered ahead of the writer. Past it the
	// log reports itself Overloaded and stm's admission path sheds new
	// transactions with ErrContentionCollapse *before* they execute —
	// appenders themselves never block under the log mutex, so a slow fsync
	// cannot stall committers that are already past admission (they hold
	// abstract locks; sleeping them would spread the stall). Zero selects
	// 8 MiB.
	MaxPending int
	// InDoubtDeadline, when positive, is the presumed-abort timer for
	// adopted in-doubt transactions: if AdoptInDoubt re-acquired a prepared
	// transaction's locks and no ResolveInDoubt decision arrives within the
	// deadline, the transaction resolves as aborted — bounding how long an
	// unreachable coordinator can block conflicting traffic. Zero disables
	// the timer (the transaction blocks until explicitly resolved).
	InDoubtDeadline time.Duration
	// Dir is the log directory (segments + checkpoint). Required.
	Dir string
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 8 << 20
	}
}

// ErrCrashed is reported by durability waits and subsequent operations after
// a simulated crash (faultpoint Crash effect) froze the log writer. In the
// simulation it stands in for "the process died before this transaction was
// acknowledged".
var ErrCrashed = errors.New("wal: log crashed (simulated)")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Stats is a snapshot of the log's counters, for benchmarks and tests. The
// group-commit win is Fsyncs/Commits < 1.
type Stats struct {
	Commits    uint64 // transactions appended
	Records    uint64 // records written to segments (== Commits unless crashed)
	Batches    uint64 // flush batches (== fsync attempts)
	Fsyncs     uint64 // fsyncs completed
	DurableLSN uint64 // highest LSN known fsynced
}

// batch is one group-commit unit: the frames accumulated since the writer
// last took work, flushed and fsynced together. The log owns exactly two, for
// its whole life: the open one appenders fill under mu, and the one the
// writer is flushing or holding spare. A batch carries no outcome — a
// committer waits on its own LSN (see awaitDurable) — so the writer can hand
// one back to the appenders the moment its flush returns.
type batch struct {
	buf     []byte
	recEnds []int // cumulative end offsets of each frame in buf
	lastLSN uint64
}

// batchBufKeep caps the buffer a batch carries into its next flush, so one
// burst (or one huge record) does not pin its high-water mark for good.
const batchBufKeep = 64 << 10

// reset empties b for reuse, keeping its capacity up to batchBufKeep.
func (b *batch) reset() {
	if cap(b.buf) > batchBufKeep {
		b.buf = nil
	}
	b.buf = b.buf[:0]
	b.recEnds = b.recEnds[:0]
}

// Log is a segmented logical WAL. It implements stm.DurabilitySink. The
// lifecycle is: Open → register durable objects (Bind / RegisterRaw) →
// Recover → serve Commit. Checkpoint may be called at any quiescent point
// afterwards.
type Log struct {
	opts Options

	// mu guards the append state: the open batch, LSN assignment, and the
	// registration table before Recover. Because stm calls Commit with the
	// transaction's abstract locks held, the order in which conflicting
	// transactions pass through mu equals their serialization order.
	mu        sync.Mutex
	cur       *batch // the open batch; never nil
	nextLSN   uint64
	pending   int // bytes buffered ahead of the writer
	recovered bool
	closed    bool
	ioerr     error // why the log froze: ErrCrashed (simulated) or a real I/O error

	// crashed freezes the log: no further writes, every committer fails
	// fast with ioerr. Sticky and log-wide, which is why batches carry no
	// error of their own. Written under mu (so append's check is exact),
	// read lock-free by durability waiters.
	crashed atomic.Bool

	// ack is broadcast (under ackMu) after durable advances or the log
	// freezes — the two events awaitDurable's predicate watches. It has its
	// own mutex so that woken committers, who have already released their
	// abstract locks, never queue on mu ahead of appenders still holding
	// theirs.
	ackMu sync.Mutex
	ack   *sync.Cond

	// overloaded mirrors pending > MaxPending for lock-free reads: stm's
	// admission path consults it (through stm.OverloadSink) to shed new
	// transactions while the writer is behind, instead of letting appenders
	// queue under mu. Updated only under mu, so it cannot stick.
	overloaded atomic.Bool

	// twopc holds the two-phase-commit state: prepared-but-undecided
	// transactions found by Recover and their adopted lock holders.
	twopc twopcState

	kick chan struct{} // wakes the writer; buffered, lossy
	wg   sync.WaitGroup

	// Segment state, owned by the writer goroutine after Recover.
	f           segFile
	segSize     int64
	curSegStart uint64
	ckptLSN     uint64 // first LSN NOT covered by the loaded/last checkpoint
	objs        []regEntry
	objIndex    map[string]uint32

	commits atomic.Uint64
	records atomic.Uint64
	batches atomic.Uint64
	fsyncs  atomic.Uint64
	durable atomic.Uint64
}

// Open creates (or reopens) a log rooted at opts.Dir. No recovery happens
// yet: register every durable object first, then call Recover — replay needs
// the objects, and object IDs are registration indices, so registration
// order must be stable across restarts (Recover verifies names).
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	opts.fill()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{
		opts:     opts,
		cur:      new(batch),
		nextLSN:  1,
		kick:     make(chan struct{}, 1),
		objIndex: map[string]uint32{},
	}
	l.twopc.inDoubt = map[uint64]*inDoubtRec{}
	l.twopc.adopted = map[uint64]*adoption{}
	l.ack = sync.NewCond(&l.ackMu)
	return l, nil
}

// Commit implements stm.DurabilitySink: it encodes the transaction's redo
// stream as one record in the open batch and returns the mode's barrier.
// Called with the transaction's abstract locks held (see package comment);
// the work under l.mu is pure serialization — one bounded copy of the redo
// bytes into the batch — with the fsync deferred to the writer goroutine so
// lock hold times stay short.
func (l *Log) Commit(txID uint64, ops []stm.RedoOp) (wait func() error) {
	if l.opts.Mode == Off {
		return nil
	}
	l.commits.Add(1)
	lsn, err := l.append(txID, meta{}, ops)
	return l.barrier(lsn, err, l.opts.Mode == Group)
}

// barrier is the wait a committer is handed for one appended record: block
// until lsn is fsynced, or report the error that refused the append. The
// runtime takes a func() error, and a closure over the LSN was the one
// allocation of every Group-mode commit; a barrier carries the LSN instead
// and hands out wait — its own await, bound once when it is created — then
// returns to the pool as the wait is called. That call must therefore
// happen at most once, which is how the runtime (stm commit,
// PreparedTx.Commit) uses it; an abandoned barrier is merely garbage.
type barrier struct {
	l    *Log
	lsn  uint64
	err  error
	wait func() error
}

var barriers sync.Pool

// barrier returns the wait for the record append put at lsn: nil when the
// append succeeded and the mode asks for no fsync acknowledgment.
func (l *Log) barrier(lsn uint64, err error, await bool) func() error {
	if err == nil && !await {
		return nil
	}
	b, _ := barriers.Get().(*barrier)
	if b == nil {
		b = new(barrier)
		b.wait = b.await
	}
	b.l, b.lsn, b.err = l, lsn, err
	return b.wait
}

func (b *barrier) await() error {
	l, lsn, err := b.l, b.lsn, b.err
	b.l, b.err = nil, nil
	barriers.Put(b)
	if err != nil {
		return err
	}
	return l.awaitDurable(lsn)
}

// append encodes one record into the open batch, kicks the writer and
// returns the record's LSN, or the error of a log that takes no more
// records. It is the shared core of Commit, Prepare, and Decide: appenders
// never block on backpressure — they only flip the Overloaded flag, which
// sheds *new* transactions at admission (an appender here already executed
// and holds abstract locks; sleeping it would spread the stall to its
// conflict set). ops is read before append returns and not retained.
func (l *Log) append(txID uint64, m meta, ops []stm.RedoOp) (lsn uint64, err error) {
	l.mu.Lock()
	if !l.recovered || l.closed || l.crashed.Load() {
		err = l.stateErr()
		l.mu.Unlock()
		return 0, err
	}
	b := l.cur
	lsn = l.nextLSN
	l.nextLSN++
	start := len(b.buf)
	b.buf = append(b.buf, make([]byte, frameHeader)...)
	b.buf = appendPayload(b.buf, lsn, txID, m, ops)
	frameFinish(b.buf, start)
	b.recEnds = append(b.recEnds, len(b.buf))
	b.lastLSN = lsn
	l.pending += len(b.buf) - start
	if l.pending > l.opts.MaxPending {
		l.overloaded.Store(true)
	}
	l.mu.Unlock()

	l.kickWriter()
	return lsn, nil
}

func (l *Log) kickWriter() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// awaitDurable blocks until the record at lsn is fsynced (nil) or the log
// has frozen short of it (the sticky error). It is the whole acknowledgment
// protocol: fsyncs cover prefixes, so "durable LSN ≥ mine" says my batch
// succeeded whichever batch object carried it and whatever that object is
// doing now; and a failed flush freezes the log for good, so "frozen" says
// my record will never be written — whether it sat in the failed batch or
// in the open one behind it. A wake-up meant for another committer is
// harmless: the predicate decides, the broadcast only prompts a re-check.
func (l *Log) awaitDurable(lsn uint64) error {
	if l.durable.Load() >= lsn {
		return nil
	}
	l.ackMu.Lock()
	for l.durable.Load() < lsn && !l.crashed.Load() {
		l.ack.Wait()
	}
	l.ackMu.Unlock()
	if l.durable.Load() >= lsn {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ioerr
}

// announce wakes every durability waiter to re-check its predicate. Callers
// have already published the change (durable or crashed) and hold no lock:
// taking ackMu orders the broadcast after any waiter that tested the old
// state and has not parked yet.
func (l *Log) announce() {
	l.ackMu.Lock()
	l.ack.Broadcast()
	l.ackMu.Unlock()
}

// Overloaded reports whether the writer is more than MaxPending bytes
// behind. It implements stm.OverloadSink: systems configured with this log
// shed new transactions with ErrContentionCollapse while it is set, the
// admission-control analogue of blocking backpressure.
func (l *Log) Overloaded() bool { return l.overloaded.Load() }

func (l *Log) stateErr() error {
	switch {
	case l.crashed.Load():
		return l.ioerr
	case l.closed:
		return ErrClosed
	default:
		return errors.New("wal: Commit before Recover")
	}
}

// Sync blocks until every record appended before the call is fsynced. It is
// the explicit barrier for Async mode and for checkpoints.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.crashed.Load() || l.closed || !l.recovered {
		err := l.stateErr()
		l.mu.Unlock()
		return err
	}
	target := l.nextLSN - 1
	l.mu.Unlock()
	if l.durable.Load() < target {
		l.kickWriter()
	}
	return l.awaitDurable(target)
}

// Close flushes pending records, stops the writer, and closes the segment.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	started := l.recovered
	l.mu.Unlock()
	if started {
		close(l.kick)
		l.wg.Wait()
	}
	if l.f != nil {
		err := l.f.Close()
		l.f = nil
		return err
	}
	return nil
}

// Stats snapshots the counters.
func (l *Log) Stats() Stats {
	return Stats{
		Commits:    l.commits.Load(),
		Records:    l.records.Load(),
		Batches:    l.batches.Load(),
		Fsyncs:     l.fsyncs.Load(),
		DurableLSN: l.durable.Load(),
	}
}

// Crashed reports whether a simulated crash froze the log.
func (l *Log) Crashed() bool { return l.crashed.Load() }

// writerLoop is the single log writer: it swaps its spare batch for the open
// one, writes the frames to the segment, fsyncs once, and acknowledges every
// waiter at or below the batch's last LSN. Records appended while an fsync
// is in flight pile into the other batch — that is the natural group commit;
// GroupWindow adds deliberate lingering on top. The two batch objects
// ping-pong for the life of the log: nothing is allocated per flush.
func (l *Log) writerLoop() {
	defer l.wg.Done()
	spare := new(batch)
	for range l.kick {
		if l.opts.GroupWindow > 0 {
			time.Sleep(l.opts.GroupWindow)
		}
		for {
			l.mu.Lock()
			b := l.cur
			if len(b.recEnds) == 0 || l.crashed.Load() {
				// Nothing to write, or frozen: a frozen log writes nothing
				// more, and its waiters have already been failed.
				l.mu.Unlock()
				break
			}
			l.cur = spare
			l.mu.Unlock()

			l.flush(b)

			l.mu.Lock()
			l.pending -= len(b.buf)
			if l.pending <= l.opts.MaxPending {
				l.overloaded.Store(false)
			}
			l.mu.Unlock()
			b.reset()
			spare = b
		}
	}
	// Closed: flush whatever is left (appenders have been refused since
	// closed was set).
	l.mu.Lock()
	b := l.cur
	l.mu.Unlock()
	if len(b.recEnds) > 0 && !l.crashed.Load() {
		l.flush(b)
	}
}

// flush writes one batch to the segment and fsyncs. The three faultpoint
// sites simulate a process kill at the three interesting instants:
//
//	WalMidBatch   — torn write: a prefix of the batch's frames plus half of
//	                the next frame reach the file; recovery must truncate.
//	WalPreFsync   — the whole batch written but not synced: the file is
//	                rewound to the batch start, modelling page-cache loss.
//	WalPostFsync  — durable but unacknowledged: the records survive, the
//	                committers never hear back. Recovery may resurrect them.
//
// On crash the log freezes, which fails the batch's waiters with ErrCrashed
// (the ack never happened).
func (l *Log) flush(b *batch) {
	l.batches.Add(1)
	if err := l.rotateIfNeeded(b); err != nil {
		l.freeze(err)
		return
	}
	startOff, _ := l.f.Seek(0, 1) // io.SeekCurrent without the import

	// One write(2) per batch. Only an armed failpoint table can tear a
	// batch between frames, so only then is it written frame by frame.
	ends := b.recEnds
	if faultpoint.Armed() == 0 {
		ends = ends[len(ends)-1:]
	}
	prev := 0
	for i, end := range ends {
		if i > 0 && faultpoint.Hit(faultpoint.WalMidBatch) == faultpoint.Crash {
			// Torn write: half of the next frame follows the full prefix.
			torn := b.buf[prev : prev+(end-prev)/2]
			l.f.Write(torn)
			l.crash()
			return
		}
		if _, err := l.f.Write(b.buf[prev:end]); err != nil {
			l.freeze(fmt.Errorf("wal: write: %w", err))
			return
		}
		prev = end
	}

	if faultpoint.Hit(faultpoint.WalPreFsync) == faultpoint.Crash {
		// Unsynced loss: rewind the file to the batch start, as if the
		// kernel never wrote these pages back.
		l.f.Truncate(startOff)
		l.f.Seek(startOff, 0)
		l.crash()
		return
	}
	if err := l.f.Sync(); err != nil {
		l.freeze(fmt.Errorf("wal: fsync: %w", err))
		return
	}
	l.fsyncs.Add(1)
	l.records.Add(uint64(len(b.recEnds)))
	l.segSize += int64(len(b.buf))
	if faultpoint.Hit(faultpoint.WalPostFsync) == faultpoint.Crash {
		// Durable but unacked: the records stay; the waiters never learn.
		l.crash()
		return
	}
	l.durable.Store(b.lastLSN)
	l.announce()
}

// freeze stops the log for good after a failed flush, a simulated crash, or
// a kill on a non-writer path (checkpoint, prune, two-phase failpoints): no
// further writes, every future committer fails fast with err, and every
// waiter short of the durable LSN is released with it — those of the batch
// that failed and those of the open batch behind it alike, whose records a
// writer that no longer runs will never reach. The first cause sticks.
func (l *Log) freeze(err error) {
	l.mu.Lock()
	if !l.crashed.Load() {
		l.ioerr = err
		l.crashed.Store(true)
	}
	l.mu.Unlock()
	l.announce()
}

// crash is freeze for simulated process death.
func (l *Log) crash() { l.freeze(ErrCrashed) }

// Segment files: wal-<start LSN, hex>.seg, beginning with a 16-byte header
// (magic + start LSN). Frames follow back to back.
const (
	segMagic  = "TBWALSG1"
	segHeader = 16
)

// segFile is what the writer asks of the open segment: an *os.File, or a
// test's call-counting wrapper around one.
type segFile interface {
	Write(p []byte) (int, error)
	Seek(offset int64, whence int) (int64, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

func segName(startLSN uint64) string { return fmt.Sprintf("wal-%016x.seg", startLSN) }

func (l *Log) rotateIfNeeded(b *batch) error {
	if l.f != nil && l.segSize < l.opts.SegmentBytes {
		return nil
	}
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	firstLSN := b.lastLSN - uint64(len(b.recEnds)) + 1
	return l.openSegment(firstLSN)
}

func (l *Log) openSegment(startLSN uint64) error {
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segName(startLSN)),
		os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	var hdr [segHeader]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], startLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header sync: %w", err)
	}
	l.f = f
	l.segSize = segHeader
	l.mu.Lock()
	l.curSegStart = startLSN
	l.mu.Unlock()
	return nil
}
