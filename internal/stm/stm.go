// Package stm provides the transaction runtime that transactional boosting
// builds on: transaction lifecycle, an operation-level undo log, two-phase
// lock registration, commit/abort/validation handlers, and a retry loop with
// randomized exponential backoff.
//
// The runtime plays the role DSTM2 plays in the paper (Herlihy & Koskinen,
// "Transactional Boosting", PPoPP 2008): it serializes transactions in commit
// order (dynamic atomicity) and lets libraries register handlers that run
// when a transaction commits or aborts.
//
// Transactions are explicit values. Go has no thread-local storage, so the
// current transaction is passed to every transactional method:
//
//	err := stm.Atomic(func(tx *stm.Tx) error {
//	    set.Add(tx, 42)
//	    return nil
//	})
//
// Inside the function, a conflict (for example an abstract-lock timeout)
// aborts the transaction by panicking with a private sentinel; Atomic
// recovers it, rolls back the undo log in reverse order (Rule 3 of the
// paper), releases all two-phase locks, runs post-abort handlers (Rule 4),
// backs off, and retries. Panics never escape Atomic.
//
// # Hot-path engineering
//
// The per-call burden the paper claims is small — one abstract-lock
// acquisition plus one undo-log append — is kept small here by a
// single-owner fast path: until a transaction enters Parallel, its log,
// lock-set, and handler state are touched only by the owning goroutine and
// accessed without tx.mu. Parallel escalates the descriptor once (a one-way
// flag per attempt), after which every accessor takes the mutex. Descriptors
// and their slices are recycled across attempts and Atomic calls through a
// sync.Pool, so a steady-state transaction allocates nothing. See DESIGN.md
// §6 for the invariants.
package stm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tboost/internal/faultpoint"
)

// Status is the lifecycle state of a transaction.
type Status int32

const (
	// Active means the transaction is executing its body.
	Active Status = iota
	// Validating means the transaction is running its pre-commit
	// validation handlers (used by the read/write STM baseline).
	Validating
	// Committed means the transaction committed; its effects are permanent.
	Committed
	// Aborting means the transaction is running inverse operations.
	Aborting
	// Aborted means rollback finished; the transaction left no trace.
	Aborted
	// Prepared means the transaction passed validation and its prepare
	// record is force-logged: effects applied, locks held, undo intact,
	// parked until a coordinator's Commit or Abort (see twopc.go).
	Prepared
)

// String returns the lower-case name of the status.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Validating:
		return "validating"
	case Committed:
		return "committed"
	case Aborting:
		return "aborting"
	case Aborted:
		return "aborted"
	case Prepared:
		return "prepared"
	default:
		return fmt.Sprintf("status(%d)", int32(s))
	}
}

// ErrAborted is the cause reported when a transaction is aborted without a
// more specific reason.
var ErrAborted = errors.New("stm: transaction aborted")

// ErrTooManyRetries is returned by Atomic when a transaction exceeded the
// system's retry budget without committing.
var ErrTooManyRetries = errors.New("stm: transaction exceeded retry limit")

// ErrDoomed is the cause reported when a transaction discovers at commit that
// a contention manager (or an injected fault) doomed it.
var ErrDoomed = errors.New("stm: transaction doomed by contention manager")

// ErrInjectedValidation is the cause used when a failpoint forces a
// validation failure (chaos testing).
var ErrInjectedValidation = errors.New("stm: failpoint-injected validation failure")

// ErrContentionCollapse is returned by Atomic when the system's admission
// control rejects the transaction, or when the livelock detector concludes
// that retrying cannot make progress: the transaction kept losing lock
// conflicts while no transaction anywhere in the system committed. Callers
// should shed load (fail the request, queue it externally) rather than
// immediately retrying.
var ErrContentionCollapse = errors.New("stm: contention collapse, transaction shed")

// Unlocker is a two-phase lock held by a transaction. The lock manager
// registers each acquired lock with the owning transaction; the runtime calls
// Unlock exactly once per registered lock after commit or after rollback
// completes (locks are released only when every inverse has executed, as the
// paper requires).
type Unlocker interface {
	Unlock(tx *Tx)
}

// txIDs generates unique transaction identifiers.
var txIDs atomic.Uint64

// lockSpill is the lock-set size past which the linear-scan membership check
// spills to a map. Almost every transaction holds a handful of abstract
// locks (the paper's workloads hold one or two), so the common case is a
// short scan over a slice that is already in cache; only lock-hungry
// transactions pay for a map.
const lockSpill = 16

// txPool recycles transaction descriptors — and, transitively, the undo,
// lock, and handler slices they carry — across retry attempts and Atomic
// calls. Descriptors are returned to the pool with every reference cleared,
// so the pool never pins user closures, keys, values or locks.
var txPool = sync.Pool{New: func() any { return new(Tx) }}

// Tx is a transaction descriptor, created by Atomic and valid for one
// attempt. A Tx is driven by one goroutine, except inside Parallel, which
// lets multiple goroutines work on behalf of the same transaction (the
// paper's multi-threaded-transactions extension).
//
// The descriptor's mutable state is split in two:
//
//   - The log/lock/handler state below tx.mu is single-owner: it is touched
//     without locking until the transaction enters Parallel, which sets the
//     one-way escalation flag; from then on every access goes through tx.mu.
//   - The doom/cause state below asyncMu may be touched by other
//     transactions' goroutines at any time (contention managers doom their
//     victims asynchronously), so it is always guarded — by its own small
//     mutex, off the single-owner fast path.
//
// Descriptors are pooled: once Atomic returns, the Tx may be reset and
// reused by an unrelated transaction. Code must therefore never retain a
// *Tx beyond the dynamic extent of the Atomic call that supplied it (see
// DESIGN.md §6). A stale Doom on a recycled descriptor is tolerated — it
// costs the new owner at most one spurious retry — but any other access is
// a bug.
type Tx struct {
	id      uint64
	birth   uint64 // first attempt's id; stable across retries (lock priority)
	attempt int    // 0-based attempt number within one Atomic call
	status  atomic.Int32
	system  *System
	ctx     context.Context // non-nil only under AtomicCtx

	// parallel is the one-way escalation flag: false means the state below
	// mu is owned exclusively by the goroutine running the attempt, true
	// means Parallel branches may be sharing it. It is set only by the
	// owning goroutine (entering Parallel) while no branch is running, and
	// reset between attempts, so each accessor observes a stable value.
	parallel atomic.Bool

	mu          sync.Mutex            // guards the state below only after escalation
	undo        []uint32              // one entry per logged inverse: the slot of the stack holding its record (undo.go)
	undoLogs    []undoAttach          // the typed undo stacks attached this attempt, by owner; slot i+1
	undoFns     []func()              // slot 0, the descriptor's own stack: closures logged through Log
	undoSlot    uint32                // the slot the open UndoBegin…UndoEnd bracket appends under
	redo        []RedoOp              // forward ops for the durability sink (committed txs only)
	redoBuf     []byte                // arena the redo ops' Data views point into (see RedoBegin)
	lazy        []lazyAttach          // pending op logs of lazy boosted objects, drained at commit
	locks       []Unlocker            // two-phase locks, released at commit/abort
	lockIdx     map[Unlocker]struct{} // non-nil once len(locks) > lockSpill
	atCommit    []func()              // run at the commit point, before lock release
	onCommit    []disposable          // disposable actions deferred to after commit (dispose.go)
	onAbort     []disposable          // disposable actions deferred to after abort
	disposeLogs []disposeAttach       // the typed disposable stacks attached this attempt, by owner
	onValidate  []func() error        // pre-commit validation (rwstm read-set checks)

	ext map[any]any // extension slots for cooperating packages (e.g. rwstm)

	// vers holds the pending version logs of versioned boosted objects this
	// transaction mutated; flushed at the commit point under a fresh commit
	// sequence number, discarded on abort (see version.go).
	vers []versionAttach

	// disc holds the per-object lock-discipline latches of adaptive boosted
	// objects this transaction touched: the mode each object was in at the
	// transaction's first lock demand on it, pinned for the rest of the
	// attempt so a concurrent granularity migration cannot split the
	// transaction's lock footprint across tables (see adapt.go).
	disc []discAttach

	// readOnly marks a snapshot transaction (AtomicRO / Snapshot.Atomic):
	// snapSeq is its pinned sequence and mutating accessors panic. Set once
	// per attempt before fn runs; read concurrently by contention managers
	// selecting victims, which is safe for the same reason Birth reads are —
	// it is stable for the descriptor's whole attempt and the reader holds a
	// lock-internal mutex ordered after the attempt began.
	readOnly bool
	snapSeq  uint64

	// versLive is the versioning decision latched for the whole Atomic call
	// at the moment it entered its epoch generation (runWith): true means
	// every versioned mutation of this transaction seeds and records, false
	// means none do. Latching is what keeps the activation grace period's
	// all-or-nothing invariant — a mid-call flip of the manager's Active
	// flag must not be observed per operation, or a writer could plant a
	// seed derived from its own uncommitted earlier mutation (the chain
	// floor would then survive its abort). Set once per attempt before fn
	// runs, like readOnly.
	versLive bool

	// commitSeq is the commit sequence number assigned by flushVersions;
	// zero for transactions that mutated no versioned object. Read by
	// AtCommit handlers (the history recorder).
	commitSeq uint64

	doomed     atomic.Bool
	asyncMu    sync.Mutex    // guards doomCh/doomClosed/abortCause (cross-goroutine)
	doomCh     chan struct{} // lazily created, closed by Doom, kept until closed (see resetDoomState)
	doomClosed bool
	abortCause error
	waitTimer  *time.Timer // reused by blocked lock waits (see WaitTimer)
	waiter     Waiter      // reused by blocked lock waits (see LockWaiter)

	// durErr records a failed durability barrier: the attempt committed in
	// memory but was never acknowledged durable. Written and read only by
	// the goroutine driving the attempt (commit runs post-Parallel).
	durErr error
}

// abortSignal is the private panic payload used to unwind an aborting
// transaction out of user code. It never escapes Atomic.
type abortSignal struct{ tx *Tx }

// ID returns the transaction's unique identifier. IDs are never reused, and
// each retry attempt gets a fresh ID.
func (tx *Tx) ID() uint64 { return tx.id }

// Attempt returns the zero-based retry attempt number of this transaction
// within its Atomic call.
func (tx *Tx) Attempt() int { return tx.attempt }

// Birth returns the transaction's age token: the ID of its first attempt,
// stable across retries. Contention managers (wound-wait) compare Birth so
// that a transaction's priority rises as it is retried, guaranteeing the
// oldest transaction eventually wins.
func (tx *Tx) Birth() uint64 { return tx.birth }

// Status returns the transaction's current lifecycle state.
func (tx *Tx) Status() Status { return Status(tx.status.Load()) }

// ReadOnly reports whether this is a snapshot transaction (AtomicRO or
// Snapshot.Atomic). Read-only transactions answer versioned reads from their
// pinned snapshot, may not mutate, and are never chosen as contention
// victims while lock-free.
func (tx *Tx) ReadOnly() bool { return tx.readOnly }

// SnapshotSeq returns the pinned snapshot sequence of a read-only
// transaction, or zero for ordinary transactions. Versioned objects answer
// this transaction's reads at this sequence.
func (tx *Tx) SnapshotSeq() uint64 { return tx.snapSeq }

// RecordsVersions reports whether this transaction participates in version
// recording: the snapshot manager was already active when the Atomic call
// entered its versioning epoch. The answer is latched for the whole call —
// a transaction that began before activation answers false for every
// operation, even if activation happens mid-flight, and the activation
// grace period waits for it; a transaction that entered the post-activation
// generation always answers true. Versioned objects consult it (through
// their own VersioningLive) before any seed/record bookkeeping.
func (tx *Tx) RecordsVersions() bool { return tx.versLive }

// CommitSeq returns the commit sequence number assigned when the
// transaction's version records were published, or zero if it mutated no
// versioned object (or has not reached its commit point). Meaningful inside
// AtCommit handlers and after commit.
func (tx *Tx) CommitSeq() uint64 { return tx.commitSeq }

// System returns the system this transaction runs under.
func (tx *Tx) System() *System { return tx.system }

// Context returns the context the transaction runs under: the one passed to
// AtomicCtx, or context.Background() for plain Atomic. Lock managers consult
// it so cancellation interrupts waits.
func (tx *Tx) Context() context.Context {
	if tx.ctx == nil {
		return context.Background()
	}
	return tx.ctx
}

// Done returns a channel closed when the transaction's context is cancelled,
// or nil for transactions without a context (a nil channel never selects, so
// wait loops can include it unconditionally).
func (tx *Tx) Done() <-chan struct{} {
	if tx.ctx == nil {
		return nil
	}
	return tx.ctx.Done()
}

// escalate flips the descriptor into shared mode. Called by Parallel before
// any branch starts; from here until the next attempt every log/lock/handler
// accessor takes tx.mu.
func (tx *Tx) escalate() { tx.parallel.Store(true) }

// Shared reports whether the transaction has escalated to multi-goroutine
// mode (Parallel has run during the current attempt). While false, all
// transactional state is touched by one goroutine only, so lock managers may
// treat "registered with tx" as "owned by tx" without synchronizing: the
// goroutine that registered a lock completed (or unwound) its acquisition
// before issuing the current call.
func (tx *Tx) Shared() bool { return tx.parallel.Load() }

// stateLock/stateUnlock guard the log/lock/handler state only when the
// transaction has escalated to shared mode. The flag cannot change while an
// accessor is between the two calls: escalation happens only on the owning
// goroutine with no branches running, and that goroutine cannot be inside an
// accessor at the same time.
func (tx *Tx) stateLock() {
	if tx.parallel.Load() {
		tx.mu.Lock()
	}
}

func (tx *Tx) stateUnlock() {
	if tx.parallel.Load() {
		tx.mu.Unlock()
	}
}

// Doom marks the transaction for asynchronous abort. Unlike Abort, Doom may
// be called from any goroutine: contention managers use it to make a victim
// abort itself (DSTM2-style "writer aborts visible readers"). The victim
// observes the flag at its next transactional access or at validation and
// unwinds normally.
func (tx *Tx) Doom() {
	tx.doomed.Store(true)
	tx.asyncMu.Lock()
	if tx.doomCh != nil && !tx.doomClosed {
		close(tx.doomCh)
		tx.doomClosed = true
	}
	tx.asyncMu.Unlock()
}

// DoomWith dooms the transaction and records cause as its abort cause, so
// the retry loop's per-cause stats classify the abort by what actually
// happened (wounded vs deadlock victim) rather than by where the doom was
// discovered. Because setCause is first-write-wins, a transaction doomed by
// several managers keeps the first cause; like Doom, DoomWith is safe to call
// from any goroutine and safe against recycled descriptors (a stale doom
// costs at most one spurious retry).
func (tx *Tx) DoomWith(cause error) {
	if cause != nil {
		tx.setCause(cause)
	}
	tx.Doom()
}

// Doomed reports whether some other transaction has requested this one
// abort. Cooperating packages poll it on each transactional access.
func (tx *Tx) Doomed() bool { return tx.doomed.Load() }

// DoomChan returns a channel closed when the transaction is doomed, so lock
// wait loops can wake immediately instead of discovering the doom at their
// next poll.
func (tx *Tx) DoomChan() <-chan struct{} {
	tx.asyncMu.Lock()
	defer tx.asyncMu.Unlock()
	if tx.doomCh == nil {
		tx.doomCh = make(chan struct{})
		if tx.doomed.Load() {
			close(tx.doomCh)
			tx.doomClosed = true
		}
	}
	return tx.doomCh
}

// WaitTimer returns a timer firing after d, to bound one blocked lock wait;
// the caller Stops it when the wait ends. A single-goroutine transaction
// blocks on one lock at a time, so it rearms one descriptor-resident timer
// (no drain: go.mod's go 1.24 gives Stop/Reset the synchronous-channel
// semantics); Parallel branches can block concurrently and each get a fresh
// one.
func (tx *Tx) WaitTimer(d time.Duration) *time.Timer {
	if tx.Shared() {
		return time.NewTimer(d)
	}
	if tx.waitTimer == nil {
		tx.waitTimer = time.NewTimer(d)
	} else {
		tx.waitTimer.Reset(d)
	}
	return tx.waitTimer
}

// Waiter is the wake-up slot of one blocked abstract-lock wait. The lock
// being waited for links it into its waiter list under the lock's own mutex
// and, on release, unlinks it and sends on C without blocking. C holds one
// token, so a release landing between the registration and the waiter's
// select is kept, not lost; a token nobody received (the wait gave up as the
// release fired) stays behind and must be drained before the next wait.
type Waiter struct {
	C    chan struct{}
	Next *Waiter // the lock's waiter list; guarded by the lock's mutex
}

// LockWaiter returns the slot a blocked lock wait of tx parks on. Like the
// wait timer it is descriptor-resident — a single-goroutine transaction
// waits for one lock at a time, so blocking allocates nothing once the
// descriptor has blocked before — while Parallel branches, which can block
// concurrently, each get a fresh one. The caller must have unlinked it from
// every waiter list before its acquisition returns.
func (tx *Tx) LockWaiter() *Waiter {
	if tx.Shared() {
		return &Waiter{C: make(chan struct{}, 1)}
	}
	if tx.waiter.C == nil {
		tx.waiter.C = make(chan struct{}, 1)
	}
	return &tx.waiter
}

// Abort aborts the transaction with the given cause and unwinds the calling
// goroutine back to Atomic, which rolls back and retries. A nil cause is
// replaced by ErrAborted. Abort never returns.
func (tx *Tx) Abort(cause error) {
	if cause == nil {
		cause = ErrAborted
	}
	tx.setCause(cause)
	panic(abortSignal{tx})
}

// setCause records the abort cause. Every write to abortCause goes through
// here: Cause may be called from other goroutines (Parallel branches, doom
// diagnostics), so unguarded writes race.
func (tx *Tx) setCause(cause error) {
	tx.asyncMu.Lock()
	if tx.abortCause == nil {
		tx.abortCause = cause // first cause wins under Parallel
	}
	tx.asyncMu.Unlock()
}

// Cause returns the error that aborted the transaction, or nil while it is
// alive. Intended for post-abort diagnostics from OnAbort handlers.
func (tx *Tx) Cause() error {
	tx.asyncMu.Lock()
	defer tx.asyncMu.Unlock()
	return tx.abortCause
}

// AtCommit registers a handler to run at the transaction's commit point:
// after validation succeeds and the transaction is irrevocably committed,
// but before its two-phase locks are released. Handlers therefore run in
// serialization order with respect to every conflicting transaction. The
// history recorder uses this to log commit events in commit order; most
// code wants OnCommit instead.
func (tx *Tx) AtCommit(f func()) {
	tx.stateLock()
	tx.atCommit = append(tx.atCommit, f)
	tx.stateUnlock()
}

// OnCommit registers a disposable action to run after the transaction
// commits, in registration order. Per Rule 4 such actions must be disposable
// method calls: postponable without any other transaction observing the
// delay (for example releasing a transactional semaphore). Handlers must not
// retain tx beyond their own invocation: the descriptor is recycled once
// Atomic returns.
func (tx *Tx) OnCommit(f func()) {
	if tx.readOnly {
		panic("stm: OnCommit in read-only transaction")
	}
	tx.stateLock()
	tx.onCommit = append(tx.onCommit, disposable{fn: f})
	tx.stateUnlock()
}

// OnAbort registers a disposable action to run after rollback completes,
// in registration order (for example returning a unique ID to its pool).
func (tx *Tx) OnAbort(f func()) {
	if tx.readOnly {
		panic("stm: OnAbort in read-only transaction")
	}
	tx.stateLock()
	tx.onAbort = append(tx.onAbort, disposable{fn: f})
	tx.stateUnlock()
}

// OnValidate registers a pre-commit validation handler. If any handler
// returns a non-nil error the transaction aborts and retries instead of
// committing. The read/write-conflict STM baseline uses this to validate
// its read set; pure boosted objects never need it.
func (tx *Tx) OnValidate(f func() error) {
	tx.stateLock()
	tx.onValidate = append(tx.onValidate, f)
	tx.stateUnlock()
}

// RegisterLock records that the transaction holds lock l, returning true if
// l was not already held. Lock managers use the result to make acquisition
// reentrant: only the first registration performs a real acquire, mirroring
// the paper's "if (lockSet.add(lock))" guard.
func (tx *Tx) RegisterLock(l Unlocker) bool {
	if tx.parallel.Load() {
		tx.mu.Lock()
		ok := tx.registerLock(l)
		tx.mu.Unlock()
		return ok
	}
	return tx.registerLock(l)
}

func (tx *Tx) registerLock(l Unlocker) bool {
	if tx.holdsLocked(l) {
		return false
	}
	if tx.readOnly {
		// A read-only transaction demanding an abstract lock is on the
		// eager fallback path (unversioned object). Counted so workloads
		// can assert their snapshot reads are truly lock-free.
		tx.system.stats.add(tx.id, cReaderLockDemands)
	}
	tx.locks = append(tx.locks, l)
	if tx.lockIdx != nil {
		tx.lockIdx[l] = struct{}{}
	} else if len(tx.locks) > lockSpill {
		tx.lockIdx = make(map[Unlocker]struct{}, 2*lockSpill)
		for _, held := range tx.locks {
			tx.lockIdx[held] = struct{}{}
		}
	}
	return true
}

// holdsLocked is the membership check behind RegisterLock/Holds: a linear
// scan of the (short) lock slice, or a map probe once the set has spilled.
func (tx *Tx) holdsLocked(l Unlocker) bool {
	if tx.lockIdx != nil {
		_, held := tx.lockIdx[l]
		return held
	}
	for _, held := range tx.locks {
		if held == l {
			return true
		}
	}
	return false
}

// UnregisterLock removes a lock registration made by RegisterLock. Lock
// managers call it when a timed acquisition fails after registration.
func (tx *Tx) UnregisterLock(l Unlocker) {
	tx.stateLock()
	defer tx.stateUnlock()
	if !tx.holdsLocked(l) {
		return
	}
	if tx.lockIdx != nil {
		delete(tx.lockIdx, l)
	}
	for i, held := range tx.locks {
		if held == l {
			tx.locks = append(tx.locks[:i], tx.locks[i+1:]...)
			tx.locks = tx.locks[:len(tx.locks):cap(tx.locks)]
			break
		}
	}
}

// Holds reports whether the transaction currently holds lock l.
func (tx *Tx) Holds(l Unlocker) bool {
	tx.stateLock()
	defer tx.stateUnlock()
	return tx.holdsLocked(l)
}

// LockCount reports how many distinct locks the transaction holds.
func (tx *Tx) LockCount() int {
	tx.stateLock()
	defer tx.stateUnlock()
	return len(tx.locks)
}

// SetExt associates an extension value with the transaction under key.
// Cooperating packages (such as the rwstm baseline) use extension slots to
// attach their per-transaction state without the runtime knowing about them.
func (tx *Tx) SetExt(key, val any) {
	tx.stateLock()
	if tx.ext == nil {
		tx.ext = make(map[any]any, 2)
	}
	tx.ext[key] = val
	tx.stateUnlock()
}

// Ext returns the extension value stored under key, or nil.
func (tx *Tx) Ext(key any) any {
	tx.stateLock()
	defer tx.stateUnlock()
	return tx.ext[key]
}

// releaseLocks releases every registered lock in reverse acquisition order,
// keeping the slice capacity for the next attempt. The spill map, if any, is
// dropped rather than cleared: Go maps never shrink, so a single lock-hungry
// transaction would otherwise leave every later user of the pooled
// descriptor paying an O(buckets) clear per attempt.
func (tx *Tx) releaseLocks() {
	for i := len(tx.locks) - 1; i >= 0; i-- {
		tx.locks[i].Unlock(tx)
	}
	clear(tx.locks)
	tx.locks = tx.locks[:0]
	tx.lockIdx = nil
}

// clearTail zeroes s[n:] and truncates to n, retaining capacity without
// pinning the closures (or anything they capture) in the pool: n is 0 at the
// end of an attempt, a savepoint for a nested rollback, which discards only
// the child's suffix.
func clearTail[T any](s []T, n int) []T {
	clear(s[n:])
	return s[:n]
}

// rollback runs the undo log in reverse, then releases locks, then runs
// post-abort disposables. The ordering is significant: inverses reuse the
// transaction's abstract locks (Lemma 5.2 shows they need no new ones), so
// locks are held until every inverse has executed.
func (tx *Tx) rollback() {
	tx.status.Store(int32(Aborting))
	faultpoint.Hit(faultpoint.StmMidRollback) // delay window before inverses
	tx.replayUndo(0)
	tx.dropUndo()
	tx.dropRedo()    // an aborted tx contributes nothing to the log
	tx.clearLazy()   // pending lazy ops never ran; abort is truncation
	tx.discardVers() // pending versions were never published
	tx.releaseLocks()
	tx.clearDisc() // discipline latches die with the footprint they pinned
	tx.status.Store(int32(Aborted))
	faultpoint.Hit(faultpoint.StmPostAbort) // delay window before disposables
	tx.settle(false)
	tx.atCommit = clearTail(tx.atCommit, 0)
	tx.onValidate = clearTail(tx.onValidate, 0)
}

// lockFreeReader reports whether the transaction is a snapshot reader that
// never left the lock-free path: read-only, holding no abstract locks and no
// pending lazy logs. Such a transaction can never legitimately be doomed.
func (tx *Tx) lockFreeReader() bool {
	return tx.readOnly && len(tx.locks) == 0 && len(tx.lazy) == 0
}

// commit validates, then makes the transaction's effects permanent, releases
// locks, and runs post-commit disposables. It returns false if validation
// failed or the transaction was doomed by a contention manager, in which
// case the transaction has been rolled back.
func (tx *Tx) commit() bool {
	if faultpoint.Hit(faultpoint.StmPreCommit) == faultpoint.Doom {
		tx.Doom() // injected contention-manager doom, discovered below
	}
	if tx.doomed.Load() && !tx.lockFreeReader() {
		// A lock-free snapshot reader holds nothing a contention manager
		// could legitimately want, so a doom here can only be stale noise
		// from the descriptor's previous life (see the Tx doc comment) —
		// honouring it would make "readers never abort" probabilistic.
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
	tx.onValidate = clearTail(tx.onValidate, 0)
	// Commit-time drain of lazy boosted objects: fuse each pending log,
	// acquire the surviving ops' abstract locks for the commit instant,
	// re-validate optimistic reads, and apply. Runs before the Committed
	// store so a drain abort is an ordinary pre-commit abort, and before
	// the durability sink so tx.redo carries the post-fusion op stream.
	if len(tx.lazy) > 0 && !tx.drainLazy() {
		return false
	}
	tx.status.Store(int32(Committed))
	// Publish pending version records under a fresh commit sequence while
	// the abstract locks are still held: sequence order = serialization
	// order = WAL append order for conflicting transactions (version.go).
	if len(tx.vers) > 0 {
		tx.flushVersions()
	}
	for _, f := range tx.atCommit {
		f()
	}
	tx.atCommit = clearTail(tx.atCommit, 0)
	tx.dropUndo()
	// Durability: hand the redo stream to the sink while the abstract locks
	// are still held, so conflicting transactions enter the log in
	// serialization order. The sink encodes synchronously and returns a
	// wait; the fsync itself is awaited only after lock release, keeping
	// hold times independent of disk latency. Because the log is appended
	// in lock order and fsyncs cover prefixes, a transaction can never be
	// durable before one it depends on.
	var wait func() error
	if sink := tx.system.cfg.Durability; sink != nil && len(tx.redo) > 0 {
		wait = sink.Commit(tx.id, tx.redo)
	}
	tx.dropRedo()
	tx.clearLazy()
	tx.releaseLocks()
	tx.clearDisc() // discipline latches die with the footprint they pinned
	if wait != nil {
		// Pre-release durability barrier: the outcome is not released to
		// the caller until the log has fsynced this transaction's record
		// (or definitively failed to).
		if err := wait(); err != nil {
			tx.durErr = err
		}
	}
	tx.settle(true)
	return true
}

// resetAttempt prepares the descriptor for one attempt. The log/lock/handler
// slices were already truncated by the previous attempt's commit or rollback
// (or are empty on a fresh descriptor); what must be renewed per attempt is
// the identity, the lifecycle state, and the doom/cause state. The doom
// reset takes asyncMu because a stale Doom from the descriptor's previous
// life may land at any time (see the Tx doc comment).
func (tx *Tx) resetAttempt(sys *System, ctx context.Context, id uint64, birth uint64, attempt int) {
	tx.id = id
	tx.birth = birth
	tx.attempt = attempt
	tx.system = sys
	tx.ctx = ctx
	tx.status.Store(int32(Active))
	tx.parallel.Store(false)
	tx.durErr = nil
	tx.readOnly = false
	tx.snapSeq = 0
	tx.versLive = false
	tx.commitSeq = 0
	if tx.ext != nil {
		clear(tx.ext)
	}
	tx.doomed.Store(false)
	tx.resetDoomState()
}

// resetDoomState clears the abort cause and renews the doom channel only if a
// Doom closed it: an open channel serves the descriptor's next attempt or
// next life, so a blocked wait allocates one at most once per doom.
func (tx *Tx) resetDoomState() {
	tx.asyncMu.Lock()
	if tx.doomClosed {
		tx.doomCh = nil
		tx.doomClosed = false
	}
	tx.abortCause = nil
	tx.asyncMu.Unlock()
}

// recycle returns the descriptor to the pool. Callers must guarantee the
// attempt has fully committed or rolled back (all slices truncated) and that
// no goroutine they control still holds the pointer. References that could
// pin memory are dropped here rather than at reuse time.
func (tx *Tx) recycle() {
	tx.system = nil
	tx.ctx = nil
	if tx.ext != nil {
		clear(tx.ext)
	}
	tx.resetDoomState()
	txPool.Put(tx)
}
