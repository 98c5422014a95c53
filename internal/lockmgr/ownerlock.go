// Package lockmgr implements the abstract locks of transactional boosting:
// two-phase locks owned by transactions rather than goroutines, acquired with
// a timeout (timeout -> abort is how the paper's two-phase locking recovers
// from deadlock), and released by the runtime only when the owning
// transaction commits or finishes aborting.
//
// Three flavours are provided:
//
//   - OwnerLock: an exclusive abstract lock (one per boosted object for
//     coarse-grained boosting, as in the paper's red-black tree).
//   - RWOwnerLock: a readers/writer abstract lock (the paper's heap uses it
//     to run add() calls, which commute with each other, in shared mode and
//     removeMin() in exclusive mode).
//   - LockMap: a striped map from key to OwnerLock implementing the paper's
//     LockKey class — the lock-per-key discipline of the boosted skip list.
package lockmgr

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tboost/internal/faultpoint"
	"tboost/internal/stm"
)

// ErrTimeout is the cause used to abort a transaction whose timed lock
// acquisition expired.
var ErrTimeout = errors.New("lockmgr: abstract lock acquisition timed out")

// ErrWounded is the cause used to abort a transaction that an older
// transaction wounded while it was waiting for a lock.
var ErrWounded = errors.New("lockmgr: wounded by an older transaction")

func init() {
	stm.RegisterAbortKind(ErrTimeout, stm.KindLockTimeout)
	stm.RegisterAbortKind(ErrWounded, stm.KindWounded)
}

// abortAcquireFailure aborts tx after a failed timed acquisition, choosing
// the cause that explains the failure: the doom's recorded cause (a wound or
// a deadlock-victim selection — ErrWounded when the doomer left no cause),
// the caller's cancelled context, or a plain timeout. It never returns.
func abortAcquireFailure(tx *stm.Tx) {
	if tx.Doomed() {
		if cause := tx.Cause(); cause != nil {
			tx.Abort(cause)
		}
		tx.Abort(ErrWounded)
	}
	if err := tx.Context().Err(); err != nil {
		tx.Abort(err)
	}
	tx.System().CountLockTimeout()
	tx.Abort(ErrTimeout)
}

// OwnerLock is an exclusive two-phase lock owned by a transaction. The zero
// value is an unlocked lock ready for use that consults the waiter's System
// for its contention policy; it must not be copied after first use (the lock
// tables embed it in their entries and hand out its address). Acquisition is
// reentrant per transaction; release happens automatically when the owning
// transaction commits or aborts (the runtime calls Unlock via stm.Unlocker).
type OwnerLock struct {
	mu       sync.Mutex // guards owner, waiters and siblings; never held across a wait
	owner    *stm.Tx
	waiters  waitList         // blocked acquisitions, all woken on each release
	siblings waitList         // Parallel branches in waitOwnedBy, woken on each ownership/registration change
	policy   ContentionPolicy // nil: consult the waiter's System (see effectivePolicy)
	meter    *ContentionMeter // nil: no contention accounting (see meter.go)
}

// NewOwnerLock returns a fresh exclusive abstract lock. Blocked acquisitions
// consult the contention policy of the waiting transaction's System
// (stm.Config.Contention; timed acquisition alone when unset).
func NewOwnerLock() *OwnerLock {
	return NewOwnerLockPolicy(nil)
}

// NewOwnerLockPolicy returns a fresh exclusive abstract lock with an explicit
// contention policy that overrides the system-wide choice (pass Timeout,
// WoundWait, or a NewDetect instance). A nil policy is NewOwnerLock.
func NewOwnerLockPolicy(p ContentionPolicy) *OwnerLock {
	return &OwnerLock{policy: p}
}

// SetMeter attaches a contention meter to the lock. Configuration-time only
// (before the lock is contended for); the slow path reads the field without
// synchronization, which is safe exactly because the field is set before the
// lock is shared. The uncontended acquisition path never touches the meter.
func (l *OwnerLock) SetMeter(m *ContentionMeter) { l.meter = m }

// TryAcquire attempts to acquire the lock for tx, waiting up to timeout.
// It returns true on success (including when tx already holds the lock).
// On success the lock is registered with tx for automatic two-phase release.
func (l *OwnerLock) TryAcquire(tx *stm.Tx, timeout time.Duration) bool {
	if !tx.RegisterLock(l) {
		// Already registered by this transaction. For a single-goroutine
		// transaction that settles it: the goroutine now here completed the
		// registering acquisition (or unwound it, removing the registration)
		// before issuing this call, so reentrancy is decided without touching
		// the lock. Inside stm.Parallel another branch may have registered it
		// and still be acquiring: check ownership and wait for it to land.
		if !tx.Shared() || l.HeldBy(tx) {
			return true
		}
		return l.waitOwnedBy(tx, timeout)
	}
	// Failpoint between registration and acquisition: a forced Timeout
	// exercises the registered-but-never-acquired cleanup; a forced Doom
	// simulates being wounded while about to wait.
	switch faultpoint.Hit(faultpoint.LockRegistered) {
	case faultpoint.Timeout:
		tx.UnregisterLock(l)
		l.wakeOwnershipWaiters()
		return false
	case faultpoint.Doom:
		tx.Doom()
	}
	if l.acquire(tx, timeout) {
		return true
	}
	tx.UnregisterLock(l)
	// A sibling branch blocked in waitOwnedBy is waiting on the
	// registration this goroutine just removed; without a wake it would
	// sleep out its whole timeout.
	l.wakeOwnershipWaiters()
	return false
}

// wakeOwnershipWaiters wakes goroutines blocked in waitOwnedBy. Called after
// ownership or registration changes made outside l.mu's critical section.
func (l *OwnerLock) wakeOwnershipWaiters() {
	l.mu.Lock()
	l.siblings.wakeAll()
	l.mu.Unlock()
}

// waitOwnedBy waits until tx owns the lock (acquired by a sibling branch of
// a multi-threaded transaction), or the registration disappears (the
// sibling's acquisition failed), or tx is doomed, or the timeout expires.
// It parks on the lock's sibling list rather than spinning: every ownership
// or registration change wakes the list, so waiters wake exactly when there
// is something new to observe.
func (l *OwnerLock) waitOwnedBy(tx *stm.Tx, timeout time.Duration) bool {
	b := blocked{tx: tx}
	defer b.end()
	for {
		l.mu.Lock()
		if l.owner == tx {
			l.mu.Unlock()
			return true
		}
		b.park(&l.mu, &l.siblings)
		l.mu.Unlock()
		// Check the registration only after parking: a sibling that
		// unregisters after this check wakes the list we are already on,
		// so the wakeup cannot be missed.
		if !tx.Holds(l) {
			return false // sibling acquisition failed and unregistered
		}
		if !b.sleep(timeout) {
			return false
		}
	}
}

// acquire takes the lock for tx, which has registered it, waiting up to
// timeout. The uncontended case — the lock is free when asked, which is
// nearly every acquisition of a boosted workload — is decided here, before
// acquireBlocked sets up its timer bookkeeping and resolves the policy.
func (l *OwnerLock) acquire(tx *stm.Tx, timeout time.Duration) bool {
	if tx.Doomed() {
		return false // wounded: give way to our elder
	}
	l.mu.Lock()
	if l.owner == nil {
		l.owner = tx
		l.siblings.wakeAll()
		l.mu.Unlock()
		return true
	}
	l.mu.Unlock()
	return l.acquireBlocked(tx, timeout)
}

// acquireBlocked is acquire's wait loop, entered once the lock has been seen
// owned: report the conflict, park until the next release, recontend.
func (l *OwnerLock) acquireBlocked(tx *stm.Tx, timeout time.Duration) bool {
	b := blocked{tx: tx, cp: effectivePolicy(l.policy, tx)}
	defer b.end()
	for {
		if tx.Doomed() {
			return false // wounded while waiting: give way to our elder
		}
		l.mu.Lock()
		if l.owner == nil {
			l.owner = tx
			l.siblings.wakeAll()
			l.mu.Unlock()
			// Granted after blocking: the per-lock meter may evaluate a
			// granularity promotion on the fresh sample.
			if waited := b.granted(); l.meter != nil && b.armed() {
				l.meter.observeWait(waited)
			}
			return true
		}
		if l.meter != nil {
			// One conflict per blocking round, not per acquisition: under
			// coarse-lock barging a starved waiter recontends (and loses) once
			// per release inside a single acquisition, and each of those
			// wasted wakeups is exactly the evidence a granularity promotion
			// wants. Uncontended acquisitions never reach this branch.
			l.meter.observeConflict()
		}
		// The blocking point: l.mu is held, so l.owner is the grant holder
		// at this instant (it cannot release in between).
		b.conflict(l.owner)
		b.park(&l.mu, &l.waiters)
		l.mu.Unlock()
		if !b.sleep(timeout) {
			return false
		}
	}
}

// Acquire acquires the lock for tx using the system's default lock timeout,
// aborting tx (which unwinds to stm.Atomic for rollback and retry) if the
// timeout expires or tx was wounded while waiting. This is the call boosted
// methods make on every operation.
func (l *OwnerLock) Acquire(tx *stm.Tx) {
	if !l.TryAcquire(tx, tx.System().LockTimeout()) {
		abortAcquireFailure(tx)
	}
}

// Unlock releases the lock if tx owns it. It is called by the stm runtime
// during commit/abort; user code should not call it directly (two-phase
// locking forbids early release).
func (l *OwnerLock) Unlock(tx *stm.Tx) {
	l.mu.Lock()
	if l.owner == tx {
		l.owner = nil
		l.waiters.wakeAll()
		l.siblings.wakeAll()
	}
	l.mu.Unlock()
}

// HeldBy reports whether tx currently owns the lock. For tests and
// introspection.
func (l *OwnerLock) HeldBy(tx *stm.Tx) bool {
	l.mu.Lock()
	held := l.owner == tx
	l.mu.Unlock()
	return held
}

// otherOwnerConflict reports whether a transaction other than tx owns the
// lock — the conflict probe of the striped range manager's owner scans —
// and, when one does and cp is non-nil, reports the conflict to the
// contention policy while l.mu still pins the owner (an owner cannot release
// without this mutex, so the pointer handed to OnConflict is live). It takes
// the lock's own mutex: together with the seq-cst rmark counter this is what
// makes the striped point fast path sound (see confirmKey) without the point
// path ever paying an atomic owner store.
func (l *OwnerLock) otherOwnerConflict(tx *stm.Tx, cp ContentionPolicy) bool {
	l.mu.Lock()
	o := l.owner
	if o != nil && o != tx && cp != nil {
		cp.OnConflict(tx, o)
	}
	l.mu.Unlock()
	return o != nil && o != tx
}

// Locked reports whether any transaction owns the lock.
func (l *OwnerLock) Locked() bool {
	l.mu.Lock()
	locked := l.owner != nil
	l.mu.Unlock()
	return locked
}

// String describes the lock state for debugging.
func (l *OwnerLock) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.owner == nil {
		return "OwnerLock(free)"
	}
	return fmt.Sprintf("OwnerLock(owner=tx%d)", l.owner.ID())
}

// compile-time interface check
var _ stm.Unlocker = (*OwnerLock)(nil)
