package lockmgr

import (
	"cmp"
	"sync"
	"sync/atomic"
	"time"

	"tboost/internal/stm"
)

// RangeLock is an interval-granular abstract lock manager: a transaction
// locks a key interval [lo, hi], and two acquisitions conflict exactly when
// their intervals overlap. It generalizes the paper's key-based LockKey to
// the argument-dependent conflict predicates of the commutativity-locking
// literature its related-work section cites: a range query commutes with
// any update outside the range, and the interval lock encodes precisely
// that. The key space is any ordered type: the interval discipline only
// needs <=, so string- and float-keyed boosted collections can use it too.
//
// Point operations lock the degenerate interval [k, k], so they interact
// correctly with range operations on the same structure. Intervals held by
// one transaction accumulate until commit/abort (two-phase), and
// acquisition is reentrant: an interval already covered by the
// transaction's holdings is granted immediately.
//
// Every acquisition — even a disjoint point op — funnels through the one
// mutex and an O(held) scan, and every release wakes every waiter.
// StripedRangeLock removes both costs; this manager is kept as the
// SetLegacyRangeLocks benchmark baseline and as the reference model the
// striped fuzz test checks grant/block equivalence against.
type RangeLock[K cmp.Ordered] struct {
	mu       sync.Mutex
	held     []heldInterval[K]
	waiters  waitList      // blocked acquisitions, all woken on each release
	spurious atomic.Uint64 // wakeups that re-checked and re-blocked
}

type heldInterval[K cmp.Ordered] struct {
	lo, hi K
	tx     *stm.Tx
}

// NewRangeLock returns an empty interval lock manager.
func NewRangeLock[K cmp.Ordered]() *RangeLock[K] {
	return &RangeLock[K]{}
}

// TryLockRange attempts to lock [lo, hi] for tx, waiting up to timeout for
// conflicting intervals to be released. It returns true on success.
func (r *RangeLock[K]) TryLockRange(tx *stm.Tx, lo, hi K, timeout time.Duration) bool {
	if lo > hi {
		lo, hi = hi, lo
	}
	// No contention policy: the legacy manager reports no conflicts.
	b := blocked{tx: tx}
	defer b.end()
	woke := false
	for {
		r.mu.Lock()
		covered := false
		conflict := false
		for _, h := range r.held {
			if h.lo <= lo && hi <= h.hi && h.tx == tx {
				covered = true
				break
			}
			if h.tx != tx && h.lo <= hi && lo <= h.hi {
				conflict = true
				break
			}
		}
		if covered {
			r.mu.Unlock()
			return true
		}
		if !conflict {
			r.held = append(r.held, heldInterval[K]{lo: lo, hi: hi, tx: tx})
			r.mu.Unlock()
			tx.RegisterLock(r)
			return true
		}
		b.park(&r.mu, &r.waiters)
		r.mu.Unlock()

		if woke {
			// Woken by a release that did not clear our conflict: the one
			// waiter list hears every release.
			r.spurious.Add(1)
		}
		if !b.armed() {
			rangeTimerArms.Add(1)
		}
		if !b.sleep(timeout) {
			return false
		}
		woke = true
	}
}

// LockRange locks [lo, hi] for tx with the system's default timeout,
// aborting tx on failure with the cause that explains it.
func (r *RangeLock[K]) LockRange(tx *stm.Tx, lo, hi K) {
	if !r.TryLockRange(tx, lo, hi, tx.System().LockTimeout()) {
		abortAcquireFailure(tx)
	}
}

// LockKey locks the single key k (the interval [k, k]).
func (r *RangeLock[K]) LockKey(tx *stm.Tx, k K) {
	r.LockRange(tx, k, k)
}

// Unlock releases every interval tx holds. Called by the stm runtime at
// commit/abort.
func (r *RangeLock[K]) Unlock(tx *stm.Tx) {
	r.mu.Lock()
	kept := r.held[:0]
	for _, h := range r.held {
		if h.tx != tx {
			kept = append(kept, h)
		}
	}
	r.held = kept
	r.waiters.wakeAll()
	r.mu.Unlock()
}

// Holdings reports how many intervals are currently held (all
// transactions). For tests.
func (r *RangeLock[K]) Holdings() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.held)
}

// SpuriousWakeups reports how many wait-loop wakeups re-checked and found
// their conflict still standing — the thundering-herd cost of the single
// broadcast channel.
func (r *RangeLock[K]) SpuriousWakeups() uint64 { return r.spurious.Load() }

var _ stm.Unlocker = (*RangeLock[int64])(nil)
