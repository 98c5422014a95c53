package lockmgr

// Per-lock contention accounting for the adaptive lock-granularity policy.
//
// The adaptive boost engine (internal/boost) starts an object on one coarse
// OwnerLock and promotes it to a per-key LockMap when the coarse lock is
// demonstrably contended. The evidence it needs — how often acquisitions
// block, and how long blocked waits last — is only observable here, inside
// the lock manager's slow path. A ContentionMeter is that export: a lock (or
// a whole lock table) carries at most one meter, and the slow path feeds it
// at the two sites that already exist for the contention policies:
//
//   - observeConflict fires once per blocking round: each time acquireBlocked
//     finds a foreign owner and is about to (re)block — the same instant
//     ContentionPolicy.OnConflict sees. Counting rounds rather than
//     acquisitions matters under barging: a starved waiter wakes and loses
//     once per release inside a single acquisition, and each wasted wakeup
//     is contention evidence;
//   - observeWait fires where a blocked acquisition is finally granted and
//     the adaptive-timeout estimator is fed (stm.System.ObserveWait).
//
// The meter is deliberately invisible to uncontended acquisitions: the grant
// path of acquire never touches it, so a lock with a meter attached costs
// its steady-state users nothing — no atomic operations, no allocations —
// until they actually block. That is the "dormant signal path" contract the
// adaptive engine's alloc pin test holds the kernel to.

import (
	"sync/atomic"
	"time"
)

// meterAlpha is the EWMA weight denominator for blocked-wait durations:
// new = old + (sample-old)/meterAlpha. The same 1/8 weighting as the
// system-wide adaptive-timeout estimator, so the per-lock signal and the
// per-system signal move on the same timescale.
const meterAlpha = 8

// ContentionMeter accumulates contention evidence for one abstract lock or
// one lock table. All methods are safe for concurrent use; the zero meter is
// not valid (use NewContentionMeter so the notify hook is fixed for life).
type ContentionMeter struct {
	conflicts atomic.Uint64 // blocking rounds: waits begun or resumed on a held lock
	waitEWMA  atomic.Int64  // EWMA of completed blocked-wait durations, in ns
	notify    func()        // ran after each completed blocked wait; may be nil
}

// NewContentionMeter returns a meter. notify, if non-nil, runs on the waiting
// goroutine each time a blocked acquisition completes (after the wait sample
// is folded into the EWMA) — the adaptive engine uses it to evaluate its
// promotion threshold exactly when there is fresh evidence, instead of
// polling. notify must be cheap and must not block: it runs on a transaction
// goroutine that just acquired an abstract lock.
func NewContentionMeter(notify func()) *ContentionMeter {
	return &ContentionMeter{notify: notify}
}

// Conflicts reports how many blocking rounds the lock has seen: every time a
// waiter found the lock held by another transaction and went (back) to sleep.
// Monotonic; consumers measure intervals by delta.
func (m *ContentionMeter) Conflicts() uint64 { return m.conflicts.Load() }

// WaitEWMA reports the exponentially weighted moving average of completed
// blocked-wait durations. Zero until the first blocked acquisition completes.
func (m *ContentionMeter) WaitEWMA() time.Duration {
	return time.Duration(m.waitEWMA.Load())
}

// observeConflict records one about-to-block conflict. Called by acquireBlocked
// with the lock's mutex held, so it must stay tiny.
func (m *ContentionMeter) observeConflict() { m.conflicts.Add(1) }

// observeWait folds one completed blocked wait into the EWMA and runs the
// notify hook. The CAS loop mirrors stm.System.ObserveWait: losing a race
// just means another waiter's sample landed first, and this sample folds into
// the newer value.
func (m *ContentionMeter) observeWait(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	for {
		old := m.waitEWMA.Load()
		var next int64
		if old == 0 {
			next = ns
		} else {
			next = old + (ns-old)/meterAlpha
		}
		if m.waitEWMA.CompareAndSwap(old, next) {
			break
		}
	}
	if m.notify != nil {
		m.notify()
	}
}
