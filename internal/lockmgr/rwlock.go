package lockmgr

import (
	"sync"
	"time"

	"tboost/internal/faultpoint"
	"tboost/internal/stm"
)

// RWOwnerLock is a readers/writer two-phase abstract lock owned by
// transactions. Multiple transactions may hold it in shared (read) mode;
// exclusive (write) mode excludes all others. A transaction holding the lock
// in shared mode may upgrade to exclusive mode when it is the only reader.
//
// The paper's boosted heap uses an RWOwnerLock to let commuting add() calls
// run concurrently in shared mode while removeMin() takes exclusive mode.
// Blocked acquisitions consult the waiting transaction's system-wide
// contention policy, reporting every conflicting grant holder (the writer
// for a read demand; the writer and each other reader for a write demand).
type RWOwnerLock struct {
	mu      sync.Mutex
	writer  *stm.Tx
	readers map[*stm.Tx]struct{}
	gen     chan struct{}
}

// NewRWOwnerLock returns a fresh readers/writer abstract lock.
func NewRWOwnerLock() *RWOwnerLock {
	return &RWOwnerLock{readers: make(map[*stm.Tx]struct{})}
}

// TryRLock attempts to acquire the lock in shared mode for tx, waiting up to
// timeout. A transaction already holding the lock in either mode succeeds
// immediately.
func (l *RWOwnerLock) TryRLock(tx *stm.Tx, timeout time.Duration) bool {
	switch faultpoint.Hit(faultpoint.LockRegistered) {
	case faultpoint.Timeout:
		return false
	case faultpoint.Doom:
		tx.Doom()
	}
	// Timer and doom channel are armed once for the whole wait and the
	// timer stopped on every exit path (see acquireBlocked for the rationale).
	var timer *time.Timer
	var expired <-chan time.Time
	var doomed <-chan struct{}
	var waitStart time.Time
	cp := effectivePolicy(nil, tx)
	conflicted := false
	defer func() {
		if timer != nil {
			timer.Stop()
		}
		if conflicted {
			cp.OnWaitEnd(tx)
		}
	}()
	for {
		l.mu.Lock()
		if l.writer == tx {
			l.mu.Unlock()
			return true // write mode subsumes read mode
		}
		if _, ok := l.readers[tx]; ok {
			l.mu.Unlock()
			return true
		}
		if l.writer == nil {
			l.readers[tx] = struct{}{}
			l.mu.Unlock()
			tx.RegisterLock(l)
			if timer != nil {
				tx.System().ObserveWait(time.Since(waitStart))
			}
			return true
		}
		if cp != nil {
			conflicted = true
			cp.OnConflict(tx, l.writer)
		}
		wait := l.waitGen()
		l.mu.Unlock()

		if timer == nil {
			timer = tx.WaitTimer(timeout)
			expired = timer.C
			doomed = tx.DoomChan()
			waitStart = time.Now()
		}
		if !l.waitRelease(tx, wait, doomed, expired) {
			return false
		}
	}
}

// TryWLock attempts to acquire the lock in exclusive mode for tx, waiting up
// to timeout. If tx is the sole reader, the acquisition upgrades in place.
func (l *RWOwnerLock) TryWLock(tx *stm.Tx, timeout time.Duration) bool {
	switch faultpoint.Hit(faultpoint.LockRegistered) {
	case faultpoint.Timeout:
		return false
	case faultpoint.Doom:
		tx.Doom()
	}
	var timer *time.Timer
	var expired <-chan time.Time
	var doomed <-chan struct{}
	var waitStart time.Time
	cp := effectivePolicy(nil, tx)
	conflicted := false
	defer func() {
		if timer != nil {
			timer.Stop()
		}
		if conflicted {
			cp.OnWaitEnd(tx)
		}
	}()
	for {
		l.mu.Lock()
		if l.writer == tx {
			l.mu.Unlock()
			return true
		}
		_, isReader := l.readers[tx]
		others := len(l.readers)
		if isReader {
			others--
		}
		if l.writer == nil && others == 0 {
			l.writer = tx
			if isReader {
				delete(l.readers, tx) // upgrade
			}
			l.mu.Unlock()
			tx.RegisterLock(l)
			if timer != nil {
				tx.System().ObserveWait(time.Since(waitStart))
			}
			return true
		}
		if cp != nil {
			conflicted = true
			if l.writer != nil {
				cp.OnConflict(tx, l.writer)
			}
			for r := range l.readers {
				if r != tx {
					cp.OnConflict(tx, r)
				}
			}
		}
		wait := l.waitGen()
		l.mu.Unlock()

		if timer == nil {
			timer = tx.WaitTimer(timeout)
			expired = timer.C
			doomed = tx.DoomChan()
			waitStart = time.Now()
		}
		if !l.waitRelease(tx, wait, doomed, expired) {
			return false
		}
	}
}

// waitRelease blocks until the next release (true) or until the wait should
// be abandoned (false): timeout expiry, a doom, or context cancellation.
func (l *RWOwnerLock) waitRelease(tx *stm.Tx, wait <-chan struct{}, doomed <-chan struct{}, expired <-chan time.Time) bool {
	switch faultpoint.Hit(faultpoint.LockWait) {
	case faultpoint.Timeout:
		return false
	case faultpoint.Doom:
		tx.Doom()
	}
	select {
	case <-wait:
		return true
	case <-doomed:
		return false
	case <-tx.Done():
		return false
	case <-expired:
		return false
	}
}

// waitGen returns the channel closed on the next release. Callers must hold mu.
func (l *RWOwnerLock) waitGen() chan struct{} {
	if l.gen == nil {
		l.gen = make(chan struct{})
	}
	return l.gen
}

// RLock acquires shared mode with the system's default timeout, aborting tx
// on failure with the cause that explains it (wound, deadlock-victim doom,
// cancelled context, or timeout).
func (l *RWOwnerLock) RLock(tx *stm.Tx) {
	if !l.TryRLock(tx, tx.System().LockTimeout()) {
		abortAcquireFailure(tx)
	}
}

// WLock acquires exclusive mode with the system's default timeout, aborting
// tx on failure with the cause that explains it.
func (l *RWOwnerLock) WLock(tx *stm.Tx) {
	if !l.TryWLock(tx, tx.System().LockTimeout()) {
		abortAcquireFailure(tx)
	}
}

// Unlock releases whatever mode tx holds. Called by the stm runtime at
// commit/abort.
func (l *RWOwnerLock) Unlock(tx *stm.Tx) {
	l.mu.Lock()
	if l.writer == tx {
		l.writer = nil
	} else {
		delete(l.readers, tx)
	}
	if l.gen != nil {
		close(l.gen)
		l.gen = nil
	}
	l.mu.Unlock()
}

// Readers reports the number of transactions holding shared mode.
func (l *RWOwnerLock) Readers() int {
	l.mu.Lock()
	n := len(l.readers)
	l.mu.Unlock()
	return n
}

// WriteHeldBy reports whether tx holds exclusive mode.
func (l *RWOwnerLock) WriteHeldBy(tx *stm.Tx) bool {
	l.mu.Lock()
	held := l.writer == tx
	l.mu.Unlock()
	return held
}

// ReadHeldBy reports whether tx holds shared mode.
func (l *RWOwnerLock) ReadHeldBy(tx *stm.Tx) bool {
	l.mu.Lock()
	_, held := l.readers[tx]
	l.mu.Unlock()
	return held
}

var _ stm.Unlocker = (*RWOwnerLock)(nil)
