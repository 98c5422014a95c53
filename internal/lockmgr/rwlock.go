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
	waiters waitList // blocked acquisitions, all woken on each release
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
	b := blocked{tx: tx, cp: effectivePolicy(nil, tx)}
	defer b.end()
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
			b.granted()
			return true
		}
		b.conflict(l.writer)
		b.park(&l.mu, &l.waiters)
		l.mu.Unlock()
		if !b.sleep(timeout) {
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
	b := blocked{tx: tx, cp: effectivePolicy(nil, tx)}
	defer b.end()
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
			b.granted()
			return true
		}
		if b.cp != nil {
			if l.writer != nil {
				b.conflict(l.writer)
			}
			for r := range l.readers {
				if r != tx {
					b.conflict(r)
				}
			}
		}
		b.park(&l.mu, &l.waiters)
		l.mu.Unlock()
		if !b.sleep(timeout) {
			return false
		}
	}
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
	l.waiters.wakeAll()
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
