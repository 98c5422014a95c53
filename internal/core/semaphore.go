package core

import (
	"errors"
	"sync"
	"tboost/internal/boost"
	"time"

	"tboost/internal/faultpoint"
	"tboost/internal/lockmgr"
	"tboost/internal/stm"
)

// ErrSemTimeout is the abort cause when a transactional semaphore
// acquisition waits longer than its timeout (the deadlock-recovery story is
// the same as for abstract locks: abort and retry).
var ErrSemTimeout = errors.New("core: transactional semaphore acquire timed out")

func init() {
	stm.RegisterAbortKind(ErrSemTimeout, stm.KindLockTimeout)
}

// DefaultSemTimeout is the acquire timeout used when none is configured.
// It is deliberately much longer than the abstract-lock timeout because
// semaphores express conditional synchronization (waiting for a pipeline
// stage), not conflict detection.
const DefaultSemTimeout = time.Second

// Semaphore is the paper's transactional semaphore (§3.3): Acquire
// decrements immediately, blocking while the committed count is zero, and
// records an increment as its inverse; Release is disposable — it increments
// only when the transaction commits. The paper notes such semaphores cannot
// be built from read/write conflict detection without deadlock; they require
// boosting.
type Semaphore struct {
	mu      sync.Mutex
	count   int
	gen     chan struct{} // closed on each increment to wake waiters
	timeout time.Duration
	inc     func() // s.increment, bound once: Acquire's inverse and Release's disposable
}

// NewSemaphore returns a semaphore with the given initial count and the
// default acquire timeout.
func NewSemaphore(initial int) *Semaphore {
	return NewSemaphoreTimeout(initial, DefaultSemTimeout)
}

// NewSemaphoreTimeout returns a semaphore with the given initial count and
// acquire timeout.
func NewSemaphoreTimeout(initial int, timeout time.Duration) *Semaphore {
	if initial < 0 {
		initial = 0
	}
	if timeout <= 0 {
		timeout = DefaultSemTimeout
	}
	s := &Semaphore{count: initial, timeout: timeout}
	s.inc = s.increment
	return s
}

// Acquire decrements the semaphore on behalf of tx, blocking while the
// committed count is zero. The decrement takes effect immediately; if tx
// aborts, the logged inverse restores it. If the wait exceeds the timeout,
// tx aborts (breaking pipeline deadlocks).
func (s *Semaphore) Acquire(tx *stm.Tx) {
	switch faultpoint.Hit(faultpoint.SemAcquire) {
	case faultpoint.Timeout:
		tx.System().CountLockTimeout()
		tx.Abort(ErrSemTimeout)
	case faultpoint.Doom:
		tx.Doom()
	}
	if !s.acquireTimeout(tx, s.timeout) {
		if tx.Doomed() {
			tx.Abort(lockmgr.ErrWounded)
		}
		if err := tx.Context().Err(); err != nil {
			tx.Abort(err)
		}
		tx.System().CountLockTimeout()
		tx.Abort(ErrSemTimeout)
	}
	boost.Inverse(tx, s.inc)
}

func (s *Semaphore) acquireTimeout(tx *stm.Tx, timeout time.Duration) bool {
	var timer *time.Timer
	var expired <-chan time.Time
	for {
		s.mu.Lock()
		if s.count > 0 {
			s.count--
			s.mu.Unlock()
			if timer != nil {
				timer.Stop()
			}
			return true
		}
		if s.gen == nil {
			s.gen = make(chan struct{})
		}
		wait := s.gen
		s.mu.Unlock()

		if timer == nil {
			timer = time.NewTimer(timeout)
			expired = timer.C
		}
		select {
		case <-wait:
		case <-tx.DoomChan():
			timer.Stop()
			return false
		case <-tx.Done():
			timer.Stop()
			return false
		case <-expired:
			return false
		}
	}
}

// Release increments the semaphore when tx commits. Per Rule 4 the call is
// disposable: deferring it is unobservable, because no transaction can
// distinguish "not yet released" from "about to be released".
func (s *Semaphore) Release(tx *stm.Tx) {
	boost.OnCommit(tx, s.inc)
}

func (s *Semaphore) increment() {
	s.mu.Lock()
	s.count++
	if s.gen != nil {
		close(s.gen)
		s.gen = nil
	}
	s.mu.Unlock()
}

// Value returns the committed count. For tests and monitoring.
func (s *Semaphore) Value() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}
