package core

import (
	"sync"
	"tboost/internal/boost"

	"tboost/internal/stm"
)

// RefCount is the paper's transactional reference count (§2): increments
// take effect immediately (with a logged decrement as inverse), while
// decrements are disposable and deferred until after commit — so an object
// can never be freed by a transaction that later aborts, and frees may be
// batched arbitrarily late.
type RefCount struct {
	mu      sync.Mutex
	count   int64
	onZero  func()
	dropped bool
	decr    func() // r.dec, bound once: Inc's inverse and Dec's disposable
}

// NewRefCount returns a reference count with the given initial value.
// onZero, if non-nil, runs once when the committed count first reaches zero
// (the "space can be freed" hook).
func NewRefCount(initial int64, onZero func()) *RefCount {
	if initial < 0 {
		initial = 0
	}
	r := &RefCount{count: initial, onZero: onZero}
	r.decr = r.dec
	return r
}

// Inc increments the count immediately; if tx aborts, the logged inverse
// decrements it again (without triggering onZero semantics differently:
// an aborted Inc leaves no trace).
func (r *RefCount) Inc(tx *stm.Tx) {
	r.add(1)
	boost.Inverse(tx, r.decr)
}

// Dec schedules a decrement for after tx commits. The call is disposable:
// no transaction can observe whether a pending decrement has happened yet,
// because the count may only be compared against zero by the reclaimer.
func (r *RefCount) Dec(tx *stm.Tx) {
	boost.OnCommit(tx, r.decr)
}

func (r *RefCount) dec() { r.add(-1) }

func (r *RefCount) add(d int64) {
	r.mu.Lock()
	r.count += d
	fire := r.count == 0 && !r.dropped && r.onZero != nil
	if fire {
		r.dropped = true
	}
	f := r.onZero
	r.mu.Unlock()
	if fire {
		f()
	}
}

// Value returns the committed count.
func (r *RefCount) Value() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}
