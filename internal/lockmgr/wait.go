package lockmgr

import (
	"sync"
	"time"

	"tboost/internal/faultpoint"
	"tboost/internal/stm"
)

// waitList is the set of transactions parked on one lock (or one stripe of
// the interval table): an intrusive list through stm.Waiter, guarded by the
// mutex of the lock that embeds it. A release wakes every parked waiter —
// they recontend, as they did on the broadcast channel this replaces — and
// leaves the list empty, so parking and waking allocate nothing.
type waitList struct{ head *stm.Waiter }

// add parks w behind the waiters already there, so a release wakes them
// oldest first. A token left from a wait that gave up just as a release
// fired is drained first: w is on no list here, so nothing can be sending to
// it.
func (q *waitList) add(w *stm.Waiter) {
	select {
	case <-w.C:
	default:
	}
	p := &q.head
	for *p != nil {
		p = &(*p).Next
	}
	*p = w
}

// remove unparks w if a release has not already done so.
func (q *waitList) remove(w *stm.Waiter) {
	for p := &q.head; *p != nil; p = &(*p).Next {
		if *p == w {
			*p, w.Next = w.Next, nil
			return
		}
	}
}

// wakeAll unparks every waiter and hands each a token. The empty case — every
// uncontended grant and release — is decided inline.
func (q *waitList) wakeAll() {
	if q.head != nil {
		q.wake()
	}
}

// wake is wakeAll's slow half. The send cannot block: a waiter's one-token
// channel was drained when it parked and only the list it is parked on sends
// to it.
func (q *waitList) wake() {
	for w := q.head; w != nil; {
		next := w.Next
		w.Next = nil
		select {
		case w.C <- struct{}{}:
		default:
		}
		w = next
	}
	q.head = nil
}

// blocked is the bookkeeping of one blocked acquisition across all of its
// recontention rounds, shared by every wait loop in the package. The loop
// decides grants under its lock's mutex; when it must wait it reports the
// holders (conflict), parks under that same mutex — so a release either
// precedes the decision or finds the waiter on the list: no wake-up is
// lost — and sleeps after unlocking. end, deferred, runs on every exit.
//
// The timer, the doom channel and the waiter all live on the transaction's
// descriptor and are armed once for the whole wait: the timeout budget spans
// the rounds, and a descriptor that has blocked before blocks again without
// allocating.
type blocked struct {
	tx         *stm.Tx
	cp         ContentionPolicy // nil: timed acquisition only
	conflicted bool
	w          *stm.Waiter
	mu         *sync.Mutex // guards q; non-nil while w may still be parked there
	q          *waitList
	timer      *time.Timer
	doomed     <-chan struct{}
	start      time.Time
}

// conflict reports one grant holder standing in tx's way to the contention
// policy. Called with the lock's mutex held, which pins holder.
func (b *blocked) conflict(holder *stm.Tx) {
	if b.cp != nil {
		b.conflicted = true
		b.cp.OnConflict(b.tx, holder)
	}
}

// park registers the wait on q, whose mutex mu the caller holds.
func (b *blocked) park(mu *sync.Mutex, q *waitList) {
	if b.w == nil {
		b.w = b.tx.LockWaiter()
	}
	q.add(b.w)
	b.mu, b.q = mu, q
}

// armed reports whether an earlier round already started the wait's timer.
func (b *blocked) armed() bool { return b.timer != nil }

// sleep blocks until a release wakes the parked waiter (true: recontend) or
// the wait must be abandoned (false): the timeout budget is spent, tx was
// doomed, or its context was cancelled. The LockWait failpoint sits between
// the doom channel becoming available and the select: a Delay widens the
// doom/wake-up race window, Timeout forces the expired path, Doom simulates
// a wound landing right now.
func (b *blocked) sleep(timeout time.Duration) bool {
	if b.timer == nil {
		b.timer = b.tx.WaitTimer(timeout)
		b.doomed = b.tx.DoomChan()
		b.start = time.Now()
	}
	switch faultpoint.Hit(faultpoint.LockWait) {
	case faultpoint.Timeout:
		return false
	case faultpoint.Doom:
		b.tx.Doom()
	}
	select {
	case <-b.w.C:
		b.mu = nil // the release unparked us
		return true
	case <-b.doomed:
	case <-b.tx.Done():
	case <-b.timer.C:
	}
	return false
}

// granted feeds the adaptive-timeout estimator with how long a grant that
// had to block actually waited, and returns it (zero if it never blocked).
func (b *blocked) granted() time.Duration {
	if b.timer == nil {
		return 0
	}
	waited := time.Since(b.start)
	b.tx.System().ObserveWait(waited)
	return waited
}

// end closes the wait on every exit path: the timer is stopped, a waiter
// still parked (timeout, doom, cancellation, failpoint) is unparked so no
// list ever holds a descriptor that has moved on, and the policy hears that
// the waits it was told about are over.
func (b *blocked) end() {
	if b.timer != nil {
		b.timer.Stop()
	}
	if b.mu != nil {
		b.mu.Lock()
		b.q.remove(b.w)
		b.mu.Unlock()
	}
	if b.conflicted {
		b.cp.OnWaitEnd(b.tx)
	}
}
