package core

import (
	"sync"
	"tboost/internal/boost"
	"time"

	"tboost/internal/stm"
)

// Privatizer manages the hand-off of an object between transactional and
// non-transactional use — the "counters used to manage privatization"
// application of disposability the paper sketches in §2.
//
// Transactions call Access before touching the protected object; the
// accessor count rises immediately (inverse: decrement) and falls only
// after commit — the decrement is disposable, so a transaction that has
// logically finished may linger in the count without anyone being able to
// tell. A thread that wants private (non-transactional) access calls
// Privatize, which turns away new transactional accessors and waits for the
// count to drain; the returned release function re-opens transactional
// access.
type Privatizer struct {
	mu        sync.Mutex
	accessors int
	private   bool
	gen       chan struct{} // closed on each state change
	leave     func()        // p.exit, bound once: Access's inverse and its disposable
}

// NewPrivatizer returns a Privatizer in shared (transactional) mode.
func NewPrivatizer() *Privatizer {
	p := &Privatizer{}
	p.leave = p.exit
	return p
}

func (p *Privatizer) broadcast() {
	if p.gen != nil {
		close(p.gen)
		p.gen = nil
	}
}

func (p *Privatizer) waitCh() chan struct{} {
	if p.gen == nil {
		p.gen = make(chan struct{})
	}
	return p.gen
}

// Access registers tx as a transactional accessor of the protected object,
// blocking (and eventually aborting tx) while the object is privatized.
// The registration ends after tx commits or aborts.
func (p *Privatizer) Access(tx *stm.Tx) {
	timeout := tx.System().LockTimeout()
	var timer *time.Timer
	var expired <-chan time.Time
	for {
		p.mu.Lock()
		if !p.private {
			p.accessors++
			p.mu.Unlock()
			if timer != nil {
				timer.Stop()
			}
			// Undo on abort; disposable decrement after commit.
			boost.Inverse(tx, p.leave)
			boost.OnCommit(tx, p.leave)
			return
		}
		wait := p.waitCh()
		p.mu.Unlock()

		if timer == nil {
			timer = time.NewTimer(timeout)
			expired = timer.C
		}
		select {
		case <-wait:
		case <-expired:
			tx.System().CountLockTimeout()
			tx.Abort(stm.ErrAborted)
		}
	}
}

func (p *Privatizer) exit() {
	p.mu.Lock()
	p.accessors--
	if p.accessors == 0 {
		p.broadcast()
	}
	p.mu.Unlock()
}

// Privatize blocks new transactional accessors and waits until in-flight
// transactional accessors drain, then returns a release function. Between
// Privatize returning and release being called, the caller has exclusive
// non-transactional access to the protected object.
func (p *Privatizer) Privatize() (release func()) {
	p.mu.Lock()
	for p.private {
		// Another privatizer holds the object; queue behind it.
		wait := p.waitCh()
		p.mu.Unlock()
		<-wait
		p.mu.Lock()
	}
	p.private = true
	for p.accessors > 0 {
		wait := p.waitCh()
		p.mu.Unlock()
		<-wait
		p.mu.Lock()
	}
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		p.private = false
		p.broadcast()
		p.mu.Unlock()
	}
}

// Accessors reports the current transactional accessor count. For tests.
func (p *Privatizer) Accessors() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accessors
}
