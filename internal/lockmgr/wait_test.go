package lockmgr

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"tboost/internal/faultpoint"
	"tboost/internal/stm"
)

// The hazards of waking blocked acquisitions through descriptor-resident
// waiters instead of a channel closed per release (DESIGN.md §12,
// "Invariants": waiter deregistered on every exit).

func parked(l *OwnerLock) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for w := l.waiters.head; w != nil; w = w.Next {
		n++
	}
	return n
}

// awaitParked waits for exactly n parked waiters; it reports a failure
// without stopping the caller, which may be a helper goroutine.
func awaitParked(t *testing.T, l *OwnerLock, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); parked(l) != n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d waiters parked, want %d", parked(l), n)
			return
		}
	}
}

// A release landing after the waiter parked but before it selects must not
// be lost: the token waits in the waiter's one-slot channel. The window is
// forced open with a delay at the LockWait failpoint, which sits between the
// two; a lost wake-up would sleep out the five-second lock timeout.
func TestReleaseBetweenParkAndSleepIsNotLost(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	faultpoint.Enable(faultpoint.LockWait, faultpoint.Trigger{
		Effect: faultpoint.Delay, Delay: 100 * time.Millisecond, OneShot: true,
	})
	sys := stm.NewSystem(stm.Config{LockTimeout: 5 * time.Second, MaxRetries: 1})
	l := NewOwnerLock()
	release := make(chan struct{})
	var wg sync.WaitGroup
	holdLock(t, sys, l, &wg, release)
	go func() {
		for parked(l) == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		close(release) // the waiter is parked and stalled short of its select
	}()
	start := time.Now()
	run(t, sys, func(tx *stm.Tx) { l.Acquire(tx) })
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("granted after %v: the release that beat the select was lost", elapsed)
	}
}

// Every way out of a wait other than being woken — timeout, doom, context
// cancellation, an injected failure — must unpark the waiter: the descriptor
// moves on (to another lock, another transaction) and a list still holding
// it would wake, or corrupt, a stranger.
func TestAbandonedWaitsLeaveNoWaiterParked(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	sys := stm.NewSystem(stm.Config{LockTimeout: 5 * time.Second, MaxRetries: 1})
	l := NewOwnerLock()
	release := make(chan struct{})
	var wg sync.WaitGroup
	holdLock(t, sys, l, &wg, release)

	t.Run("timeout", func(t *testing.T) {
		run(t, sys, func(tx *stm.Tx) {
			if l.TryAcquire(tx, time.Millisecond) {
				t.Error("held lock granted")
			}
		})
		awaitParked(t, l, 0)
	})
	t.Run("doom", func(t *testing.T) {
		err := sys.Atomic(func(tx *stm.Tx) error {
			go func() { awaitParked(t, l, 1); tx.Doom() }()
			l.Acquire(tx)
			return nil
		})
		if !errors.Is(err, stm.ErrTooManyRetries) {
			t.Fatalf("doomed waiter: %v", err)
		}
		awaitParked(t, l, 0)
	})
	t.Run("context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { awaitParked(t, l, 1); cancel() }()
		err := sys.AtomicCtx(ctx, func(tx *stm.Tx) error { l.Acquire(tx); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter: %v", err)
		}
		awaitParked(t, l, 0)
	})
	t.Run("failpoint", func(t *testing.T) {
		faultpoint.Enable(faultpoint.LockWait, faultpoint.Trigger{Effect: faultpoint.Timeout, OneShot: true})
		err := sys.Atomic(func(tx *stm.Tx) error { l.Acquire(tx); return nil })
		if err == nil {
			t.Fatal("injected wait failure granted the lock")
		}
		awaitParked(t, l, 0)
	})
	close(release)
	wg.Wait()
	run(t, sys, func(tx *stm.Tx) { l.Acquire(tx) }) // and the lock still works
}

// A wait that times out in the instant a release fires leaves the release's
// token behind in the descriptor's waiter. The next wait must drain it when
// it parks, or it would wake at once on a release that never happened (one
// wasted recontention round per stale token, and a miscounted conflict).
func TestStaleTokenDrainedBeforeNextWait(t *testing.T) {
	sys := stm.NewSystem(stm.Config{LockTimeout: 5 * time.Second})
	a, b := NewOwnerLock(), NewOwnerLock()
	run(t, sys, func(holder *stm.Tx) {
		a.Acquire(holder)
		b.Acquire(holder)
		run(t, sys, func(tx *stm.Tx) {
			// Park on a, and let the release reach the waiter while the wait
			// is already lost: exactly what a timeout racing a release does.
			w := tx.LockWaiter()
			a.mu.Lock()
			a.waiters.add(w)
			a.mu.Unlock()
			a.Unlock(holder)
			if len(w.C) != 1 || parked(a) != 0 {
				t.Fatalf("release left %d tokens and %d parked, want 1 and 0", len(w.C), parked(a))
			}
			// The same descriptor now waits for b, which nobody releases.
			meter := NewContentionMeter(nil)
			b.SetMeter(meter)
			if b.TryAcquire(tx, 20*time.Millisecond) {
				t.Fatal("held lock granted")
			}
			if got := meter.Conflicts(); got != 1 {
				t.Fatalf("%d blocking rounds on a lock that was never released, want 1: the stale token woke the wait", got)
			}
		})
	})
}

// Branches of one Parallel transaction can block on different locks at the
// same moment; each needs a waiter of its own (the descriptor's single one
// would be parked on two lists). Both must be woken by their own release.
func TestParallelBranchesWaitOnDifferentLocksAtOnce(t *testing.T) {
	sys := stm.NewSystem(stm.Config{LockTimeout: 5 * time.Second})
	a, b := NewOwnerLock(), NewOwnerLock()
	relA, relB := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	holdLock(t, sys, a, &wg, relA)
	holdLock(t, sys, b, &wg, relB)
	go func() {
		for parked(a) == 0 || parked(b) == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		close(relB) // both branches are parked at once: wake them one by one
		close(relA)
	}()
	err := sys.Atomic(func(tx *stm.Tx) error {
		return tx.Parallel(
			func(tx *stm.Tx) error { a.Acquire(tx); return nil },
			func(tx *stm.Tx) error { b.Acquire(tx); return nil },
		)
	})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if a.Locked() || b.Locked() || parked(a)+parked(b) != 0 {
		t.Fatal("locks or waiters left behind")
	}
}
