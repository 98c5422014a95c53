package lockmgr

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tboost/internal/stm"
)

func TestWoundWaitOlderWoundsYounger(t *testing.T) {
	sys := stm.NewSystem(stm.Config{LockTimeout: 2 * time.Second})
	l := NewOwnerLockPolicy(WoundWait)

	// The OLDER transaction starts first but acquires the lock second.
	olderStarted := make(chan struct{})
	youngerHolds := make(chan struct{})
	var youngerAttempts atomic.Int32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // older
		defer wg.Done()
		err := sys.Atomic(func(tx *stm.Tx) error {
			if tx.Attempt() == 0 {
				close(olderStarted)
				<-youngerHolds
			}
			l.Acquire(tx) // wounds the younger holder
			return nil
		})
		if err != nil {
			t.Errorf("older: %v", err)
		}
	}()
	go func() { // younger: grabs the lock, then dawdles toward commit
		defer wg.Done()
		<-olderStarted
		err := sys.Atomic(func(tx *stm.Tx) error {
			youngerAttempts.Add(1)
			l.Acquire(tx)
			if tx.Attempt() == 0 {
				close(youngerHolds)
				time.Sleep(50 * time.Millisecond) // think time while wounded
			}
			return nil
		})
		if err != nil {
			t.Errorf("younger: %v", err)
		}
	}()
	wg.Wait()
	if youngerAttempts.Load() < 2 {
		t.Fatalf("younger committed without being wounded (attempts=%d)", youngerAttempts.Load())
	}
	if l.Locked() {
		t.Fatal("lock leaked")
	}
}

func TestWoundWaitYoungerWaitsForOlder(t *testing.T) {
	sys := stm.NewSystem(stm.Config{LockTimeout: 2 * time.Second})
	l := NewOwnerLockPolicy(WoundWait)
	olderHolds := make(chan struct{})
	release := make(chan struct{})
	var olderAborted atomic.Bool
	done := make(chan struct{})
	go func() { // older holds the lock
		_ = sys.Atomic(func(tx *stm.Tx) error {
			if tx.Attempt() > 0 {
				olderAborted.Store(true)
			}
			l.Acquire(tx)
			if tx.Attempt() == 0 {
				close(olderHolds)
				<-release
			}
			return nil
		})
		close(done)
	}()
	<-olderHolds
	// Younger requester: must wait, not wound.
	start := time.Now()
	time.AfterFunc(40*time.Millisecond, func() { close(release) })
	if err := sys.Atomic(func(tx *stm.Tx) error {
		l.Acquire(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-done
	if olderAborted.Load() {
		t.Fatal("younger requester wounded the older holder")
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("younger did not actually wait for the older holder")
	}
}

func TestWoundWaitResolvesDeadlockWithoutTimeout(t *testing.T) {
	// ABBA deadlock with a LONG timeout: wound-wait must resolve it fast
	// (the timeout-only policy would stall for the full timeout).
	sys := stm.NewSystem(stm.Config{LockTimeout: 30 * time.Second})
	a := NewOwnerLockPolicy(WoundWait)
	b := NewOwnerLockPolicy(WoundWait)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := sys.Atomic(func(tx *stm.Tx) error {
				first, second := a, b
				if i == 1 {
					first, second = b, a
				}
				first.Acquire(tx)
				time.Sleep(5 * time.Millisecond) // guarantee the overlap
				second.Acquire(tx)
				return nil
			})
			if err != nil {
				t.Errorf("tx %d: %v", i, err)
			}
		}()
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("wound-wait failed to resolve the deadlock")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("resolution took %v; wound-wait should not wait out the 30s timeout", elapsed)
	}
}

func TestWoundWaitLockMap(t *testing.T) {
	sys := stm.NewSystem(stm.Config{LockTimeout: 10 * time.Second})
	m := NewLockMapPolicy[int](8, WoundWait)
	// Transactions acquire two keys in opposite orders, repeatedly:
	// guaranteed deadlock pattern, resolved by wounding.
	var wg sync.WaitGroup
	counters := make([]int, 2)
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				err := sys.Atomic(func(tx *stm.Tx) error {
					k1, k2 := g%2, 1-g%2
					m.Lock(tx, k1)
					m.Lock(tx, k2)
					counters[k1]++
					counters[k2]++
					// A wound can land after the increments and fail the
					// commit; the retry must not count twice.
					tx.Log(func() { counters[k1]--; counters[k2]-- })
					return nil
				})
				if err != nil {
					t.Errorf("Atomic: %v", err)
					return
				}
			}
		}()
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(30 * time.Second):
		t.Fatal("wound-wait LockMap deadlocked")
	}
	if counters[0] != 200 || counters[1] != 200 {
		t.Fatalf("counters = %v, want [200 200] (lost updates)", counters)
	}
}

func TestWoundedCauseReported(t *testing.T) {
	// Contract: once a transaction has been wounded (doomed), its next
	// lock acquisition aborts it with cause ErrWounded, and the retry
	// succeeds. The wound is injected directly, standing in for an older
	// transaction's wound-wait rule.
	sys := stm.NewSystem(stm.Config{LockTimeout: 5 * time.Second})
	l := NewOwnerLockPolicy(WoundWait)
	var sawWounded atomic.Bool
	attempts := 0
	err := sys.Atomic(func(tx *stm.Tx) error {
		attempts++
		if attempts == 1 {
			tx.Doom()
			tx.OnAbort(func() {
				if errors.Is(tx.Cause(), ErrWounded) {
					sawWounded.Store(true)
				}
			})
			l.Acquire(tx) // doomed: must abort with ErrWounded
			t.Error("unreachable: doomed acquisition returned")
		}
		l.Acquire(tx)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if !sawWounded.Load() {
		t.Fatal("abort cause was not ErrWounded")
	}
	if l.Locked() {
		t.Fatal("lock leaked")
	}
}
