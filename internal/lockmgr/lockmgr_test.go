package lockmgr

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tboost/internal/stm"
)

// run executes fn inside a transaction on a fresh system with a short lock
// timeout, failing the test on unexpected errors.
func run(t *testing.T, sys *stm.System, fn func(tx *stm.Tx)) {
	t.Helper()
	if err := sys.Atomic(func(tx *stm.Tx) error { fn(tx); return nil }); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
}

func newSys() *stm.System {
	return stm.NewSystem(stm.Config{LockTimeout: 20 * time.Millisecond})
}

func TestOwnerLockBasicAcquireRelease(t *testing.T) {
	sys := newSys()
	l := NewOwnerLock()
	run(t, sys, func(tx *stm.Tx) {
		l.Acquire(tx)
		if !l.HeldBy(tx) {
			t.Error("HeldBy = false after Acquire")
		}
		if !l.Locked() {
			t.Error("Locked = false after Acquire")
		}
	})
	if l.Locked() {
		t.Fatal("lock still held after commit (two-phase release failed)")
	}
}

func TestOwnerLockReleasedOnAbort(t *testing.T) {
	sys := newSys()
	l := NewOwnerLock()
	attempts := 0
	err := sys.Atomic(func(tx *stm.Tx) error {
		attempts++
		l.Acquire(tx)
		if attempts == 1 {
			tx.Abort(nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (retry must reacquire released lock)", attempts)
	}
	if l.Locked() {
		t.Fatal("lock leaked after abort")
	}
}

func TestOwnerLockReentrant(t *testing.T) {
	sys := newSys()
	l := NewOwnerLock()
	run(t, sys, func(tx *stm.Tx) {
		l.Acquire(tx)
		l.Acquire(tx) // must not deadlock
		if tx.LockCount() != 1 {
			t.Errorf("LockCount = %d, want 1", tx.LockCount())
		}
	})
	if l.Locked() {
		t.Fatal("lock leaked")
	}
}

func TestOwnerLockMutualExclusion(t *testing.T) {
	sys := stm.NewSystem(stm.Config{LockTimeout: 200 * time.Millisecond})
	l := NewOwnerLock()
	var inside atomic.Int32
	var maxInside atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				err := sys.Atomic(func(tx *stm.Tx) error {
					l.Acquire(tx)
					n := inside.Add(1)
					for {
						m := maxInside.Load()
						if n <= m || maxInside.CompareAndSwap(m, n) {
							break
						}
					}
					inside.Add(-1)
					return nil
				})
				if err != nil {
					t.Errorf("Atomic: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if maxInside.Load() != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxInside.Load())
	}
}

func TestOwnerLockTimeoutAbortsAndRetries(t *testing.T) {
	sys := stm.NewSystem(stm.Config{LockTimeout: 5 * time.Millisecond, MaxRetries: 2})
	l := NewOwnerLock()

	// A foreign transaction holds the lock for the whole test.
	holderStarted := make(chan struct{})
	holderRelease := make(chan struct{})
	go func() {
		_ = sys.Atomic(func(tx *stm.Tx) error {
			l.Acquire(tx)
			close(holderStarted)
			<-holderRelease
			return nil
		})
	}()
	<-holderStarted

	err := sys.Atomic(func(tx *stm.Tx) error {
		l.Acquire(tx) // must time out and abort
		return nil
	})
	close(holderRelease)
	if !errors.Is(err, stm.ErrTooManyRetries) {
		t.Fatalf("err = %v, want ErrTooManyRetries", err)
	}
	if st := sys.Stats(); st.LockTimeouts < 2 {
		t.Fatalf("LockTimeouts = %d, want >= 2", st.LockTimeouts)
	}
}

func TestOwnerLockTryAcquireFalseLeavesNoRegistration(t *testing.T) {
	sys := newSys()
	l := NewOwnerLock()
	blocked := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_ = sys.Atomic(func(tx *stm.Tx) error {
			l.Acquire(tx)
			close(blocked)
			<-release
			return nil
		})
	}()
	<-blocked
	run(t, sys, func(tx *stm.Tx) {
		if l.TryAcquire(tx, time.Millisecond) {
			t.Error("TryAcquire succeeded against a held lock")
		}
		if tx.Holds(l) {
			t.Error("failed TryAcquire left the lock registered")
		}
	})
	close(release)
}

func TestOwnerLockDeadlockRecoversByTimeout(t *testing.T) {
	// Classic ABBA deadlock: both transactions must eventually commit
	// because timed acquisition aborts one of them (the paper's recovery
	// story for two-phase locking).
	sys := stm.NewSystem(stm.Config{LockTimeout: 3 * time.Millisecond})
	a, b := NewOwnerLock(), NewOwnerLock()
	var wg sync.WaitGroup
	var commits atomic.Int32
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = sys.Atomic(func(tx *stm.Tx) error {
			a.Acquire(tx)
			time.Sleep(time.Millisecond)
			b.Acquire(tx)
			commits.Add(1)
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		_ = sys.Atomic(func(tx *stm.Tx) error {
			b.Acquire(tx)
			time.Sleep(time.Millisecond)
			a.Acquire(tx)
			commits.Add(1)
			return nil
		})
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock was not recovered by lock timeouts")
	}
	if commits.Load() != 2 {
		t.Fatalf("commits = %d, want 2", commits.Load())
	}
}

func TestOwnerLockString(t *testing.T) {
	sys := newSys()
	l := NewOwnerLock()
	if s := l.String(); s != "OwnerLock(free)" {
		t.Fatalf("String = %q", s)
	}
	run(t, sys, func(tx *stm.Tx) {
		l.Acquire(tx)
		if s := l.String(); s == "OwnerLock(free)" {
			t.Error("String reports free while held")
		}
	})
}

// The zero value is an unlocked lock: it grants, excludes, and releases at
// commit like a constructed one.
func TestZeroValueOwnerLockUsable(t *testing.T) {
	sys := newSys()
	var l OwnerLock
	l.Unlock(nil) // releasing a lock nobody holds is a no-op
	run(t, sys, func(tx *stm.Tx) {
		l.Acquire(tx)
		if !l.HeldBy(tx) || !l.Locked() {
			t.Error("zero-value lock not held after Acquire")
		}
		done := make(chan bool)
		go func() {
			ok := true
			_ = sys.Atomic(func(other *stm.Tx) error {
				ok = l.TryAcquire(other, time.Millisecond)
				return nil
			})
			done <- ok
		}()
		if <-done {
			t.Error("zero-value lock granted to a second transaction")
		}
	})
	if l.Locked() {
		t.Fatal("zero-value lock still held after commit")
	}
}

// --- RWOwnerLock ---

func TestRWSharedReaders(t *testing.T) {
	sys := newSys()
	l := NewRWOwnerLock()
	// Two concurrent transactions both hold read mode at once.
	t1in, t2in := make(chan struct{}), make(chan struct{})
	proceed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		run(t, sys, func(tx *stm.Tx) {
			l.RLock(tx)
			close(t1in)
			<-proceed
		})
	}()
	go func() {
		defer wg.Done()
		run(t, sys, func(tx *stm.Tx) {
			l.RLock(tx)
			close(t2in)
			<-proceed
		})
	}()
	<-t1in
	<-t2in
	if n := l.Readers(); n != 2 {
		t.Errorf("Readers = %d, want 2", n)
	}
	close(proceed)
	wg.Wait()
	if l.Readers() != 0 {
		t.Fatal("readers leaked")
	}
}

func TestRWWriterExcludesReaders(t *testing.T) {
	sys := stm.NewSystem(stm.Config{LockTimeout: 5 * time.Millisecond, MaxRetries: 1})
	l := NewRWOwnerLock()
	wHeld := make(chan struct{})
	wRelease := make(chan struct{})
	go func() {
		_ = sys.Atomic(func(tx *stm.Tx) error {
			l.WLock(tx)
			close(wHeld)
			<-wRelease
			return nil
		})
	}()
	<-wHeld
	err := sys.Atomic(func(tx *stm.Tx) error {
		l.RLock(tx)
		return nil
	})
	close(wRelease)
	if !errors.Is(err, stm.ErrTooManyRetries) {
		t.Fatalf("reader against writer: err = %v, want timeout abort", err)
	}
}

func TestRWReaderExcludesWriter(t *testing.T) {
	sys := stm.NewSystem(stm.Config{LockTimeout: 5 * time.Millisecond, MaxRetries: 1})
	l := NewRWOwnerLock()
	rHeld := make(chan struct{})
	rRelease := make(chan struct{})
	go func() {
		_ = sys.Atomic(func(tx *stm.Tx) error {
			l.RLock(tx)
			close(rHeld)
			<-rRelease
			return nil
		})
	}()
	<-rHeld
	err := sys.Atomic(func(tx *stm.Tx) error {
		l.WLock(tx)
		return nil
	})
	close(rRelease)
	if !errors.Is(err, stm.ErrTooManyRetries) {
		t.Fatalf("writer against reader: err = %v, want timeout abort", err)
	}
}

func TestRWUpgradeSoleReader(t *testing.T) {
	sys := newSys()
	l := NewRWOwnerLock()
	run(t, sys, func(tx *stm.Tx) {
		l.RLock(tx)
		l.WLock(tx) // sole reader upgrades in place
		if !l.WriteHeldBy(tx) {
			t.Error("upgrade failed")
		}
		if l.ReadHeldBy(tx) {
			t.Error("still counted as reader after upgrade")
		}
		if tx.LockCount() != 1 {
			t.Errorf("LockCount = %d, want 1 (same lock object)", tx.LockCount())
		}
	})
	if l.Readers() != 0 {
		t.Fatal("reader leaked after upgrade+commit")
	}
}

func TestRWWriteModeSubsumesRead(t *testing.T) {
	sys := newSys()
	l := NewRWOwnerLock()
	run(t, sys, func(tx *stm.Tx) {
		l.WLock(tx)
		l.RLock(tx) // must not deadlock or downgrade
		if !l.WriteHeldBy(tx) {
			t.Error("write mode lost after RLock")
		}
	})
}

func TestRWReentrantReads(t *testing.T) {
	sys := newSys()
	l := NewRWOwnerLock()
	run(t, sys, func(tx *stm.Tx) {
		l.RLock(tx)
		l.RLock(tx)
		if l.Readers() != 1 {
			t.Errorf("Readers = %d, want 1", l.Readers())
		}
	})
	if l.Readers() != 0 {
		t.Fatal("reader leaked")
	}
}

func TestRWReleasedOnAbort(t *testing.T) {
	sys := newSys()
	l := NewRWOwnerLock()
	attempts := 0
	err := sys.Atomic(func(tx *stm.Tx) error {
		attempts++
		l.WLock(tx)
		if attempts == 1 {
			tx.Abort(nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Readers() != 0 {
		t.Fatal("lock leaked after abort")
	}
	run(t, sys, func(tx *stm.Tx) { l.WLock(tx) }) // must be acquirable
}

func TestRWConcurrentStress(t *testing.T) {
	sys := stm.NewSystem(stm.Config{LockTimeout: 100 * time.Millisecond})
	l := NewRWOwnerLock()
	var readers, writers atomic.Int32
	var wg sync.WaitGroup
	fail := make(chan string, 1)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = sys.Atomic(func(tx *stm.Tx) error {
					if (g+i)%4 == 0 {
						l.WLock(tx)
						writers.Add(1)
						if readers.Load() != 0 || writers.Load() != 1 {
							select {
							case fail <- "writer overlapped with others":
							default:
							}
						}
						writers.Add(-1)
					} else {
						l.RLock(tx)
						readers.Add(1)
						if writers.Load() != 0 {
							select {
							case fail <- "reader overlapped with writer":
							default:
							}
						}
						readers.Add(-1)
					}
					return nil
				})
			}
		}()
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// --- LockMap ---

func TestLockMapSameKeySameLock(t *testing.T) {
	m := NewLockMap[int]()
	if m.Get(7) != m.Get(7) {
		t.Fatal("same key produced different locks")
	}
	if m.Get(7) == m.Get(8) {
		t.Fatal("different keys produced the same lock")
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

func TestLockMapLockConflictsOnlyOnSameKey(t *testing.T) {
	sys := stm.NewSystem(stm.Config{LockTimeout: 5 * time.Millisecond, MaxRetries: 1})
	m := NewLockMap[int]()

	held := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_ = sys.Atomic(func(tx *stm.Tx) error {
			m.Lock(tx, 1)
			close(held)
			<-release
			return nil
		})
	}()
	<-held

	// Different key: proceeds immediately.
	if err := sys.Atomic(func(tx *stm.Tx) error {
		m.Lock(tx, 2)
		return nil
	}); err != nil {
		t.Fatalf("disjoint key blocked: %v", err)
	}

	// Same key: must time out.
	err := sys.Atomic(func(tx *stm.Tx) error {
		m.Lock(tx, 1)
		return nil
	})
	close(release)
	if !errors.Is(err, stm.ErrTooManyRetries) {
		t.Fatalf("same-key lock: err = %v, want timeout abort", err)
	}
}

func TestLockMapConcurrentGetRace(t *testing.T) {
	m := NewLockMapStripes[int](4)
	const goroutines = 16
	locks := make([]*OwnerLock, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			locks[g] = m.Get(42)
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if locks[g] != locks[0] {
			t.Fatal("racing Gets for one key returned different locks")
		}
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestLockMapStripesClamped(t *testing.T) {
	m := NewLockMapStripes[string](0)
	if m.Stripes() != 1 {
		t.Fatalf("Stripes = %d, want 1", m.Stripes())
	}
	m.Get("x")
	if m.Len() != 1 {
		t.Fatal("single-stripe map broken")
	}
}

func TestLockMapManyKeysManyGoroutines(t *testing.T) {
	sys := stm.NewSystem(stm.Config{LockTimeout: 200 * time.Millisecond})
	m := NewLockMap[int]()
	var wg sync.WaitGroup
	counters := make([]int, 32)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g*7 + i) % len(counters)
				err := sys.Atomic(func(tx *stm.Tx) error {
					m.Lock(tx, k)
					counters[k]++ // protected by the abstract lock
					return nil
				})
				if err != nil {
					t.Errorf("Atomic: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != 8*200 {
		t.Fatalf("total increments = %d, want %d (lost update => broken exclusion)", total, 8*200)
	}
}
