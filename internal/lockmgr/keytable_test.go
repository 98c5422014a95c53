package lockmgr

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tboost/internal/stm"
)

// The insert-only keyTable under LockMap and StripedRangeLock must keep
// putIfAbsent semantics under racing installs and across growths: every
// goroutine asking for a key gets the same lock instance, for ever, with
// hits never touching the stripe mutex.

func TestLockMapConcurrentInstallSameLock(t *testing.T) {
	m := NewLockMapStripes[int64](4) // few stripes: force install races
	const gs, keys = 8, 256
	got := make([][]*OwnerLock, gs)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			locks := make([]*OwnerLock, keys)
			for k := int64(0); k < keys; k++ {
				locks[k] = m.Get(k)
			}
			got[g] = locks
		}()
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		for g := 1; g < gs; g++ {
			if got[g][k] != got[0][k] {
				t.Fatalf("key %d: goroutine %d got a different lock", k, g)
			}
		}
	}
	if n := m.Len(); n != keys {
		t.Fatalf("Len = %d, want %d", n, keys)
	}
}

func TestLockMapGetStableAcrossLaterInstalls(t *testing.T) {
	m := NewLockMapStripes[int64](1) // one stripe: the later installs grow it four times
	first := m.Get(1)
	for k := int64(2); k < 100; k++ {
		m.Get(k)
	}
	if m.Get(1) != first {
		t.Fatal("install of other keys replaced an existing lock")
	}
}

func TestLockMapLegacyReadsSameSemantics(t *testing.T) {
	SetLegacyMapReads(true)
	defer SetLegacyMapReads(false)
	m := NewLockMap[string]()
	a := m.Get("a")
	if m.Get("a") != a {
		t.Fatal("legacy read path returned a different lock")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

// One stripe, eight goroutines walking overlapping key windows through at
// least five doublings of the one table (8 slots to 4096): a reader that
// misses in an array a grow has replaced must still end up with the lock the
// winner installed.
func TestKeyTableConcurrentInstallAcrossGrowths(t *testing.T) {
	m := NewLockMapStripes[int64](1)
	const gs, span, step = 8, 1024, 128 // goroutine g asks for [g*step, g*step+span)
	const keys = (gs-1)*step + span
	got := make([][]*OwnerLock, gs)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			locks := make([]*OwnerLock, span)
			for i := range locks {
				locks[i] = m.Get(int64(g*step + i))
			}
			got[g] = locks
		}()
	}
	wg.Wait()
	if n := m.Len(); n != keys {
		t.Fatalf("Len = %d, want %d", n, keys)
	}
	for k := 0; k < keys; k++ {
		want := m.Get(int64(k))
		for g := 0; g < gs; g++ {
			if i := k - g*step; i >= 0 && i < span && got[g][i] != want {
				t.Fatalf("key %d: goroutine %d got a different lock", k, g)
			}
		}
	}
	if n := m.Len(); n != keys {
		t.Fatalf("Len = %d after re-reading, want %d", n, keys)
	}
}

// A hit takes no mutex: with the stripe mutex held by the test, Get of an
// installed key from another goroutine still returns.
func TestLockMapHitTakesNoMutex(t *testing.T) {
	m := NewLockMapStripes[int64](1)
	want := m.Get(7)
	s := &m.stripes[0]
	s.mu.Lock()
	got := make(chan *OwnerLock, 1)
	go func() { got <- m.Get(7) }()
	select {
	case l := <-got:
		s.mu.Unlock()
		if l != want {
			t.Fatal("hit returned a different lock")
		}
	case <-time.After(5 * time.Second):
		s.mu.Unlock()
		t.Fatal("Get of an installed key blocked on the stripe mutex")
	}
}

// A lock pointer taken before the table grows is the one returned after,
// and it still excludes: the holder's ownership is visible through the
// pointer a later Get returns.
func TestLockPointerSurvivesGrowthAndExcludes(t *testing.T) {
	sys := newSys()
	m := NewLockMapStripes[int64](1)
	run(t, sys, func(tx *stm.Tx) {
		before := m.Get(1)
		before.Acquire(tx)
		for k := int64(2); k < 2000; k++ {
			m.Get(k)
		}
		after := m.Get(1)
		if after != before {
			t.Fatal("growth moved an installed lock")
		}
		granted := make(chan bool)
		go func() {
			ok := true
			_ = sys.Atomic(func(other *stm.Tx) error {
				ok = after.TryAcquire(other, time.Millisecond)
				return nil
			})
			granted <- ok
		}()
		if <-granted {
			t.Fatal("lock held before the growth was granted again after it")
		}
	})
}

func TestLockMapStringAndStructKeys(t *testing.T) {
	type point struct {
		x, y int32
		tag  string
	}
	ms := NewLockMapStripes[string](2)
	mp := NewLockMapStripes[point](2)
	var ls []*OwnerLock
	var lp []*OwnerLock
	for i := 0; i < 500; i++ {
		ls = append(ls, ms.Get(fmt.Sprint("key-", i)))
		lp = append(lp, mp.Get(point{int32(i), int32(-i), fmt.Sprint(i % 7)}))
	}
	for i := 0; i < 500; i++ {
		if ms.Get(fmt.Sprint("key-", i)) != ls[i] {
			t.Fatalf("string key %d: different lock on second Get", i)
		}
		if mp.Get(point{int32(i), int32(-i), fmt.Sprint(i % 7)}) != lp[i] {
			t.Fatalf("struct key %d: different lock on second Get", i)
		}
	}
	if ms.Len() != 500 || mp.Len() != 500 {
		t.Fatalf("Len = %d, %d, want 500, 500", ms.Len(), mp.Len())
	}
}

// SetMeter reaches locks installed before the call (walking the table) and
// after it (through install).
func TestLockMapSetMeterReachesEveryLock(t *testing.T) {
	m := NewLockMapStripes[int64](2)
	for k := int64(0); k < 100; k++ {
		m.Get(k)
	}
	cm := &ContentionMeter{}
	m.SetMeter(cm)
	for k := int64(0); k < 200; k++ {
		if m.Get(k).meter != cm {
			t.Fatalf("key %d: lock does not feed the table's meter", k)
		}
	}
}

// waitOwnedBy (the sibling-branch ownership wait) must wake on the ownership
// change itself rather than burning a poll loop: with a foreign holder
// pinning the lock, one Parallel branch queues in acquireBlocked and the other
// in waitOwnedBy; when the foreign transaction releases, both must finish
// promptly — far inside the 2s lock timeout.
func TestWaitOwnedByWakesOnSiblingAcquire(t *testing.T) {
	sys := stm.NewSystem(stm.Config{LockTimeout: 2 * time.Second})
	l := NewOwnerLock()
	held := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		stm.MustAtomicOn(sys, func(ftx *stm.Tx) {
			l.Acquire(ftx)
			close(held)
			<-release
		})
	}()
	<-held
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	start := time.Now()
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		branch := func(tx *stm.Tx) error {
			if !l.TryAcquire(tx, time.Second) {
				t.Error("branch failed to acquire")
			}
			return nil
		}
		if err := tx.Parallel(branch, branch); err != nil {
			t.Errorf("Parallel: %v", err)
		}
	})
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("acquisition took %v; ownership waiter is not waking", d)
	}
	<-done
	if l.Locked() {
		t.Fatal("lock not released at commit")
	}
}

// BenchmarkLockMapFirstTouch is the install path: a fresh table and n keys
// never seen before (EXPERIMENTS.md "Lock table" quotes it).
func BenchmarkLockMapFirstTouch(b *testing.B) {
	for _, n := range []int64{4096, 65536} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				m := NewLockMap[int64]()
				for k := int64(0); k < n; k++ {
					m.Get(k)
				}
			}
		})
	}
}

func BenchmarkLockMapGetHit(b *testing.B) {
	m := NewLockMap[int64]()
	for k := int64(0); k < 4096; k++ {
		m.Get(k)
	}
	var k int64
	for b.Loop() {
		m.Get(k & 4095)
		k++
	}
}
