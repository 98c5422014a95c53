//go:build !race

package lockmgr

import (
	"runtime"
	"testing"
	"time"

	"tboost/internal/stm"
)

// allocated reports the bytes and objects fn allocates (not built under the
// race detector, whose instrumentation allocates on its own).
func allocated(fn func()) (bytes, objects float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs)
}

// Installing a key costs the same at any table size: one entry and its
// amortised share of the slot arrays. Under copy-on-install this was 1.2 KB
// a key at 4 096 keys and 15.7 KB at 65 536.
func TestInstallCostFlatInTableSize(t *testing.T) {
	for _, n := range []int64{4096, 65536} {
		check := func(table string, bytes, objects float64) {
			t.Helper()
			perKey, objsPerKey := bytes/float64(n), objects/float64(n)
			t.Logf("%s, %d keys: %.0f B and %.2f allocations per key", table, n, perKey, objsPerKey)
			if perKey > 256 || objsPerKey > 1.5 {
				t.Errorf("%s, %d keys: %.0f B and %.2f allocations per key, want at most 256 B and 1.5", table, n, perKey, objsPerKey)
			}
		}
		m := NewLockMap[int64]()
		bytes, objects := allocated(func() {
			for k := int64(0); k < n; k++ {
				m.Get(k)
			}
		})
		check("LockMap", bytes, objects)

		// Point demands, eight to a transaction so the descriptor's lock
		// set stays on its small slice and is recycled.
		sys := newSys()
		r := NewStripedRangeLock[int64]()
		run(t, sys, func(tx *stm.Tx) { r.LockKey(tx, -1) }) // warm the descriptor and holdings pools
		bytes, objects = allocated(func() {
			for k := int64(0); k < n; k += 8 {
				run(t, sys, func(tx *stm.Tx) {
					for i := k; i < k+8; i++ {
						r.LockKey(tx, i)
					}
				})
			}
		})
		check("StripedRangeLock", bytes, objects)
		if got := r.KeyLocks(); got != int(n)+1 {
			t.Fatalf("KeyLocks = %d, want %d", got, n+1)
		}
	}
}

func TestLockMapHitAllocatesNothing(t *testing.T) {
	m := NewLockMap[int64]()
	for k := int64(0); k < 1024; k++ {
		m.Get(k)
	}
	var k int64
	if avg := testing.AllocsPerRun(1000, func() { m.Get(k & 1023); k++ }); avg != 0 {
		t.Fatalf("LockMap.Get hit allocates %.2f objects, want 0", avg)
	}
}

// A blocked acquisition that ends without a grant allocates nothing once the
// descriptor has a timer, a doom channel and a waiter: all three are reused
// across waits. Each used to cost a time.NewTimer and a channel.
func TestBlockedAcquireReusesTimerAndDoomChan(t *testing.T) {
	sys := newSys()
	l := NewOwnerLock()
	run(t, sys, func(holder *stm.Tx) {
		l.Acquire(holder)
		run(t, sys, func(tx *stm.Tx) {
			try := func() {
				if l.TryAcquire(tx, 50*time.Microsecond) {
					t.Error("held lock was granted")
				}
			}
			try()
			if avg := testing.AllocsPerRun(20, try); avg != 0 {
				t.Errorf("a timed-out acquisition allocates %.2f objects, want 0", avg)
			}
		})
	})
}

// A blocked acquisition that is granted allocates nothing either, once both
// descriptors have blocked before: the waiter parks on its descriptor's own
// slot and the release signals it there, where each blocking round used to
// make the channel the release would close. The cycle measured is the whole
// hand-over — park, release, wake, grant, the woken transaction's commit.
func TestBlockedThenGrantedAcquireAllocsZero(t *testing.T) {
	sys := stm.NewSystem(stm.Config{LockTimeout: 5 * time.Second})
	l := NewOwnerLock()
	start, done := make(chan struct{}), make(chan error)
	go func() {
		take := func(tx *stm.Tx) error { l.Acquire(tx); return nil }
		for range start {
			done <- sys.Atomic(take)
		}
	}()
	defer close(start)
	hold := func(tx *stm.Tx) error {
		l.Acquire(tx)
		start <- struct{}{}
		for parked(l) == 0 {
			runtime.Gosched()
		}
		return nil // the commit releases the lock under the parked waiter
	}
	handOver := func() {
		if err := sys.Atomic(hold); err != nil {
			t.Error(err)
		}
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 8; i++ { // let every pooled descriptor block once
		handOver()
	}
	if avg := testing.AllocsPerRun(100, handOver); avg != 0 {
		t.Fatalf("a blocked-then-granted acquisition allocates %.2f objects, want 0", avg)
	}
}
