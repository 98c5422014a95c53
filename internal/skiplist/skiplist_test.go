package skiplist

import (
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	s := New()
	if s.Contains(0) || s.Contains(-1) || s.Contains(1) {
		t.Fatal("empty set contains something")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
	if keys := s.Keys(); len(keys) != 0 {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New()
	if !s.Add(5) {
		t.Fatal("Add(5) on empty = false")
	}
	if s.Add(5) {
		t.Fatal("duplicate Add(5) = true")
	}
	if !s.Contains(5) {
		t.Fatal("Contains(5) = false after Add")
	}
	if s.Contains(4) {
		t.Fatal("Contains(4) = true")
	}
	if !s.Remove(5) {
		t.Fatal("Remove(5) = false")
	}
	if s.Remove(5) {
		t.Fatal("second Remove(5) = true")
	}
	if s.Contains(5) {
		t.Fatal("Contains(5) = true after Remove")
	}
}

func TestExtremeKeys(t *testing.T) {
	s := New()
	keys := []int64{-1 << 62, -1, 0, 1, 1 << 62}
	for _, k := range keys {
		if !s.Add(k) {
			t.Fatalf("Add(%d) = false", k)
		}
	}
	for _, k := range keys {
		if !s.Contains(k) {
			t.Fatalf("Contains(%d) = false", k)
		}
	}
	got := s.Keys()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("Keys not sorted: %v", got)
	}
}

func TestKeysSortedNoDuplicates(t *testing.T) {
	s := New()
	for i := 0; i < 1000; i++ {
		s.Add(int64(rand.IntN(300)))
	}
	keys := s.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys out of order or duplicated at %d: %v", i, keys[i-1:i+1])
		}
	}
}

func TestLenTracksChanges(t *testing.T) {
	s := New()
	for i := int64(0); i < 100; i++ {
		s.Add(i)
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	for i := int64(0); i < 50; i++ {
		s.Remove(i * 2)
	}
	if s.Len() != 50 {
		t.Fatalf("Len = %d, want 50", s.Len())
	}
}

// TestMatchesMapModel drives the set with a random operation sequence and
// compares every response against a map-based model.
func TestMatchesMapModel(t *testing.T) {
	s := New()
	model := map[int64]bool{}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		k := int64(r.IntN(128))
		switch r.IntN(3) {
		case 0:
			want := !model[k]
			if got := s.Add(k); got != want {
				t.Fatalf("op %d: Add(%d) = %v, want %v", i, k, got, want)
			}
			model[k] = true
		case 1:
			want := model[k]
			if got := s.Remove(k); got != want {
				t.Fatalf("op %d: Remove(%d) = %v, want %v", i, k, got, want)
			}
			delete(model, k)
		default:
			if got := s.Contains(k); got != model[k] {
				t.Fatalf("op %d: Contains(%d) = %v, want %v", i, k, got, model[k])
			}
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model = %d", s.Len(), len(model))
	}
}

// TestQuickAddIdempotence property: adding a key twice always reports false
// the second time, for arbitrary keys.
func TestQuickAddIdempotence(t *testing.T) {
	s := New()
	f := func(k int64) bool {
		first := s.Add(k)
		second := s.Add(k)
		return !second && s.Contains(k) && (first || true)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAddRemoveRoundTrip property: for a fresh key, add then remove
// restores absence.
func TestQuickAddRemoveRoundTrip(t *testing.T) {
	s := New()
	f := func(k int64) bool {
		s.Add(k)
		removed := s.Remove(k)
		return removed && !s.Contains(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDisjointAdds(t *testing.T) {
	s := New()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := int64(g*perG + i)
				if !s.Add(k) {
					t.Errorf("Add(%d) = false on disjoint key", k)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", s.Len(), goroutines*perG)
	}
	for k := int64(0); k < goroutines*perG; k++ {
		if !s.Contains(k) {
			t.Fatalf("Contains(%d) = false", k)
		}
	}
}

func TestConcurrentAddRemoveSameKeys(t *testing.T) {
	// Hammer a small key range from many goroutines; verify accounting:
	// for each key, successful adds - successful removes must equal final
	// presence (0 or 1).
	s := New()
	const keyRange = 16
	const goroutines = 8
	const ops = 3000
	var adds, removes [keyRange]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(g), 99))
			for i := 0; i < ops; i++ {
				k := int64(r.IntN(keyRange))
				if r.IntN(2) == 0 {
					if s.Add(k) {
						adds[k].Add(1)
					}
				} else {
					if s.Remove(k) {
						removes[k].Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	for k := 0; k < keyRange; k++ {
		delta := adds[k].Load() - removes[k].Load()
		present := int64(0)
		if s.Contains(int64(k)) {
			present = 1
		}
		if delta != present {
			t.Errorf("key %d: adds-removes = %d but present = %d", k, delta, present)
		}
	}
	// Structural sanity after the storm.
	keys := s.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys corrupted: %v", keys)
		}
	}
}

func TestConcurrentContainsDuringMutation(t *testing.T) {
	s := New()
	for k := int64(0); k < 64; k += 2 {
		s.Add(k)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // mutator on odd keys only
		defer wg.Done()
		r := rand.New(rand.NewPCG(7, 7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := int64(r.IntN(32))*2 + 1
			if r.IntN(2) == 0 {
				s.Add(k)
			} else {
				s.Remove(k)
			}
		}
	}()
	// Readers: even keys must always be present, regardless of odd churn.
	for i := 0; i < 20000; i++ {
		k := int64(i%32) * 2
		if !s.Contains(k) {
			t.Fatalf("Contains(%d) = false while only odd keys mutate", k)
		}
	}
	close(stop)
	wg.Wait()
}

func TestAscendRange(t *testing.T) {
	s := New()
	for k := int64(0); k < 100; k += 2 {
		s.Add(k)
	}
	var got []int64
	s.AscendRange(10, 20, func(k int64) bool { got = append(got, k); return true })
	want := []int64{10, 12, 14, 16, 18, 20}
	if len(got) != len(want) {
		t.Fatalf("AscendRange = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AscendRange = %v, want %v", got, want)
		}
	}
	// Early stop.
	got = got[:0]
	s.AscendRange(0, 98, func(k int64) bool { got = append(got, k); return len(got) < 3 })
	if len(got) != 3 {
		t.Fatalf("early stop: %v", got)
	}
	// Empty range.
	count := 0
	s.AscendRange(11, 11, func(int64) bool { count++; return true })
	if count != 0 {
		t.Fatalf("odd singleton range matched %d keys", count)
	}
	// Range beyond all keys.
	s.AscendRange(1000, 2000, func(int64) bool { t.Error("matched beyond max"); return false })
	// Negative range below all keys.
	s.AscendRange(-10, -1, func(int64) bool { t.Error("matched below min"); return false })
}

func TestAscendRangeSkipsDeleted(t *testing.T) {
	s := New()
	for k := int64(0); k < 10; k++ {
		s.Add(k)
	}
	s.Remove(4)
	s.Remove(5)
	var got []int64
	s.AscendRange(3, 6, func(k int64) bool { got = append(got, k); return true })
	if len(got) != 2 || got[0] != 3 || got[1] != 6 {
		t.Fatalf("AscendRange = %v, want [3 6]", got)
	}
}

// TestReadTraversalsAllocateNothing: a read walks with the nodes themselves
// as cursors. A range over 512 keys (with deleted nodes to skip), a Contains
// and the descent to a missing key must not touch the heap; Keys allocates
// only its result.
func TestReadTraversalsAllocateNothing(t *testing.T) {
	s := New()
	for k := int64(0); k < 640; k++ {
		s.Add(k)
	}
	for k := int64(512); k < 640; k += 2 {
		s.Remove(k)
	}
	n := 0
	count := func(int64) bool { n++; return true }
	if avg := testing.AllocsPerRun(100, func() {
		n = 0
		s.AscendRange(0, 511, count)
		s.Contains(300)
		s.Contains(1 << 40)
	}); avg != 0 || n != 512 {
		t.Fatalf("AscendRange over %d keys + two Contains allocate %.1f objects, want 512 keys and 0", n, avg)
	}
	var keys []int64
	// The result slice doubles about ten times on its way to 576 keys.
	if avg := testing.AllocsPerRun(100, func() { keys = s.Keys() }); len(keys) != 576 || avg > 16 {
		t.Fatalf("Keys returned %d keys in %.1f allocations, want 576 keys and only the result's growth", len(keys), avg)
	}
}

func TestRandomHeightDistribution(t *testing.T) {
	counts := make([]int, maxLevel+1)
	const n = 100000
	for i := 0; i < n; i++ {
		h := randomHeight()
		if h < 1 || h > maxLevel {
			t.Fatalf("height %d out of range", h)
		}
		counts[h]++
	}
	// About half the towers should have height 1 (p = 0.5).
	frac := float64(counts[1]) / n
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("height-1 fraction = %v, want ~0.5", frac)
	}
}

func BenchmarkAdd(b *testing.B) {
	s := New()
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewPCG(rand.Uint64(), 1))
		for pb.Next() {
			s.Add(int64(r.IntN(1 << 20)))
		}
	})
}

func BenchmarkContains(b *testing.B) {
	s := New()
	for k := int64(0); k < 1<<16; k++ {
		s.Add(k)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewPCG(rand.Uint64(), 2))
		for pb.Next() {
			s.Contains(int64(r.IntN(1 << 17)))
		}
	})
}

func BenchmarkMixed(b *testing.B) {
	s := New()
	for k := int64(0); k < 1<<12; k++ {
		s.Add(k)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewPCG(rand.Uint64(), 3))
		for pb.Next() {
			k := int64(r.IntN(1 << 13))
			switch r.IntN(10) {
			case 0:
				s.Add(k)
			case 1:
				s.Remove(k)
			default:
				s.Contains(k)
			}
		}
	})
}
