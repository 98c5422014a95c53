package cheap

import (
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func TestEmpty(t *testing.T) {
	h := NewCapacity[int](16)
	if _, _, ok := h.RemoveMin(); ok {
		t.Fatal("RemoveMin on empty returned ok")
	}
	if _, _, ok := h.Min(); ok {
		t.Fatal("Min on empty returned ok")
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestAddRemoveSingle(t *testing.T) {
	h := NewCapacity[string](16)
	if !h.Add(5, "five") {
		t.Fatal("Add failed")
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d", h.Len())
	}
	p, v, ok := h.Min()
	if !ok || p != 5 || v != "five" {
		t.Fatalf("Min = %d,%q,%v", p, v, ok)
	}
	p, v, ok = h.RemoveMin()
	if !ok || p != 5 || v != "five" {
		t.Fatalf("RemoveMin = %d,%q,%v", p, v, ok)
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d after removal", h.Len())
	}
}

func TestHeapsort(t *testing.T) {
	h := NewCapacity[int](1 << 12)
	r := rand.New(rand.NewPCG(11, 12))
	var want []int64
	for i := 0; i < 2000; i++ {
		p := int64(r.IntN(500)) // duplicates likely
		want = append(want, p)
		if !h.Add(p, i) {
			t.Fatal("Add failed")
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, w := range want {
		p, _, ok := h.RemoveMin()
		if !ok {
			t.Fatalf("RemoveMin %d: empty", i)
		}
		if p != w {
			t.Fatalf("RemoveMin %d = %d, want %d", i, p, w)
		}
	}
	if _, _, ok := h.RemoveMin(); ok {
		t.Fatal("heap not empty at end")
	}
}

func TestCapacityLimit(t *testing.T) {
	h := NewCapacity[int](3)
	for i := 0; i < 3; i++ {
		if !h.Add(int64(i), i) {
			t.Fatalf("Add %d failed below capacity", i)
		}
	}
	// Capacity rounds up to a full level; fill the rest, then overflow.
	for h.Add(99, 99) {
		if h.Len() > 1<<10 {
			t.Fatal("capacity bound never enforced")
		}
	}
	if _, _, ok := h.RemoveMin(); !ok {
		t.Fatal("heap should still drain after overflow")
	}
}

func TestSlotForBijectionPerLevel(t *testing.T) {
	// slotFor must be a bijection on {1..n} for full levels, and every
	// item's parent slot must be occupied by an earlier item.
	const n = 1 << 10
	seen := map[int]int{}
	for i := 1; i <= n; i++ {
		s := slotFor(i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("slotFor(%d) = %d already used by item %d", i, s, prev)
		}
		seen[s] = i
		if s > 1 {
			parent := s / 2
			pi, ok := seen[parent]
			if !ok || pi >= i {
				t.Fatalf("item %d at slot %d: parent slot %d filled by later item %d", i, s, parent, pi)
			}
		}
	}
	// Left children fill before right children (sift-down relies on it).
	for s := 2; s < n; s += 2 {
		li, lok := seen[s]
		ri, rok := seen[s+1]
		if lok && rok && li >= ri {
			t.Fatalf("right child slot %d (item %d) filled before left slot %d (item %d)", s+1, ri, s, li)
		}
	}
}

func TestConcurrentAddsThenDrain(t *testing.T) {
	h := NewCapacity[int](1 << 16)
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(g), 21))
			for i := 0; i < perG; i++ {
				if !h.Add(int64(r.IntN(10000)), g*perG+i) {
					t.Error("Add failed")
					return
				}
			}
		}()
	}
	wg.Wait()
	if h.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", h.Len(), goroutines*perG)
	}
	// Drain sequentially; priorities must come out non-decreasing and every
	// payload must appear exactly once.
	seen := make([]bool, goroutines*perG)
	prev := int64(-1)
	for i := 0; i < goroutines*perG; i++ {
		p, v, ok := h.RemoveMin()
		if !ok {
			t.Fatalf("drain %d: empty early", i)
		}
		if p < prev {
			t.Fatalf("drain %d: priority %d < previous %d", i, p, prev)
		}
		prev = p
		if seen[v] {
			t.Fatalf("payload %d delivered twice", v)
		}
		seen[v] = true
	}
}

func TestConcurrentMixedAddRemove(t *testing.T) {
	h := NewCapacity[int64](1 << 16)
	const goroutines = 8
	const perG = 3000
	var added, removed atomic.Int64
	var removedSum, addedSum atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(g), 33))
			for i := 0; i < perG; i++ {
				if r.IntN(2) == 0 {
					p := int64(r.IntN(1000))
					if h.Add(p, p) {
						added.Add(1)
						addedSum.Add(p)
					}
				} else {
					if p, v, ok := h.RemoveMin(); ok {
						if p != v {
							t.Errorf("payload %d does not match priority %d", v, p)
							return
						}
						removed.Add(1)
						removedSum.Add(p)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := h.Len(); int64(got) != added.Load()-removed.Load() {
		t.Fatalf("Len = %d, want added-removed = %d", got, added.Load()-removed.Load())
	}
	// Drain the remainder; totals must balance.
	for {
		p, _, ok := h.RemoveMin()
		if !ok {
			break
		}
		removedSum.Add(p)
	}
	if removedSum.Load() != addedSum.Load() {
		t.Fatalf("sum of removed priorities %d != sum added %d (lost or duplicated items)",
			removedSum.Load(), addedSum.Load())
	}
}

// TestConcurrentRemoversOnNearEmptyHeap pins the interleaving behind a lost
// and duplicated item: with three items left, remover A grabs slot 3,
// remover B grabs slot 2, remover C takes the root as the last slot and
// empties it; B then finds the root empty. B must return the item it grabbed
// and leave the root alone — writing it back planted an item the count did
// not cover, which A returned a second time while stranding its own. Each
// round races three removers and one adder over at most three uniquely
// numbered items, then checks at rest that an empty heap shows no root and
// that what came out is exactly what went in.
func TestConcurrentRemoversOnNearEmptyHeap(t *testing.T) {
	const rounds = 20000
	h := NewCapacity[int64](7)
	seen := make([]uint8, 3*rounds)
	for r := 0; r < rounds; r++ {
		base := int64(3 * r)
		for j := int64(0); j < 2; j++ {
			h.Add(base+j, base+j)
		}
		start := make(chan struct{})
		var got [3][]int64
		var wg sync.WaitGroup
		wg.Add(4)
		go func() {
			defer wg.Done()
			<-start
			h.Add(base+2, base+2)
		}()
		for g := range got {
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 2; i++ {
					if p, v, ok := h.RemoveMin(); ok {
						if p != v {
							t.Errorf("round %d: payload %d under priority %d", r, v, p)
						}
						got[g] = append(got[g], v)
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if h.Len() == 0 {
			if p, _, ok := h.Min(); ok {
				t.Fatalf("round %d: Len() == 0 but Min() reports %d: an item outside the count", r, p)
			}
		}
		for {
			_, v, ok := h.RemoveMin()
			if !ok {
				break
			}
			got[0] = append(got[0], v)
		}
		for _, vs := range got {
			for _, v := range vs {
				if v < base || v >= base+3 {
					t.Fatalf("round %d: removed %d, which this round never added", r, v)
				}
				seen[v]++
			}
		}
		for v := base; v < base+3; v++ {
			if seen[v] != 1 {
				t.Fatalf("round %d: item %d came out %d times, want once", r, v, seen[v])
			}
		}
	}
}

func TestMinDoesNotRemove(t *testing.T) {
	h := NewCapacity[int](16)
	h.Add(3, 3)
	h.Add(1, 1)
	h.Add(2, 2)
	for i := 0; i < 5; i++ {
		if p, _, ok := h.Min(); !ok || p != 1 {
			t.Fatalf("Min = %d,%v", p, ok)
		}
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestInterleavedProducerConsumer(t *testing.T) {
	// One producer inserting ascending priorities, one consumer removing:
	// every removed priority must have been produced, and the consumer
	// never observes a priority twice.
	h := NewCapacity[int64](1 << 14)
	const n = 5000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(0); i < n; i++ {
			for !h.Add(i, i) {
			}
		}
	}()
	seen := make([]bool, n)
	go func() {
		defer wg.Done()
		got := 0
		for got < n {
			if p, _, ok := h.RemoveMin(); ok {
				if seen[p] {
					t.Errorf("priority %d removed twice", p)
					return
				}
				seen[p] = true
				got++
			}
		}
	}()
	wg.Wait()
	for i := range seen {
		if !seen[i] {
			t.Fatalf("priority %d never consumed", i)
		}
	}
}

func BenchmarkConcurrentAddRemove(b *testing.B) {
	h := NewCapacity[int](1 << 20)
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewPCG(rand.Uint64(), 1))
		for pb.Next() {
			if r.IntN(2) == 0 {
				h.Add(int64(r.IntN(1<<16)), 0)
			} else {
				h.RemoveMin()
			}
		}
	})
}
