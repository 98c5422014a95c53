// Package cheap implements a linearizable concurrent min-heap with
// fine-grained per-slot locking, following Hunt, Michael, Parthasarathy and
// Scott, "An efficient algorithm for concurrent priority queue heaps" (1996)
// — the style of fine-grained heap the paper's boosted priority queue builds
// on (§3.2: "This implementation uses fine-grained locks").
//
// Insertions bubble bottom-up from bit-reversed leaf positions so that
// consecutive insertions take disjoint tree paths; deletions sift top-down
// with hand-over-hand locking. A short global lock protects only the size
// counter, so add() calls by different threads proceed concurrently — the
// property the boosted heap exploits by granting add() only a shared
// abstract lock.
package cheap

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Slot tags. A positive tag is the unique id of an in-flight insertion that
// still owns the item (it may still be bubbling the item up).
const (
	tagEmpty     int64 = 0
	tagAvailable int64 = -1
)

type slot[V any] struct {
	mu   sync.Mutex
	tag  int64
	prio int64
	val  V
}

// Heap is a concurrent min-heap of (priority, value) items with a fixed
// capacity. Duplicate priorities are allowed. Create with New.
type Heap[V any] struct {
	heapLock sync.Mutex
	count    int // number of items; protected by heapLock
	slots    []slot[V]
	opIDs    atomic.Int64
}

// DefaultCapacity is the slot-array size used by New.
const DefaultCapacity = 1 << 20

// New returns an empty heap with DefaultCapacity slots.
func New[V any]() *Heap[V] { return NewCapacity[V](DefaultCapacity) }

// NewCapacity returns an empty heap holding at least capacity items. The
// effective capacity rounds up to a full bottom level (2^k - 1) because
// bit-reversed insertion can place the n-th item anywhere within n's level.
func NewCapacity[V any](capacity int) *Heap[V] {
	if capacity < 1 {
		capacity = 1
	}
	full := 1
	for full-1 < capacity {
		full <<= 1
	}
	return &Heap[V]{slots: make([]slot[V], full)} // 1-based; indices 1..full-1
}

// slotFor maps the n-th item (1-based) to its array position: items fill
// levels left to right logically, but within a level the order is
// bit-reversed so consecutive insertions descend through different subtrees.
func slotFor(n int) int {
	if n <= 1 {
		return n
	}
	level := bits.Len(uint(n)) - 1 // floor(log2 n)
	base := 1 << level
	offset := uint(n - base)
	rev := bits.Reverse(offset) >> (bits.UintSize - level)
	return base + int(rev)
}

// Len returns the current number of items.
func (h *Heap[V]) Len() int {
	h.heapLock.Lock()
	n := h.count
	h.heapLock.Unlock()
	return n
}

// Add inserts val with the given priority. It returns false if the heap is
// at capacity.
func (h *Heap[V]) Add(prio int64, val V) bool {
	id := h.opIDs.Add(1)

	h.heapLock.Lock()
	if h.count+1 >= len(h.slots) {
		h.heapLock.Unlock()
		return false
	}
	h.count++
	i := slotFor(h.count)
	h.slots[i].mu.Lock()
	h.heapLock.Unlock()

	h.slots[i].tag = id
	h.slots[i].prio = prio
	h.slots[i].val = val
	h.slots[i].mu.Unlock()

	// Bubble the item up, chasing it if deletions move it (tag protocol of
	// Hunt et al.).
	for i > 1 {
		parent := i / 2
		h.slots[parent].mu.Lock()
		h.slots[i].mu.Lock()
		switch {
		case h.slots[parent].tag == tagAvailable && h.slots[i].tag == id:
			if h.slots[i].prio < h.slots[parent].prio {
				h.swap(parent, i)
				h.slots[i].mu.Unlock()
				h.slots[parent].mu.Unlock()
				i = parent
			} else {
				h.slots[i].tag = tagAvailable
				h.slots[i].mu.Unlock()
				h.slots[parent].mu.Unlock()
				return true
			}
		case h.slots[parent].tag == tagEmpty:
			// The region above was consumed: our item was deleted
			// while still in flight. Nothing left to publish.
			h.slots[i].mu.Unlock()
			h.slots[parent].mu.Unlock()
			return true
		case h.slots[i].tag != id:
			// A sift-down moved our item up; chase it.
			h.slots[i].mu.Unlock()
			h.slots[parent].mu.Unlock()
			i = parent
		default:
			// Parent is itself a mid-flight insertion; let it finish.
			h.slots[i].mu.Unlock()
			h.slots[parent].mu.Unlock()
			runtime.Gosched()
		}
	}
	if i == 1 {
		h.slots[1].mu.Lock()
		if h.slots[1].tag == id {
			h.slots[1].tag = tagAvailable
		}
		h.slots[1].mu.Unlock()
	}
	return true
}

// swap exchanges the full contents (tag, priority, value) of two locked
// slots.
func (h *Heap[V]) swap(a, b int) {
	sa, sb := &h.slots[a], &h.slots[b]
	sa.tag, sb.tag = sb.tag, sa.tag
	sa.prio, sb.prio = sb.prio, sa.prio
	sa.val, sb.val = sb.val, sa.val
}

// RemoveMin removes and returns the item with the smallest priority.
// ok is false if the heap was empty.
func (h *Heap[V]) RemoveMin() (prio int64, val V, ok bool) {
	var zero V

	h.heapLock.Lock()
	if h.count == 0 {
		h.heapLock.Unlock()
		return 0, zero, false
	}
	last := slotFor(h.count)
	h.count--
	h.slots[last].mu.Lock()
	h.heapLock.Unlock()

	// Grab the last item (regardless of tag: a mid-flight insertion's data
	// is already written, and its owner detects the removal via the EMPTY
	// tag when chasing).
	lp, lv := h.slots[last].prio, h.slots[last].val
	h.slots[last].tag = tagEmpty
	h.slots[last].val = zero
	h.slots[last].mu.Unlock()

	if last == 1 {
		return lp, lv, true
	}

	h.slots[1].mu.Lock()
	if h.slots[1].tag == tagEmpty {
		// A legal state, not a corrupt one: between our release of
		// heapLock and this lock, a later remover found count == 1, took
		// the root as its own last slot and emptied it. The heap is empty
		// and the item we grabbed is the one we remove — return it and
		// touch nothing, as Hunt et al. do. Writing it back into the root
		// here would plant an item count does not cover: a concurrent
		// remover still on its way to the root would return it a second
		// time and strand its own grabbed item in its place.
		h.slots[1].mu.Unlock()
		return lp, lv, true
	}
	prio, val = h.slots[1].prio, h.slots[1].val
	h.slots[1].tag = tagAvailable
	h.slots[1].prio = lp
	h.slots[1].val = lv

	// Sift the displaced item down with hand-over-hand locking.
	i := 1
	for {
		left, right := 2*i, 2*i+1
		if left >= len(h.slots) {
			break
		}
		h.slots[left].mu.Lock()
		child := left
		if right < len(h.slots) {
			h.slots[right].mu.Lock()
			switch {
			case h.slots[left].tag == tagEmpty:
				// Left empty implies right empty too (fill order),
				// but check right independently for safety.
				h.slots[left].mu.Unlock()
				if h.slots[right].tag == tagEmpty {
					h.slots[right].mu.Unlock()
					child = 0
				} else {
					child = right
				}
			case h.slots[right].tag == tagEmpty:
				h.slots[right].mu.Unlock()
			case h.slots[right].prio < h.slots[left].prio:
				h.slots[left].mu.Unlock()
				child = right
			default:
				h.slots[right].mu.Unlock()
			}
		} else if h.slots[left].tag == tagEmpty {
			h.slots[left].mu.Unlock()
			child = 0
		}
		if child == 0 {
			break
		}
		if h.slots[child].tag != tagEmpty && h.slots[child].prio < h.slots[i].prio {
			h.swap(i, child)
			h.slots[i].mu.Unlock()
			i = child
		} else {
			h.slots[child].mu.Unlock()
			break
		}
	}
	h.slots[i].mu.Unlock()
	return prio, val, true
}

// Min returns the smallest priority and its value without removing them.
// ok is false if the heap is empty. Min observes only published (AVAILABLE)
// state at the root.
func (h *Heap[V]) Min() (prio int64, val V, ok bool) {
	h.slots[1].mu.Lock()
	defer h.slots[1].mu.Unlock()
	if h.slots[1].tag == tagEmpty {
		var zero V
		return 0, zero, false
	}
	return h.slots[1].prio, h.slots[1].val, true
}
