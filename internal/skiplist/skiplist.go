// Package skiplist implements a lock-free concurrent skip-list set, in the
// style of the java.util.concurrent ConcurrentSkipListSet the paper boosts
// (Herlihy–Shavit "LockFreeSkipList": CAS-linked levels with
// logically-deleted marks and helping removal during traversal).
//
// The key type is any cmp.Ordered: the algorithm needs nothing but <, so
// int64, string and float keys share one implementation (New keeps the
// original int64 construction; NewOf picks the key type).
//
// The set is linearizable and non-blocking: add, remove and contains
// synchronize only through compare-and-swap on individual links. Boosting
// treats it as a black box — the transactional layer never looks inside.
package skiplist

import (
	"cmp"
	"math/rand/v2"
	"sync/atomic"
)

// maxLevel bounds the tower height. 2^32 expected elements is far beyond any
// benchmark here.
const maxLevel = 32

// pHeight is the per-level promotion probability.
const pHeight = 0.5

// succ is a successor reference paired with this node's logical-deletion
// mark at that level. Go has no AtomicMarkableReference, so the (pointer,
// mark) pair is boxed and swung atomically as one *succ.
type succ[K cmp.Ordered] struct {
	n      *node[K]
	marked bool
}

type node[K cmp.Ordered] struct {
	key      K
	sentinel int8 // -1 head, +1 tail, 0 ordinary
	next     []atomic.Pointer[succ[K]]
}

func newNode[K cmp.Ordered](key K, height int, sentinel int8) *node[K] {
	return &node[K]{key: key, sentinel: sentinel, next: make([]atomic.Pointer[succ[K]], height)}
}

// less reports whether a's position precedes key (treating sentinels as
// ±infinity).
func (n *node[K]) less(key K) bool {
	switch n.sentinel {
	case -1:
		return true
	case 1:
		return false
	default:
		return n.key < key
	}
}

func (n *node[K]) equals(key K) bool {
	return n.sentinel == 0 && n.key == key
}

// Set is a lock-free sorted set of K keys. Create with New or NewOf.
type Set[K cmp.Ordered] struct {
	head *node[K]
	size atomic.Int64
}

// New returns an empty int64 set (the seed repository's original key type).
func New() *Set[int64] {
	return NewOf[int64]()
}

// NewOf returns an empty set over any ordered key type.
func NewOf[K cmp.Ordered]() *Set[K] {
	var zero K
	head := newNode(zero, maxLevel, -1)
	tail := newNode(zero, maxLevel, 1)
	for i := range head.next {
		head.next[i].Store(&succ[K]{n: tail})
	}
	return &Set[K]{head: head}
}

// randomHeight draws a tower height with geometric distribution.
func randomHeight() int {
	h := 1
	for h < maxLevel && rand.Float64() < pHeight {
		h++
	}
	return h
}

// find locates key, filling preds/succs for levels [0,maxLevel) and
// physically unlinking any marked nodes encountered (helping). It returns
// true if an unmarked node with the key is present at the bottom level.
func (s *Set[K]) find(key K, preds, succs []*node[K]) bool {
retry:
	for {
		pred := s.head
		for level := maxLevel - 1; level >= 0; level-- {
			curr := pred.next[level].Load()
			for {
				if curr.marked {
					// pred itself was deleted under us: its next
					// pointer is frozen. Snipping through it would
					// install a fresh unmarked link into a dead node,
					// resurrecting it (and losing any nodes inserted
					// behind it). Restart from the head.
					continue retry
				}
				nextRef := curr.n.nextRef(level)
				for nextRef != nil && nextRef.marked {
					// curr is logically deleted at this level; help unlink.
					snipped := pred.next[level].CompareAndSwap(curr, &succ[K]{n: nextRef.n})
					if !snipped {
						continue retry
					}
					curr = pred.next[level].Load()
					if curr.marked {
						continue retry // pred died right after the snip
					}
					nextRef = curr.n.nextRef(level)
				}
				if curr.n.less(key) {
					pred = curr.n
					curr = pred.next[level].Load()
				} else {
					break
				}
			}
			preds[level] = pred
			succs[level] = curr.n
		}
		return succs[0].equals(key)
	}
}

// nextRef loads the successor reference at level, or nil if the node's tower
// does not reach that level (tail nodes and short towers).
func (n *node[K]) nextRef(level int) *succ[K] {
	if level >= len(n.next) {
		return nil
	}
	return n.next[level].Load()
}

// Add inserts key, reporting whether the set changed (false if key was
// already present).
func (s *Set[K]) Add(key K) bool {
	height := randomHeight()
	var preds, succs [maxLevel]*node[K]
	for {
		if s.find(key, preds[:], succs[:]) {
			return false
		}
		n := newNode(key, height, 0)
		for level := 0; level < height; level++ {
			n.next[level].Store(&succ[K]{n: succs[level]})
		}
		// Linearization point: CAS the bottom-level link.
		bottom := preds[0].next[0].Load()
		if bottom.n != succs[0] || bottom.marked {
			continue
		}
		if !preds[0].next[0].CompareAndSwap(bottom, &succ[K]{n: n}) {
			continue
		}
		s.size.Add(1)
		// Link the upper levels best-effort; find() repairs races.
		for level := 1; level < height; level++ {
			for {
				cur := n.next[level].Load()
				if cur.marked {
					return true // concurrently removed; stop linking
				}
				pl := preds[level].next[level].Load()
				if pl.n != succs[level] || pl.marked || cur.n != succs[level] {
					s.find(key, preds[:], succs[:]) // refresh
					if !succs[0].equals(key) {
						return true // node already removed
					}
					if succs[level] != n {
						// re-point our forward link before retrying
						if !n.next[level].CompareAndSwap(cur, &succ[K]{n: succs[level]}) {
							continue
						}
					}
					if preds[level].next[level].Load().n == n {
						break // someone linked us
					}
					continue
				}
				if preds[level].next[level].CompareAndSwap(pl, &succ[K]{n: n}) {
					break
				}
			}
		}
		return true
	}
}

// Remove deletes key, reporting whether the set changed (false if key was
// absent).
func (s *Set[K]) Remove(key K) bool {
	var preds, succs [maxLevel]*node[K]
	for {
		if !s.find(key, preds[:], succs[:]) {
			return false
		}
		victim := succs[0]
		// Mark from the top of the tower down to level 1.
		for level := len(victim.next) - 1; level >= 1; level-- {
			ref := victim.next[level].Load()
			for !ref.marked {
				victim.next[level].CompareAndSwap(ref, &succ[K]{n: ref.n, marked: true})
				ref = victim.next[level].Load()
			}
		}
		// Linearization point: mark the bottom level. Only one remover wins.
		for {
			ref := victim.next[0].Load()
			if ref.marked {
				break // someone else removed it
			}
			if victim.next[0].CompareAndSwap(ref, &succ[K]{n: ref.n, marked: true}) {
				s.size.Add(-1)
				s.find(key, preds[:], succs[:]) // physical unlink
				return true
			}
		}
		// Lost the race; the key may be re-addable already.
		return false
	}
}

// seek descends to key's bottom-level position in a single wait-free
// traversal with no helping: pred is the last node that precedes key, curr
// the first that does not, logically deleted nodes skipped. The cursors are
// the nodes themselves, so a read traversal allocates nothing.
func (s *Set[K]) seek(key K) (pred, curr *node[K]) {
	pred = s.head
	for level := maxLevel - 1; level >= 0; level-- {
		curr = pred.next[level].Load().n
		for {
			for ref := curr.nextRef(level); ref != nil && ref.marked; ref = curr.nextRef(level) {
				curr = ref.n
			}
			if !curr.less(key) {
				break
			}
			pred = curr
			curr = pred.next[level].Load().n
		}
	}
	return pred, curr
}

// Contains reports whether key is in the set. It is wait-free: a single
// traversal with no helping.
func (s *Set[K]) Contains(key K) bool {
	_, curr := s.seek(key)
	return curr.equals(key)
}

// Len returns the current number of keys. It is accurate when quiescent and
// approximate under concurrency.
func (s *Set[K]) Len() int {
	return int(s.size.Load())
}

// AscendRange calls fn on each key in [lo, hi] in ascending order until fn
// returns false. The traversal is wait-free and skips logically deleted
// nodes; under concurrent mutation it observes some linearizable snapshot
// of each individual key (callers wanting an atomic range view must
// serialize externally — the boosted ordered set uses a range lock).
func (s *Set[K]) AscendRange(lo, hi K, fn func(key K) bool) {
	pred, _ := s.seek(lo)
	// Walk the bottom level from the last node before lo.
	for n := pred.next[0].Load().n; n.sentinel != 1; {
		next := n.next[0].Load()
		if n.sentinel == 0 && n.key >= lo {
			if n.key > hi {
				return
			}
			if !next.marked && !fn(n.key) {
				return
			}
		}
		n = next.n
	}
}

// Keys returns the keys in ascending order via a bottom-level traversal.
// Intended for tests and quiescent snapshots.
func (s *Set[K]) Keys() []K {
	var out []K
	for n := s.head.next[0].Load().n; n.sentinel != 1; {
		next := n.next[0].Load()
		if !next.marked {
			out = append(out, n.key)
		}
		n = next.n
	}
	return out
}
