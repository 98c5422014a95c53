package core

import (
	"cmp"

	"tboost/internal/boost"
	"tboost/internal/lockmgr"
	"tboost/internal/skiplist"
	"tboost/internal/stm"
)

// OrderedSet is a boosted transactional sorted set supporting range
// queries, synchronized by interval-granular abstract locks. Point
// operations demand the degenerate interval [k, k]; a range query demands
// its whole interval, so it conflicts exactly with updates *inside* the
// range and commutes with everything outside — the argument-dependent
// conflict predicate that key-granularity locking cannot express.
//
// The key space is any cmp.Ordered type: the base object is the generic
// lock-free skip list, and the interval locks come from the striped range
// manager, whose point fast path gives ordered point ops the same cost
// profile as the keyed Set. Point operations (Add/Remove/Contains) are the
// embedded Set's — only the Ranged discipline differs — so an OrderedSet
// can stand in wherever a Set is expected.
type OrderedSet[K cmp.Ordered] struct {
	Set[K]
	sl *skiplist.Set[K]
}

// NewOrderedSet returns a boosted sorted set of int64 keys (the original
// facade key type) over a lock-free skip list.
func NewOrderedSet() *OrderedSet[int64] {
	return NewOrderedSetOf[int64]()
}

// NewOrderedSetOf returns a boosted sorted set over a lock-free skip list
// for any ordered key type.
func NewOrderedSetOf[K cmp.Ordered]() *OrderedSet[K] {
	sl := skiplist.NewOf[K]()
	return &OrderedSet[K]{Set: Set[K]{base: sl, obj: boost.NewRanged[K]()}, sl: sl}
}

// NewOrderedSetPartition is NewOrderedSetOf with an explicit stripe count
// and key partition for the interval-lock table.
func NewOrderedSetPartition[K cmp.Ordered](stripes int, p lockmgr.Partition[K]) *OrderedSet[K] {
	sl := skiplist.NewOf[K]()
	return &OrderedSet[K]{Set: Set[K]{base: sl, obj: boost.NewRangedPartition(stripes, p)}, sl: sl}
}

// CountRange returns the number of keys in [lo, hi]. It demands the
// interval, serializing against concurrent updates within it while updates
// outside proceed in parallel. On a lazy ordered set the pending point ops
// are early-flushed first — a point-keyed log cannot answer a range — after
// which the query runs eagerly under its interval lock.
//
// Range queries stay eager even in read-only transactions: version chains
// are point-keyed and cannot enumerate an interval, so a snapshot cannot
// answer a range without a chain per key it doesn't know about. A read-only
// transaction may still call them, but pays the interval-lock demand (and
// panics under Config.StrictReadOnly); point reads via the embedded Set
// remain lock-free.
func (s *OrderedSet[K]) CountRange(tx *stm.Tx, lo, hi K) int {
	if s.obj.Lazy() {
		s.obj.FlushPending(tx)
	}
	s.obj.Acquire(tx, boost.Span(lo, hi))
	n := 0
	s.sl.AscendRange(lo, hi, func(K) bool { n++; return true })
	return n
}

// KeysRange returns the keys in [lo, hi] in ascending order (early-flushing
// pending lazy ops first, as CountRange does). CountRange leaves the
// interval locked, so the count it returns is exact for the walk that
// follows and the result is allocated once, at its final size.
func (s *OrderedSet[K]) KeysRange(tx *stm.Tx, lo, hi K) []K {
	n := s.CountRange(tx, lo, hi)
	if n == 0 {
		return nil
	}
	out := make([]K, 0, n)
	s.sl.AscendRange(lo, hi, func(k K) bool { out = append(out, k); return true })
	return out
}

// SumRange returns the sum of keys in [lo, hi] — a representative
// aggregate query. (For string keys the + is concatenation, which is mostly
// useful for tests.) Lazy sets early-flush first, as CountRange does.
func (s *OrderedSet[K]) SumRange(tx *stm.Tx, lo, hi K) K {
	if s.obj.Lazy() {
		s.obj.FlushPending(tx)
	}
	s.obj.Acquire(tx, boost.Span(lo, hi))
	var sum K
	s.sl.AscendRange(lo, hi, func(k K) bool { sum += k; return true })
	return sum
}

// Base returns the underlying linearizable skip list for quiescent
// inspection.
func (s *OrderedSet[K]) Base() *skiplist.Set[K] { return s.sl }
