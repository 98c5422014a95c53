package core

// Adaptive-granularity constructors: boosted collections whose abstract-lock
// discipline starts coarse and promotes itself to per-key locking under
// contention (internal/boost/adaptive.go). Unlike every static constructor
// in this package, these take the *stm.System the object will run on: the
// migration protocol's drain barrier is a property of one system's call
// epochs, so the binding happens at construction and transactions from any
// other system panic. The method sets are unchanged — Set, Map, and Multiset
// methods never look at the discipline; only the kernel's Acquire does.

import (
	"tboost/internal/boost"
	"tboost/internal/hashset"
	"tboost/internal/skiplist"
	"tboost/internal/stm"
)

// NewAdaptiveSet boosts base with the adaptive discipline under default
// thresholds: one coarse abstract lock until the lock manager reports
// sustained blocking, then a per-key table for transactions born after the
// migration barrier.
func NewAdaptiveSet[K comparable](sys *stm.System, base BaseSet[K]) *Set[K] {
	return &Set[K]{base: base, obj: boost.NewAdaptive[K](sys)}
}

// NewAdaptiveSetConfig is NewAdaptiveSet with explicit promotion/demotion
// thresholds.
func NewAdaptiveSetConfig[K comparable](sys *stm.System, base BaseSet[K], cfg boost.AdaptiveConfig) *Set[K] {
	return &Set[K]{base: base, obj: boost.NewAdaptiveConfig[K](sys, cfg)}
}

// NewAdaptiveSkipListSet boosts the lock-free skip list adaptively — the
// Fig. 10 ablation (NewSkipListSet vs NewSkipListSetCoarse) as a runtime
// policy over the identical base object.
func NewAdaptiveSkipListSet(sys *stm.System) *Set[int64] {
	return NewAdaptiveSet[int64](sys, skiplist.New())
}

// NewLazyAdaptiveSet is the lazy twin of NewAdaptiveSet: mutations defer to
// the pending log, and the commit-time drain locks under the granularity the
// transaction latched at its first demand (for a pure-lazy transaction, the
// drain itself).
func NewLazyAdaptiveSet[K comparable](sys *stm.System, base BaseSet[K]) *Set[K] {
	return &Set[K]{base: base, obj: boost.NewLazyAdaptive[K](sys)}
}

// NewLazyAdaptiveSkipListSet is the lazy twin of NewAdaptiveSkipListSet.
func NewLazyAdaptiveSkipListSet(sys *stm.System) *Set[int64] {
	return NewLazyAdaptiveSet[int64](sys, skiplist.New())
}

// NewAdaptiveMap boosts a linearizable base map with the adaptive
// discipline.
func NewAdaptiveMap[K comparable, V any](sys *stm.System, base BaseMap[K, V]) *Map[K, V] {
	return &Map[K, V]{base: base, obj: boost.NewAdaptive[K](sys)}
}

// NewLazyAdaptiveMap is the lazy twin of NewAdaptiveMap; V is bound to
// comparable for commit-time observation checks, as in NewLazyMap.
func NewLazyAdaptiveMap[K, V comparable](sys *stm.System, base BaseMap[K, V]) *Map[K, V] {
	m := &Map[K, V]{base: base, obj: boost.NewLazyAdaptive[K](sys)}
	m.lazyEq = func(observed, current V) bool { return observed == current }
	return m
}

// NewAdaptiveMultiset returns an adaptively boosted bag over the striped
// concurrent multiset.
func NewAdaptiveMultiset[K comparable](sys *stm.System) *Multiset[K] {
	return &Multiset[K]{base: hashset.NewMultiSet[K](), obj: boost.NewAdaptive[K](sys)}
}

// NewLazyAdaptiveMultiset is the lazy twin of NewAdaptiveMultiset: per-key
// deltas fuse into one net increment per key at commit, applied under the
// latched granularity.
func NewLazyAdaptiveMultiset[K comparable](sys *stm.System) *Multiset[K] {
	return &Multiset[K]{base: hashset.NewMultiSet[K](), obj: boost.NewLazyAdaptive[K](sys)}
}
