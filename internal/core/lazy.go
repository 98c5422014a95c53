package core

// Lazy drain callbacks and lazy constructors for the core specs.
//
// A lazy boosted object defers every mutation to a per-transaction pending
// log (see internal/boost/lazy.go); the methods in set.go/map.go/
// multiset.go branch there on Object.Lazy(). This file holds the other half
// of each spec: how the commit-time drain re-validates an observation under
// the just-acquired abstract lock, and how it applies one fused net op to
// the base — emitting the post-fusion forward image so durable logs carry
// the shrunken op stream.

import (
	"cmp"

	"tboost/internal/boost"
	"tboost/internal/hashset"
	"tboost/internal/rbtree"
	"tboost/internal/skiplist"
	"tboost/internal/stm"
)

// LazyValidate re-checks a membership observation under the key's abstract
// lock: the base must still answer what the unlocked read answered.
func (s *Set[K]) LazyValidate(e keyEntry[K]) bool {
	return s.base.Contains(e.Key) == e.OK
}

// LazyApply applies one fused net set op. A checked op (e.OK: the key was
// observed, and an add only survives fusion when observed absent) is
// validate-by-apply: base.Add failing at the commit instant proves the
// observation stale — and, the failing call being a no-op, leaves the base
// untouched. Returning false hands the drain its abort-and-retry signal
// without a separate phase-B traversal. A quiet op (no observation — the
// caller never asked for an answer) is an upsert: a no-op base call just
// means the key was already in the desired state. Either way the actual
// effect is stashed in e.N for LazyUnapply, and only an effective call
// logs an undo record or emits a forward image. eager=true is the
// early-flush path: the transaction may still abort, so the record is
// logged exactly as the eager methods log it.
func (s *Set[K]) LazyApply(tx *stm.Tx, e *keyEntry[K], eager bool) bool {
	k := e.Key
	// The drain (and the early flush) holds k's abstract lock, so the
	// seed-before-mutate protocol applies here exactly as in the eager
	// methods. A version recorded during the drain is discarded with the
	// transaction if a later log's apply-check fails and LazyUnapply runs.
	live := s.seedPresence(tx, k)
	switch e.Kind {
	case boost.LazyAdd:
		if !s.base.Add(k) {
			return !e.OK
		}
		e.N = 1
		if eager {
			s.undo.Log(tx, s, keyUndo[K]{k, true})
		}
		s.obj.Emit(tx, RedoAdd, k)
		if live {
			s.vers.Record(tx, k, true, struct{}{})
		}
	case boost.LazyRemove:
		if !s.base.Remove(k) {
			return !e.OK
		}
		e.N = 1
		if eager {
			s.undo.Log(tx, s, keyUndo[K]{k, false})
		}
		s.obj.Emit(tx, RedoRemove, k)
		if live {
			s.vers.Record(tx, k, false, struct{}{})
		}
	}
	return true
}

// LazyUnapply inverts one successfully applied net set op (cross-log undo
// after a later log's apply-check failed; the key's abstract lock is still
// held). An apply that was a no-op upsert (e.N left zero) has nothing to
// invert.
func (s *Set[K]) LazyUnapply(e *keyEntry[K]) {
	if e.N == 0 {
		return
	}
	switch e.Kind {
	case boost.LazyAdd:
		s.base.Remove(e.Key)
	case boost.LazyRemove:
		s.base.Add(e.Key)
	}
}

// LazyValidate re-checks a count observation under the key's abstract lock.
func (m *Multiset[K]) LazyValidate(e keyEntry[K]) bool {
	return int64(m.base.Count(e.Key)) == e.N
}

// LazyApply applies one fused multiset delta as |N| unit calls, emitting
// each forward image (checkpoints compress runs with RedoAddN; the live
// stream keeps replay unit-for-unit). The delta can never underflow the
// validated observed count: every deferred RemoveOne checked the
// transaction's running view was positive.
// Multisets are phase-B validated (a delta applies unconditionally), so the
// apply always reports success.
func (m *Multiset[K]) LazyApply(tx *stm.Tx, e *keyEntry[K], eager bool) bool {
	if e.Kind != boost.LazyInc {
		return true
	}
	k := e.Key
	live := e.N != 0 && m.seedCount(tx, k)
	for n := e.N; n > 0; n-- {
		m.base.Add(k)
		if eager {
			m.undo.Log(tx, m, keyUndo[K]{k, true})
		}
		m.obj.Emit(tx, RedoAdd, k)
	}
	for n := e.N; n < 0; n++ {
		if !m.base.RemoveOne(k) {
			break
		}
		if eager {
			m.undo.Log(tx, m, keyUndo[K]{k, false})
		}
		m.obj.Emit(tx, RedoRemove, k)
	}
	if live {
		c := int64(m.base.Count(k))
		m.vers.Record(tx, k, c > 0, c)
	}
	return true
}

// LazyUnapply inverts one applied multiset delta unit-for-unit.
func (m *Multiset[K]) LazyUnapply(e *keyEntry[K]) {
	for n := e.N; n > 0; n-- {
		m.base.RemoveOne(e.Key)
	}
	for n := e.N; n < 0; n++ {
		m.base.Add(e.Key)
	}
}

// LazyValidate re-checks a binding observation under the key's abstract
// lock, comparing presence and (when present) the value via the lazyEq
// closure the lazy constructor installed.
func (m *Map[K, V]) LazyValidate(e boost.LazyEntry[K, V]) bool {
	cur, ok := m.base.Get(e.Key)
	return ok == e.OK && (!ok || m.lazyEq(e.Val, cur))
}

// LazyApply applies one fused net map op: the last binding written (fusion
// is last-writer-wins) or a delete that survived (the key was observed
// present, or never observed). Maps are phase-B validated — a binding
// observation compares values, which the apply's answer cannot check — so
// the apply always reports success; the displaced binding is stashed into
// the entry for LazyUnapply.
func (m *Map[K, V]) LazyApply(tx *stm.Tx, e *boost.LazyEntry[K, V], eager bool) bool {
	k := e.Key
	live := m.seedBinding(tx, k)
	switch e.Kind {
	case boost.LazyPut:
		val := e.Val
		old, existed := m.base.Put(k, val)
		if eager {
			m.undo.Log(tx, m, mapUndo[K, V]{k, old, existed})
		}
		if m.encVal != nil {
			m.obj.EmitEnd(tx, RedoAdd, m.encVal(m.obj.EmitBegin(tx, k), val))
		}
		if live {
			m.vers.Record(tx, k, true, val)
		}
		e.Val, e.OK = old, existed
	case boost.LazyDelete:
		old, existed := m.base.Delete(k)
		if !existed {
			return true
		}
		if eager {
			m.undo.Log(tx, m, mapUndo[K, V]{k, old, true})
		}
		m.obj.Emit(tx, RedoRemove, k)
		if live {
			var none V
			m.vers.Record(tx, k, false, none)
		}
		e.Val, e.OK = old, existed
	}
	return true
}

// LazyUnapply restores the binding a net map op displaced, from the state
// LazyApply stashed into the entry.
func (m *Map[K, V]) LazyUnapply(e *boost.LazyEntry[K, V]) {
	switch e.Kind {
	case boost.LazyPut:
		if e.OK {
			m.base.Put(e.Key, e.Val)
		} else {
			m.base.Delete(e.Key)
		}
	case boost.LazyDelete:
		if e.OK {
			m.base.Put(e.Key, e.Val)
		}
	}
}

// Interface conformance: the specs are their own drain callbacks.
var (
	_ boost.LazySpec[int64, struct{}] = (*Set[int64])(nil)
	_ boost.LazySpec[int64, struct{}] = (*Multiset[int64])(nil)
	_ boost.LazySpec[int64, int64]    = (*Map[int64, int64])(nil)
)

// NewLazyKeyedSet boosts base lazily with one abstract lock per key: every
// mutation defers to the pending log, locks are taken only for the commit
// instant, and add∘remove pairs on one key annihilate before touching base.
func NewLazyKeyedSet[K comparable](base BaseSet[K]) *Set[K] {
	return &Set[K]{base: base, obj: boost.NewLazyKeyed[K]()}
}

// NewLazyKeyedSetStripes is NewLazyKeyedSet with an explicit lock-table
// stripe count.
func NewLazyKeyedSetStripes[K comparable](base BaseSet[K], stripes int) *Set[K] {
	return &Set[K]{base: base, obj: boost.NewLazyKeyedStripes[K](stripes)}
}

// NewLazyCoarseSet boosts base lazily behind a single abstract lock, held
// only for the commit instant — coarse hold time shrinks from the whole
// body to the drain.
func NewLazyCoarseSet[K comparable](base BaseSet[K]) *Set[K] {
	return &Set[K]{base: base, obj: boost.NewLazyCoarse[K]()}
}

// NewLazyHashSetOf returns a lazy transactional set over the striped
// concurrent hash set for any comparable key type.
func NewLazyHashSetOf[K comparable]() *Set[K] {
	return NewLazyKeyedSet[K](hashset.New[K]())
}

// NewLazySkipListSet returns the lazy counterpart of NewSkipListSet: the
// lock-free skip list under deferred per-key boosting.
func NewLazySkipListSet() *Set[int64] {
	return NewLazyKeyedSet[int64](skiplist.New())
}

// NewLazyOrderedSet returns a lazy boosted sorted set of int64 keys.
func NewLazyOrderedSet() *OrderedSet[int64] {
	return NewLazyOrderedSetOf[int64]()
}

// NewLazyOrderedSetOf returns a lazy boosted sorted set: point ops defer to
// the pending log and lock [k,k] only at commit; range queries early-flush
// the log and run eagerly under their interval lock.
func NewLazyOrderedSetOf[K cmp.Ordered]() *OrderedSet[K] {
	sl := skiplist.NewOf[K]()
	return &OrderedSet[K]{Set: Set[K]{base: sl, obj: boost.NewLazyRanged[K]()}, sl: sl}
}

// NewLazyMultiset returns a lazy boosted bag: per-key deltas accumulate in
// the pending log and fuse into one net increment per key at commit.
func NewLazyMultiset[K comparable]() *Multiset[K] {
	return &Multiset[K]{base: hashset.NewMultiSet[K](), obj: boost.NewLazyKeyed[K]()}
}

// NewLazyRBTreeMap is the lazy counterpart of NewRBTreeMap, with V bound to
// comparable (see NewLazyMap).
func NewLazyRBTreeMap[V comparable]() *Map[int64, V] {
	return NewLazyMap[int64, V](rbtree.NewSync[V]())
}

// NewLazyMap boosts a linearizable base map lazily. Unlike NewMap, V must
// be comparable: commit-time validation compares the observed binding
// against the current one.
func NewLazyMap[K, V comparable](base BaseMap[K, V]) *Map[K, V] {
	m := &Map[K, V]{base: base, obj: boost.NewLazyKeyed[K]()}
	m.lazyEq = func(observed, current V) bool { return observed == current }
	return m
}
