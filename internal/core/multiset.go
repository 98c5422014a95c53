package core

import (
	"tboost/internal/boost"
	"tboost/internal/hashset"
	"tboost/internal/stm"
)

// Multiset is a boosted transactional bag of keys. Unlike the Set, add(x)
// always changes the bag (multisets admit duplicates), so its inverse is
// unconditional: removeOne(x). Per-key abstract locking gives the same
// commutativity-based concurrency as the boosted Set: operations on
// distinct keys never conflict.
type Multiset[K comparable] struct {
	base *hashset.MultiSet[K]
	obj  *boost.Object[K]
	undo boost.Undo[keyUndo[K]]
	vers boost.Versions[K, int64]
}

// ApplyUndo takes back one occurrence the call added, or restores one it
// removed.
func (m *Multiset[K]) ApplyUndo(e keyUndo[K]) {
	if e.added {
		m.base.RemoveOne(e.key)
	} else {
		m.base.Add(e.key)
	}
}

// NewMultiset returns a boosted bag over a striped concurrent multiset.
func NewMultiset[K comparable]() *Multiset[K] {
	return &Multiset[K]{base: hashset.NewMultiSet[K](), obj: boost.NewKeyed[K]()}
}

// Add inserts one occurrence of key and returns the resulting count.
// Eager: inverse removeOne(key), unconditionally.
// Lazy: a +1 delta joins the pending log; deltas on one key fuse into a
// single net increment at commit (inc∘inc combine).
func (m *Multiset[K]) Add(tx *stm.Tx, key K) int {
	if m.obj.Lazy() {
		lg, count := m.lazyCount(tx, key)
		lg.Append(keyEntry[K]{Kind: boost.LazyInc, Key: key, N: 1})
		return count + 1
	}
	m.obj.Acquire(tx, boost.Key(key))
	m.undo.Log(tx, m, keyUndo[K]{key, true})
	live := m.seedCount(tx, key)
	m.obj.Emit(tx, RedoAdd, key)
	n := m.base.Add(key)
	if live {
		m.vers.Record(tx, key, true, int64(n))
	}
	return n
}

// seedCount reports whether tx records versions and, if so, plants key's
// pre-transaction occurrence count at the version floor when its chain is
// empty. Callers hold key's abstract lock, so the base read is stable.
func (m *Multiset[K]) seedCount(tx *stm.Tx, key K) bool {
	live := m.vers.Live(tx)
	if live && m.vers.NeedsSeed(key) {
		c := int64(m.base.Count(key))
		m.vers.Seed(tx, key, c > 0, c)
	}
	return live
}

// RemoveOne deletes one occurrence of key, reporting whether one existed.
// Eager: inverse add(key) when an occurrence was removed; noop otherwise.
// Lazy: a -1 delta, logged only when the transaction's view of the count is
// positive.
func (m *Multiset[K]) RemoveOne(tx *stm.Tx, key K) bool {
	if m.obj.Lazy() {
		lg, count := m.lazyCount(tx, key)
		if count <= 0 {
			return false
		}
		lg.Append(keyEntry[K]{Kind: boost.LazyInc, Key: key, N: -1})
		return true
	}
	m.obj.Acquire(tx, boost.Key(key))
	live := m.seedCount(tx, key)
	if !m.base.RemoveOne(key) {
		return false
	}
	m.undo.Log(tx, m, keyUndo[K]{key, false})
	m.obj.Emit(tx, RedoRemove, key)
	if live {
		n := int64(m.base.Count(key))
		m.vers.Record(tx, key, n > 0, n)
	}
	return true
}

// Count returns the number of occurrences of key. Eager: read-only, but the
// key's abstract lock still serializes it against concurrent mutators of
// the same key. Lazy: observed count plus the pending delta. Read-only
// transactions answer from the key's version chain — chains store the
// absolute post-operation count, recorded under the key's exclusive lock,
// so the snapshot read needs no lock demand (see Set.Contains for the
// chain-miss double-check argument).
func (m *Multiset[K]) Count(tx *stm.Tx, key K) int {
	if tx.ReadOnly() && m.vers.Enabled() {
		if v, ok := m.vers.At(key, tx.SnapshotSeq()); ok {
			return int(v.State)
		}
		n := m.base.Count(key)
		if v, ok := m.vers.At(key, tx.SnapshotSeq()); ok {
			return int(v.State)
		}
		return n
	}
	if m.obj.Lazy() {
		_, count := m.lazyCount(tx, key)
		return count
	}
	m.obj.Acquire(tx, boost.Key(key))
	return m.base.Count(key)
}

// lazyCount returns the transaction's current view of key's occurrence
// count: the observed base count (recorded on first touch, validated at
// commit) plus the pending delta.
func (m *Multiset[K]) lazyCount(tx *stm.Tx, key K) (*boost.LazyLog[K, struct{}], int) {
	lg := boost.PendingLog(m.obj, tx, m)
	obs, delta, known := lg.CountDelta(key)
	if !known {
		obs = int64(m.base.Count(key))
		lg.ObserveCount(key, obs)
	}
	return lg, int(obs + delta)
}

// Base returns the underlying linearizable multiset for quiescent
// inspection.
func (m *Multiset[K]) Base() *hashset.MultiSet[K] { return m.base }

// Engine returns the kernel object executing this multiset's descriptors,
// for tests and introspection.
func (m *Multiset[K]) Engine() *boost.Object[K] { return m.obj }

// Versions returns the multiset's version store, for tests.
func (m *Multiset[K]) Versions() *boost.Versions[K, int64] { return &m.vers }
