package core

import (
	"tboost/internal/boost"
	"tboost/internal/stm"
)

// BaseMap is the abstract specification a linearizable map must satisfy to
// be boostable. Put and Delete return the previous binding, which is exactly
// the information the inverse operation needs.
type BaseMap[K comparable, V any] interface {
	Put(key K, val V) (old V, existed bool)
	Delete(key K) (V, bool)
	Get(key K) (V, bool)
}

// Map is a boosted transactional map with per-key abstract locks. Two
// transactions conflict only when they touch the same key — put(k1,·),
// get(k2) and delete(k3) all commute for distinct keys regardless of how the
// base map is laid out in memory.
type Map[K comparable, V any] struct {
	base BaseMap[K, V]
	obj  *boost.Object[K]
	undo boost.Undo[mapUndo[K, V]]

	// encVal appends a value's encoding to a redo op the journal opened on
	// the key; set by BindMap, together with the journal. Nil (the default)
	// keeps the map undurable and Put emission free.
	encVal func([]byte, V) []byte

	// lazyEq compares an observed value against the current one during a
	// lazy drain's validation. Non-nil iff the map was built lazy:
	// NewLazyMap constrains V to comparable so the comparison is
	// well-defined, a bound the eager Map does not need.
	lazyEq func(observed, current V) bool

	// vers is last: it is by far the largest field (the stripe table, by
	// value), and the fields every call reads stay on one cache line.
	vers boost.Versions[K, V]
}

// mapUndo is the map's undo record: the binding key had before the call,
// which Put and Delete both return. One shape covers every inverse.
type mapUndo[K comparable, V any] struct {
	key     K
	old     V
	existed bool
}

// ApplyUndo restores the recorded binding, or removes a key that was fresh.
func (m *Map[K, V]) ApplyUndo(e mapUndo[K, V]) {
	if e.existed {
		m.base.Put(e.key, e.old)
	} else {
		m.base.Delete(e.key)
	}
}

// NewMap boosts a linearizable base map.
func NewMap[K comparable, V any](base BaseMap[K, V]) *Map[K, V] {
	return &Map[K, V]{base: base, obj: boost.NewKeyed[K]()}
}

// Put binds val to key, returning the previous value and whether one
// existed. Eager: inverse recorded — restore the old binding (or delete the
// key if it was fresh). Lazy: the put is deferred; fusion keeps only the
// last binding written per key.
func (m *Map[K, V]) Put(tx *stm.Tx, key K, val V) (V, bool) {
	if m.obj.Lazy() {
		lg, old, existed := m.lazyBinding(tx, key)
		lg.Append(boost.LazyEntry[K, V]{Kind: boost.LazyPut, Key: key, Val: val})
		return old, existed
	}
	m.obj.Acquire(tx, boost.Key(key))
	live := m.seedBinding(tx, key)
	old, existed := m.base.Put(key, val)
	m.undo.Log(tx, m, mapUndo[K, V]{key, old, existed})
	if m.encVal != nil {
		m.obj.EmitEnd(tx, RedoAdd, m.encVal(m.obj.EmitBegin(tx, key), val))
	}
	if live {
		m.vers.Record(tx, key, true, val)
	}
	return old, existed
}

// seedBinding reports whether tx records versions and, if so, plants key's
// pre-transaction binding at the version floor when its chain is empty.
// Callers hold key's abstract lock, so the base read is stable.
func (m *Map[K, V]) seedBinding(tx *stm.Tx, key K) bool {
	live := m.vers.Live(tx)
	if live && m.vers.NeedsSeed(key) {
		cur, ok := m.base.Get(key)
		m.vers.Seed(tx, key, ok, cur)
	}
	return live
}

// Delete removes key, returning its value and whether it was present.
// Eager: inverse recorded — re-insert the removed binding. Lazy: deferred;
// a delete of a key the transaction observed absent fuses away entirely.
func (m *Map[K, V]) Delete(tx *stm.Tx, key K) (V, bool) {
	if m.obj.Lazy() {
		lg, old, existed := m.lazyBinding(tx, key)
		lg.Append(boost.LazyEntry[K, V]{Kind: boost.LazyDelete, Key: key})
		return old, existed
	}
	m.obj.Acquire(tx, boost.Key(key))
	live := m.seedBinding(tx, key)
	old, existed := m.base.Delete(key)
	if existed {
		m.undo.Log(tx, m, mapUndo[K, V]{key, old, true})
		m.obj.Emit(tx, RedoRemove, key)
		if live {
			var none V
			m.vers.Record(tx, key, false, none)
		}
	}
	return old, existed
}

// Get returns the value bound to key. Eager: read-only, no inverse, but the
// key's abstract lock is held to serialize against concurrent writers of the
// same key. Lazy: answered from the pending log or an optimistic observation
// validated at commit. Read-only transactions on a versioned map answer from
// the key's version chain at the pinned sequence number with no lock demand
// (see Set.Contains for the chain-miss double-check argument).
func (m *Map[K, V]) Get(tx *stm.Tx, key K) (V, bool) {
	if tx.ReadOnly() && m.vers.Enabled() {
		if v, ok := m.vers.At(key, tx.SnapshotSeq()); ok {
			return v.State, v.Present
		}
		cur, hit := m.base.Get(key)
		if v, ok := m.vers.At(key, tx.SnapshotSeq()); ok {
			return v.State, v.Present
		}
		return cur, hit
	}
	if m.obj.Lazy() {
		_, val, ok := m.lazyBinding(tx, key)
		return val, ok
	}
	m.obj.Acquire(tx, boost.Key(key))
	return m.base.Get(key)
}

// Update applies fn to the current binding of key and stores the result.
// The read and write happen under one abstract-lock acquisition (eager) or
// against one observation (lazy), so the read-modify-write is atomic with
// respect to other transactions.
func (m *Map[K, V]) Update(tx *stm.Tx, key K, fn func(V, bool) V) {
	if m.obj.Lazy() {
		old, existed := m.Get(tx, key)
		m.Put(tx, key, fn(old, existed))
		return
	}
	m.obj.Acquire(tx, boost.Key(key))
	old, existed := m.base.Get(key)
	m.Put(tx, key, fn(old, existed))
}

// lazyBinding returns the transaction's current view of key's binding: the
// pending log's latest word, or, on first touch, an unlocked base read
// recorded as the key's observation for commit-time validation.
func (m *Map[K, V]) lazyBinding(tx *stm.Tx, key K) (*boost.LazyLog[K, V], V, bool) {
	lg := boost.PendingLog(m.obj, tx, m)
	val, ok, known := lg.Binding(key)
	if !known {
		val, ok = m.base.Get(key)
		lg.ObserveBinding(key, val, ok)
	}
	return lg, val, ok
}

// Base returns the underlying linearizable map for quiescent inspection.
func (m *Map[K, V]) Base() BaseMap[K, V] { return m.base }

// Engine returns the kernel object executing this map's descriptors, for
// tests and introspection.
func (m *Map[K, V]) Engine() *boost.Object[K] { return m.obj }

// Versions returns the map's version store, for tests.
func (m *Map[K, V]) Versions() *boost.Versions[K, V] { return &m.vers }
