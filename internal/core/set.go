package core

import (
	"tboost/internal/boost"
	"tboost/internal/lockmgr"
	"tboost/internal/stm"
)

// BaseSet is the abstract specification a linearizable set must satisfy to
// be boostable: Add and Remove report whether the set changed, which is what
// determines each call's inverse (Fig. 1 of the paper). Implementations must
// be linearizable under concurrent calls; the boosting layer never looks
// inside them. The key space is any comparable type: boosting never orders,
// hashes, or otherwise inspects keys — it only demands their abstract locks.
type BaseSet[K comparable] interface {
	Add(key K) bool
	Remove(key K) bool
	Contains(key K) bool
}

// Set is a boosted transactional set: the paper's SkipListKey pattern as a
// spec over the generic boosting kernel. Each method declares its conflict
// footprint (the key it touches) and its outcome's inverse; the kernel
// executes that descriptor against the lock manager and the undo log. Every
// method must be called inside stm.Atomic with the current transaction.
type Set[K comparable] struct {
	base BaseSet[K]
	obj  *boost.Object[K]
	undo boost.Undo[keyUndo[K]]
	vers boost.Versions[K, struct{}]
}

// keyEntry is the pending-log entry of the lazy set and multiset, whose
// deferred ops carry a key and no value.
type keyEntry[K comparable] = boost.LazyEntry[K, struct{}]

// keyUndo is the undo record of the set and the multiset: the key an
// effective call touched and which way it moved it (Fig. 1's inverses).
type keyUndo[K comparable] struct {
	key   K
	added bool
}

// ApplyUndo removes a key the call added, or puts back one it removed.
func (s *Set[K]) ApplyUndo(e keyUndo[K]) {
	if e.added {
		s.base.Remove(e.key)
	} else {
		s.base.Add(e.key)
	}
}

// NewKeyedSet boosts base with one abstract lock per key (the paper's
// LockKey discipline). Transactions touching disjoint keys proceed fully in
// parallel, synchronizing only inside the linearizable base object.
func NewKeyedSet[K comparable](base BaseSet[K]) *Set[K] {
	return &Set[K]{base: base, obj: boost.NewKeyed[K]()}
}

// NewKeyedSetStripes is NewKeyedSet with an explicit lock-table stripe
// count, exposed for the striping ablation benchmarks.
func NewKeyedSetStripes[K comparable](base BaseSet[K], stripes int) *Set[K] {
	return &Set[K]{base: base, obj: boost.NewKeyedStripes[K](stripes)}
}

// NewKeyedSetWoundWait is NewKeyedSet with wound-wait contention management
// pinned on the per-key locks: deadlocks between multi-key transactions are
// resolved by age (the older transaction wounds the younger) instead of by
// timeout, regardless of the System's configured policy. A plain NewKeyedSet
// already inherits whatever stm.Config.Contention selects; this constructor
// exists for mixing policies across objects in one system.
func NewKeyedSetWoundWait[K comparable](base BaseSet[K]) *Set[K] {
	return NewKeyedSetPolicy(base, lockmgr.WoundWait)
}

// NewKeyedSetPolicy is NewKeyedSet with an explicit contention policy pinned
// on the per-key locks (lockmgr.Timeout, lockmgr.WoundWait, or a
// lockmgr.NewDetect instance), overriding the system-wide choice.
func NewKeyedSetPolicy[K comparable](base BaseSet[K], p lockmgr.ContentionPolicy) *Set[K] {
	return &Set[K]{base: base, obj: boost.NewKeyedPolicy[K](lockmgr.DefaultStripes, p)}
}

// NewCoarseSet boosts base with a single abstract lock for all method calls
// — the conservative discipline Fig. 10 compares against, and the right
// choice for bases with no thread-level concurrency (e.g. a synchronized
// red-black tree, Fig. 9). The per-method specs below are unchanged: the
// kernel maps the same key demands onto the coarse lock.
func NewCoarseSet[K comparable](base BaseSet[K]) *Set[K] {
	return &Set[K]{base: base, obj: boost.NewCoarse[K]()}
}

// Add inserts key, reporting whether the set changed. Eager: inverse
// recorded add(x)/true -> remove(x), add(x)/false -> noop. Lazy: the add is
// deferred to the pending log and the answer predicted from the log's view
// of the key (see lazyPresence).
func (s *Set[K]) Add(tx *stm.Tx, key K) bool {
	if s.obj.Lazy() {
		lg, present := s.lazyPresence(tx, key)
		if present {
			return false
		}
		lg.Append(keyEntry[K]{Kind: boost.LazyAdd, Key: key})
		return true
	}
	s.obj.Acquire(tx, boost.Key(key))
	live := s.seedPresence(tx, key)
	if !s.base.Add(key) {
		return false
	}
	s.undo.Log(tx, s, keyUndo[K]{key, true})
	s.obj.Emit(tx, RedoAdd, key)
	if live {
		s.vers.Record(tx, key, true, struct{}{})
	}
	return true
}

// Remove deletes key, reporting whether the set changed. Eager: inverse
// recorded remove(x)/true -> add(x); remove(x)/false -> noop. Lazy: the
// removal is deferred.
func (s *Set[K]) Remove(tx *stm.Tx, key K) bool {
	if s.obj.Lazy() {
		lg, present := s.lazyPresence(tx, key)
		if !present {
			return false
		}
		lg.Append(keyEntry[K]{Kind: boost.LazyRemove, Key: key})
		return true
	}
	s.obj.Acquire(tx, boost.Key(key))
	live := s.seedPresence(tx, key)
	if !s.base.Remove(key) {
		return false
	}
	s.undo.Log(tx, s, keyUndo[K]{key, false})
	s.obj.Emit(tx, RedoRemove, key)
	if live {
		s.vers.Record(tx, key, false, struct{}{})
	}
	return true
}

// AddQuiet inserts key without reporting whether the set changed — the
// answer-free half of the API (java.util-style sets return a bool from add;
// most callers discard it). Eager: identical to Add with the answer unused.
// Lazy: the discarded answer is a real saving — no answer means no
// observation, so the deferred add skips the unlocked base read, the
// read-your-writes scan, and commit-time validation entirely. It fuses as
// an upsert ("make present"), whose apply succeeds whether or not the key
// was already there.
func (s *Set[K]) AddQuiet(tx *stm.Tx, key K) {
	if s.obj.Lazy() {
		boost.PendingLog(s.obj, tx, s).Append(keyEntry[K]{Kind: boost.LazyAdd, Key: key})
		return
	}
	s.Add(tx, key)
}

// RemoveQuiet deletes key without reporting whether the set changed; the
// answer-free counterpart of Remove (see AddQuiet). Lazy: defers a "make
// absent" upsert with no observation and no commit-time validation.
func (s *Set[K]) RemoveQuiet(tx *stm.Tx, key K) {
	if s.obj.Lazy() {
		boost.PendingLog(s.obj, tx, s).Append(keyEntry[K]{Kind: boost.LazyRemove, Key: key})
		return
	}
	s.Remove(tx, key)
}

// Contains reports whether key is present. Eager: no inverse is needed, but
// the abstract lock is still demanded — contains(x) does not commute with
// add(x)/remove(x) that change the answer, and key-based locking is the
// paper's practical approximation of that conflict relation. Lazy: the
// answer comes from the pending log (read-your-writes) or an optimistic
// observation re-validated at commit; no lock until then.
//
// Read-only transactions on a versioned set never reach either path: the
// answer comes from the key's version chain at the snapshot's pinned
// sequence number — no lock demand, no pending log, no way to conflict.
// The chain miss (key never written since versioning activated) falls back
// to a base read double-checked against the chain, which is sound because
// writers seed a key's pre-state before their first base mutation of it.
func (s *Set[K]) Contains(tx *stm.Tx, key K) bool {
	if tx.ReadOnly() && s.vers.Enabled() {
		if v, ok := s.vers.At(key, tx.SnapshotSeq()); ok {
			return v.Present
		}
		hit := s.base.Contains(key)
		if v, ok := s.vers.At(key, tx.SnapshotSeq()); ok {
			return v.Present
		}
		return hit
	}
	if s.obj.Lazy() {
		_, present := s.lazyPresence(tx, key)
		return present
	}
	s.obj.Acquire(tx, boost.Key(key))
	return s.base.Contains(key)
}

// seedPresence reports whether tx records versions and, if so, plants key's
// pre-transaction membership at the version floor when its chain is empty.
// Callers hold key's abstract lock and have not yet mutated the base.
func (s *Set[K]) seedPresence(tx *stm.Tx, key K) bool {
	live := s.vers.Live(tx)
	if live && s.vers.NeedsSeed(key) {
		s.vers.Seed(tx, key, s.base.Contains(key), struct{}{})
	}
	return live
}

// lazyPresence returns the transaction's current view of key — the pending
// log's latest word on it, or, on the transaction's first touch of the key,
// an unlocked read of the base recorded as the key's observation (the entry
// the commit-time drain re-validates under the abstract lock).
func (s *Set[K]) lazyPresence(tx *stm.Tx, key K) (*boost.LazyLog[K, struct{}], bool) {
	lg := boost.PendingLog(s.obj, tx, s)
	present, known := lg.Membership(key)
	if !known {
		present = s.base.Contains(key)
		lg.ObservePresence(key, present)
	}
	return lg, present
}

// Base returns the underlying linearizable set, for quiescent inspection
// (tests, verification). Touching it while transactions run forfeits
// serializability.
func (s *Set[K]) Base() BaseSet[K] { return s.base }

// Engine returns the kernel object executing this set's descriptors, for
// tests and introspection.
func (s *Set[K]) Engine() *boost.Object[K] { return s.obj }

// Versions returns the set's version store, for tests and the benchmark
// ablation that disables it.
func (s *Set[K]) Versions() *boost.Versions[K, struct{}] { return &s.vers }
