package lockmgr

import "sync/atomic"

// keyTable is the insert-only hash table under LockMap's stripes and
// StripedRangeLock's per-stripe point locks: open addressing with linear
// probing over an array of atomic entry pointers, published through one
// atomic pointer. Locks are never removed, so an entry — key, hash and the
// OwnerLock itself in one allocation — keeps its address for ever and a
// slot goes from nil to its entry exactly once.
//
// find is lock-free and may run against an array a concurrent grow has
// already replaced: the old array is never written again and still holds
// every entry it ever held, so a hit there is a hit. A miss proves nothing,
// which is why install — called with the owning stripe's mutex held, the one
// thing that serializes writers — probes the current array again before it
// inserts: two locks for one key would let two transactions own "the" lock.
type keyTable[K comparable] struct {
	slots atomic.Pointer[[]atomic.Pointer[lockEntry[K]]] // nil until the first install; len is a power of two
	n     int                                            // entries installed; guarded by the stripe mutex
}

type lockEntry[K comparable] struct {
	hash uint64
	key  K
	lock OwnerLock
}

// minTableSlots is a table's first array; 64 empty stripes cost nothing.
const minTableSlots = 8

// find returns key's entry, or nil if the array it probed has none.
func (t *keyTable[K]) find(h uint64, key K) *lockEntry[K] {
	p := t.slots.Load()
	if p == nil {
		return nil
	}
	slots := *p
	mask := uint64(len(slots) - 1)
	// Load at most 1/2: the probe always reaches a nil slot.
	for i := h & mask; ; i = (i + 1) & mask {
		e := slots[i].Load()
		if e == nil || (e.hash == h && e.key == key) {
			return e
		}
	}
}

// install returns key's lock, creating it with the given policy and meter
// if the current array has none (fresh reports which). Callers hold the
// stripe mutex. The entry is complete before the store that publishes it,
// and the array doubles before an insert would take it past half full.
func (t *keyTable[K]) install(h uint64, key K, p ContentionPolicy, cm *ContentionMeter) (l *OwnerLock, fresh bool) {
	if e := t.find(h, key); e != nil {
		return &e.lock, false
	}
	var slots []atomic.Pointer[lockEntry[K]]
	if cur := t.slots.Load(); cur != nil {
		slots = *cur
	}
	if 2*(t.n+1) > len(slots) {
		grown := make([]atomic.Pointer[lockEntry[K]], max(minTableSlots, 2*len(slots)))
		for i := range slots {
			if e := slots[i].Load(); e != nil {
				place(grown, e)
			}
		}
		slots = grown
		t.slots.Store(&grown)
	}
	e := &lockEntry[K]{hash: h, key: key}
	e.lock.policy, e.lock.meter = p, cm
	place(slots, e)
	t.n++
	return &e.lock, true
}

// place stores e in the first free slot of its probe sequence.
func place[K comparable](slots []atomic.Pointer[lockEntry[K]], e *lockEntry[K]) {
	mask := uint64(len(slots) - 1)
	i := e.hash & mask
	for slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	slots[i].Store(e)
}

// each calls fn on every installed lock. Callers hold the stripe mutex.
func (t *keyTable[K]) each(fn func(*OwnerLock)) {
	if p := t.slots.Load(); p != nil {
		for i := range *p {
			if e := (*p)[i].Load(); e != nil {
				fn(&e.lock)
			}
		}
	}
}
