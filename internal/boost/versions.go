package boost

// Bounded per-key version history — the storage half of the multi-version
// read path (see internal/mvcc for the clock and pin registry, internal/stm
// readonly.go for the transaction side).
//
// A versioned engine keeps, per key, a short chain of committed states
// ordered by commit sequence number. Writers build the chains from the ops
// they already execute:
//
//   - Seed-before-mutate: before the first base mutation of a key whose
//     chain is empty, the writer — holding the key's exclusive abstract
//     lock — plants the key's current (committed, by two-phase locking)
//     state as a floor entry at sequence 0. Planting happens *before* the
//     base mutation, which is what makes the lock-free reader's double-check
//     protocol sound (see VersionAt).
//   - Record-at-commit: the post-op state of each mutated key is appended to
//     a per-(transaction, object) pending log (the LazyLog attach/spill
//     idiom) and published into the chains only at the commit point, under
//     the transaction's commit sequence number, while its abstract locks are
//     still held. An aborted transaction discards the log; chains only ever
//     contain committed states.
//
// Recording absolute post-op states is sound precisely when the committing
// transaction holds an exclusive lock on the key until after publication —
// true for the Keyed and Coarse disciplines and for Ranged point ops. It is
// *not* true for shared-demand objects (counter add, heap add): two
// commuting adds may publish in either order, and the later sequence would
// carry the wrong absolute value. Those objects stay unversioned and their
// read-only reads fall back to eager locking.
//
// Garbage collection: each publication trims its key's chain to the newest
// entry at-or-below the manager's trim bound (min of oldest pin and visible
// sequence) plus everything newer. With no pins, steady state is one entry
// per touched key; a long-lived pin visibly grows the retained gauge, and
// releasing it lets subsequent publications (or CompactVersions) reclaim.

import (
	"hash/maphash"
	"sync"

	"tboost/internal/mvcc"
	"tboost/internal/stm"
)

// Version is one committed state of one key. The payload fields mirror the
// shapes core specs need: Present for set membership and map binding
// presence, N for multiset counts, Val for map values. Unused fields stay
// zero.
type Version struct {
	Seq     uint64 // commit sequence; 0 for the pre-history floor entry
	Present bool
	N       int64
	Val     any
}

// verStripes is the version table's stripe count: a power of two so the
// stripe pick is a mask, sized like the lock table so readers and committers
// on different keys rarely share a stripe mutex.
const verStripes = 64

// verSpill is the per-stripe chain count past which the linear scan spills
// to a map, mirroring the runtime's lock-set spill.
const verSpill = 16

// verShrinkCap is the chain capacity from which a trim that leaves at most
// a quarter in use reallocates to fit (see verChain.trim).
const verShrinkCap = 16

// verChain is one key's version history, ascending by sequence. Invariant:
// once non-empty it never becomes empty again — trims keep at least the
// newest entry at-or-below the bound — so a reader that observes a chain
// hit for a key can rely on every later read hitting too.
type verChain[K comparable] struct {
	key  K
	vers []Version
}

// verStripe is one shard of the table: a mutex, a small chain slice scanned
// linearly, and a spill index past verSpill chains.
type verStripe[K comparable] struct {
	mu     sync.Mutex
	chains []verChain[K]
	idx    map[K]int // non-nil once len(chains) > verSpill
	_      [24]byte  // keep neighbouring stripe mutexes off one cache line
}

// versionTable is the striped per-key version store of one engine.
type versionTable[K comparable] struct {
	seed    maphash.Seed
	stripes [verStripes]verStripe[K]
}

func newVersionTable[K comparable]() *versionTable[K] {
	return &versionTable[K]{seed: maphash.MakeSeed()}
}

func (t *versionTable[K]) stripe(key K) *verStripe[K] {
	return &t.stripes[maphash.Comparable(t.seed, key)&(verStripes-1)]
}

// find returns the index of key's chain in s, or -1. Caller holds s.mu.
func (s *verStripe[K]) find(key K) int {
	if s.idx != nil {
		if i, ok := s.idx[key]; ok {
			return i
		}
		return -1
	}
	for i := range s.chains {
		if s.chains[i].key == key {
			return i
		}
	}
	return -1
}

// ensure returns the index of key's chain, creating it if absent. Caller
// holds s.mu.
func (s *verStripe[K]) ensure(key K) int {
	if i := s.find(key); i >= 0 {
		return i
	}
	s.chains = append(s.chains, verChain[K]{key: key})
	i := len(s.chains) - 1
	if s.idx != nil {
		s.idx[key] = i
	} else if len(s.chains) > verSpill {
		s.idx = make(map[K]int, 2*verSpill)
		for j := range s.chains {
			s.idx[s.chains[j].key] = j
		}
	}
	return i
}

// trim drops every entry older than the newest one at-or-below bound,
// returning how many were dropped. The newest entry at-or-below bound is
// what any current or future pin at sequence >= bound reads; everything
// older is unreachable. A chain that a stalled pin let grow long gives its
// capacity back here: once at most a quarter of at least verShrinkCap slots
// is left in use, the survivors move to a slice that fits them. Steady-state
// chains hold one or two entries in a slice of at most four, so they never
// reach the guard. Caller holds the stripe mutex.
func (c *verChain[K]) trim(bound uint64) int {
	j := -1
	for i := range c.vers {
		if c.vers[i].Seq <= bound {
			j = i
		} else {
			break
		}
	}
	if j <= 0 {
		return 0
	}
	tail := len(c.vers) - j
	if cap(c.vers) >= verShrinkCap && tail <= cap(c.vers)/4 {
		c.vers = append(make([]Version, 0, tail), c.vers[j:]...)
		return j
	}
	copy(c.vers, c.vers[j:])
	for i := tail; i < len(c.vers); i++ {
		c.vers[i] = Version{} // drop Val references
	}
	c.vers = c.vers[:tail]
	return j
}

// EnableVersions equips the engine with a version table, making it eligible
// for lock-free snapshot reads. Call at construction time, before the object
// is shared. Versioning stays dormant (one atomic load per mutation) until
// the system's first snapshot pin activates it.
func (o *Object[K]) EnableVersions() *Object[K] {
	o.vtab = newVersionTable[K]()
	return o
}

// DisableVersions removes the engine's version table. Configuration-time
// only (benchmark ablations); read-only transactions fall back to eager
// locking on this object afterwards.
func (o *Object[K]) DisableVersions() *Object[K] {
	o.vtab = nil
	return o
}

// Versioned reports whether the engine keeps version history.
func (o *Object[K]) Versioned() bool { return o.vtab != nil }

// VersioningLive reports whether this engine should record versions for
// mutations of tx: the table exists and the snapshot manager was active when
// tx's Atomic call began (the decision is latched at epoch entry — see
// stm.Tx.RecordsVersions). The latch, not the manager's live flag, is what
// specs must consult: a transaction that began before activation answers
// false for its entire run, so it can never pass NeedsSeed mid-flight and
// plant a floor derived from its own uncommitted earlier mutation. False
// means skip all version bookkeeping; the activation grace period (stm
// readonly.go) guarantees no pin can depend on what this transaction skips.
func (o *Object[K]) VersioningLive(tx *stm.Tx) bool {
	return o.vtab != nil && tx.RecordsVersions()
}

// NeedsSeed reports whether key's chain is empty, i.e. the caller's
// impending mutation must plant the pre-state floor first. Seeding is
// two-step (NeedsSeed, read pre-state, SeedVersion) so callers only pay the
// pre-state base read when a seed is actually due; the steps cannot race
// because only key's exclusive abstract-lock holder mutates or seeds it.
func (o *Object[K]) NeedsSeed(key K) bool {
	s := o.vtab.stripe(key)
	s.mu.Lock()
	i := s.find(key)
	empty := i < 0 || len(s.chains[i].vers) == 0
	s.mu.Unlock()
	return empty
}

// SeedVersion plants pre as key's sequence-0 floor entry if the chain is
// still empty. Must be called under key's abstract lock, before the base
// mutation it precedes: a reader that misses the chain and reads the base
// re-checks the chain afterwards, and that double-check is only conclusive
// if the seed landed before the base changed.
func (o *Object[K]) SeedVersion(tx *stm.Tx, key K, pre Version) {
	pre.Seq = 0
	s := o.vtab.stripe(key)
	s.mu.Lock()
	i := s.ensure(key)
	if len(s.chains[i].vers) == 0 {
		s.chains[i].vers = append(s.chains[i].vers, pre)
		s.mu.Unlock()
		tx.System().Snapshots().NoteRetained(1)
		return
	}
	s.mu.Unlock()
}

// RecordVersion appends key's post-op state to the transaction's pending
// version log for this engine (attaching a pooled log on first use). The
// record is published into the chain only at commit, under the commit
// sequence; aborts discard it.
func (o *Object[K]) RecordVersion(tx *stm.Tx, key K, v Version) {
	var vl *versionLog[K]
	if p := tx.VersionLookup(o); p != nil {
		vl = p.(*versionLog[K])
	} else {
		vl, _ = o.verPool.Get().(*versionLog[K])
		if vl == nil {
			vl = new(versionLog[K])
		}
		vl.obj = o
		tx.VersionAttach(o, vl)
	}
	vl.recs = append(vl.recs, versionRec[K]{key: key, ver: v})
}

// VersionAt returns key's newest version at-or-below seq. ok=false means the
// key has no chain (never mutated since versioning went live): the caller
// falls back to the base object, re-checks VersionAt, and — if the chain is
// still empty — trusts the base read, which the seed-before-mutate protocol
// makes sound (a mutation that could have torn the base read would have
// seeded the chain first, and the stripe mutex orders that seed before the
// re-check). A non-empty chain with no entry at-or-below seq cannot happen
// for a pinned reader (the floor entry is sequence 0 and trims never drop
// below a live pin); it reports ok=false defensively.
func (o *Object[K]) VersionAt(key K, seq uint64) (Version, bool) {
	s := o.vtab.stripe(key)
	s.mu.Lock()
	i := s.find(key)
	if i < 0 {
		s.mu.Unlock()
		return Version{}, false
	}
	vers := s.chains[i].vers
	for j := len(vers) - 1; j >= 0; j-- {
		if vers[j].Seq <= seq {
			v := vers[j]
			s.mu.Unlock()
			return v, true
		}
	}
	s.mu.Unlock()
	return Version{}, false
}

// publish lands one committed version in key's chain at seq and trims the
// chain to bound. Same-sequence re-publication (several records for one key
// in one transaction) keeps the last. Caller (FlushVersions) runs under the
// committing transaction's abstract locks.
func (t *versionTable[K]) publish(key K, v Version, seq, bound uint64, m *mvcc.Manager) {
	v.Seq = seq
	s := t.stripe(key)
	s.mu.Lock()
	i := s.ensure(key)
	c := &s.chains[i]
	if n := len(c.vers); n > 0 && c.vers[n-1].Seq == seq {
		c.vers[n-1] = v
		s.mu.Unlock()
		return
	}
	c.vers = append(c.vers, v)
	dropped := c.trim(bound)
	s.mu.Unlock()
	m.NoteRetained(1)
	if dropped > 0 {
		m.NoteReclaimed(dropped)
	}
}

// CompactVersions trims every chain to the manager's current trim bound,
// returning how many entries were reclaimed. Publications already trim the
// chains they touch; this sweep exists for idle objects after a long-lived
// pin closes (and for the GC tests).
func (o *Object[K]) CompactVersions(m *mvcc.Manager) int {
	if o.vtab == nil {
		return 0
	}
	bound := m.TrimBound()
	total := 0
	for si := range o.vtab.stripes {
		s := &o.vtab.stripes[si]
		s.mu.Lock()
		for ci := range s.chains {
			total += s.chains[ci].trim(bound)
		}
		s.mu.Unlock()
	}
	if total > 0 {
		m.NoteReclaimed(total)
	}
	return total
}

// VersionEntries counts live chain entries across the table (tests, memory
// accounting cross-checks).
func (o *Object[K]) VersionEntries() int {
	if o.vtab == nil {
		return 0
	}
	n := 0
	for si := range o.vtab.stripes {
		s := &o.vtab.stripes[si]
		s.mu.Lock()
		for ci := range s.chains {
			n += len(s.chains[ci].vers)
		}
		s.mu.Unlock()
	}
	return n
}

// VersionChainLen reports the length of key's chain (tests).
func (o *Object[K]) VersionChainLen(key K) int {
	if o.vtab == nil {
		return 0
	}
	s := o.vtab.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := s.find(key); i >= 0 {
		return len(s.chains[i].vers)
	}
	return 0
}

// versionRec is one pending (key, post-op state) pair awaiting commit.
type versionRec[K comparable] struct {
	key K
	ver Version
}

// versionLog is the pending version log of one (transaction, object) pair;
// it implements stm.VersionPending and is pooled per object.
type versionLog[K comparable] struct {
	obj  *Object[K]
	recs []versionRec[K]
}

// Len reports the number of pending records (savepoint bookkeeping).
func (vl *versionLog[K]) Len() int { return len(vl.recs) }

// TruncateTo discards records at index n and later (nested child rollback).
func (vl *versionLog[K]) TruncateTo(n int) {
	if n < 0 {
		n = 0
	}
	if n >= len(vl.recs) {
		return
	}
	clear(vl.recs[n:])
	vl.recs = vl.recs[:n]
}

// FlushVersions publishes every pending record at seq. Runs at the commit
// point under the transaction's abstract locks; the trim bound is read once
// per flush (a concurrently registered pin only makes it conservative).
func (vl *versionLog[K]) FlushVersions(tx *stm.Tx, seq uint64) {
	m := tx.System().Snapshots()
	bound := m.TrimBound()
	for i := range vl.recs {
		vl.obj.vtab.publish(vl.recs[i].key, vl.recs[i].ver, seq, bound, m)
	}
}

// Recycle clears the log and returns it to its object's pool.
func (vl *versionLog[K]) Recycle() {
	vl.TruncateTo(0)
	vl.obj.verPool.Put(vl)
}

var _ stm.VersionPending = (*versionLog[int])(nil)
