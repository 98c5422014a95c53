package boost

// Bounded per-key version history — the storage half of the multi-version
// read path (see internal/mvcc for the clock and pin registry, internal/stm
// readonly.go for the transaction side).
//
// A versioned spec owns one Versions[K, S] beside its Undo[E]: per key, a
// short chain of committed states ordered by commit sequence number, each
// state held by value in the spec's own shape S (struct{} for a set, the
// count for a multiset, V for a map) — no boxing, so recording a version
// allocates nothing. Writers build the chains from the ops they already
// execute:
//
//   - Seed-before-mutate: before the first base mutation of a key whose
//     chain is empty, the writer — holding the key's exclusive abstract
//     lock — plants the key's current (committed, by two-phase locking)
//     state as a floor entry at sequence 0. Planting happens *before* the
//     base mutation, which is what makes the lock-free reader's double-check
//     protocol sound (see At).
//   - Record-at-commit: the post-op state of each mutated key is appended to
//     a per-(transaction, Versions) pending log from the component's pool
//     and published into the chains only at the commit point, under the
//     transaction's commit sequence number, while its abstract locks are
//     still held. An aborted transaction discards the log; chains only ever
//     contain committed states.
//
// Recording absolute post-op states is sound precisely when the committing
// transaction holds an exclusive lock on the key until after publication —
// true for the Keyed, Coarse and Adaptive disciplines and for Ranged point
// ops. It is *not* true for shared-demand objects (counter add, heap add):
// two commuting adds may publish in either order, and the later sequence
// would carry the wrong absolute value. Those objects own no Versions and
// their read-only reads fall back to eager locking.
//
// Garbage collection: each publication trims its key's chain to the newest
// entry at-or-below the manager's trim bound (min of oldest pin and visible
// sequence) plus everything newer. With no pins, steady state is one or two
// entries per touched key; a long-lived pin visibly grows the retained
// gauge, and the first publication on a key after the pin closes reclaims
// that key's backlog, capacity included (see verChain.trim).

import (
	"hash/maphash"
	"sync"

	"tboost/internal/mvcc"
	"tboost/internal/stm"
)

// Version is one committed state of one key: whether the key was present
// (set membership, map binding, a positive count) and, if so, its state.
// State is the zero S whenever Present is false.
type Version[S any] struct {
	Seq     uint64 // commit sequence; 0 for the pre-history floor entry
	Present bool
	State   S
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

// verSeed keys the stripe hash of every version table in the process: the
// hash only spreads keys over stripes, so tables need no seeds of their own
// and a Versions zero value is ready.
var verSeed = maphash.MakeSeed()

// verChain is one key's version history, ascending by sequence. Invariant:
// once non-empty it never becomes empty again — trims keep at least the
// newest entry at-or-below the bound — so a reader that observes a chain
// hit for a key can rely on every later read hitting too.
type verChain[K comparable, S any] struct {
	key  K
	vers []Version[S]
}

// verStripe is one shard of the table: a mutex, a small chain slice scanned
// linearly, and a spill index past verSpill chains.
type verStripe[K comparable, S any] struct {
	mu     sync.Mutex
	chains []verChain[K, S]
	idx    map[K]int // non-nil once len(chains) > verSpill
	_      [24]byte  // keep neighbouring stripe mutexes off one cache line
}

// Versions is one boosted object's version store: the striped per-key
// chains backing its lock-free snapshot reads, and the pool of its
// per-transaction pending logs. The zero value is ready and enabled;
// versioning stays dormant (one latched flag read per mutation) until the
// system's first snapshot pin activates it. It must not be copied after
// first use.
type Versions[K comparable, S any] struct {
	off     bool
	pool    sync.Pool
	stripes [verStripes]verStripe[K, S]
}

func (t *Versions[K, S]) stripe(key K) *verStripe[K, S] {
	return &t.stripes[maphash.Comparable(verSeed, key)&(verStripes-1)]
}

// find returns the index of key's chain in s, or -1. Caller holds s.mu.
func (s *verStripe[K, S]) find(key K) int {
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
func (s *verStripe[K, S]) ensure(key K) int {
	if i := s.find(key); i >= 0 {
		return i
	}
	s.chains = append(s.chains, verChain[K, S]{key: key})
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
func (c *verChain[K, S]) trim(bound uint64) int {
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
		c.vers = append(make([]Version[S], 0, tail), c.vers[j:]...)
		return j
	}
	copy(c.vers, c.vers[j:])
	clear(c.vers[tail:]) // a trimmed slot must not pin the state it held
	c.vers = c.vers[:tail]
	return j
}

// Disable turns the store off for good: nothing is seeded or recorded and
// read-only transactions fall back to eager locking on this object.
// Configuration-time only (benchmark ablations), before the object is
// shared.
func (t *Versions[K, S]) Disable() { t.off = true }

// Enabled reports whether the store keeps version history, i.e. whether a
// read-only transaction may answer from it.
func (t *Versions[K, S]) Enabled() bool { return !t.off }

// Live reports whether mutations of tx must seed and record: the store is
// enabled and the snapshot manager was active when tx's Atomic call began
// (the decision is latched at epoch entry — see stm.Tx.RecordsVersions).
// The latch, not the manager's live flag, is what specs must consult: a
// transaction that began before activation answers false for its entire
// run, so it can never pass NeedsSeed mid-flight and plant a floor derived
// from its own uncommitted earlier mutation. False means skip all version
// bookkeeping; the activation grace period (stm readonly.go) guarantees no
// pin can depend on what this transaction skips.
func (t *Versions[K, S]) Live(tx *stm.Tx) bool {
	return !t.off && tx.RecordsVersions()
}

// NeedsSeed reports whether key's chain is empty, i.e. the caller's
// impending mutation must plant the pre-state floor first. Seeding is
// two-step (NeedsSeed, read pre-state, Seed) so callers only pay the
// pre-state base read when a seed is actually due; the steps cannot race
// because only key's exclusive abstract-lock holder mutates or seeds it.
func (t *Versions[K, S]) NeedsSeed(key K) bool {
	s := t.stripe(key)
	s.mu.Lock()
	i := s.find(key)
	empty := i < 0 || len(s.chains[i].vers) == 0
	s.mu.Unlock()
	return empty
}

// version builds a chain entry, dropping the state of an absent key so no
// chain or pending log pins a value nobody can read.
func version[S any](seq uint64, present bool, state S) Version[S] {
	if !present {
		var zero S
		state = zero
	}
	return Version[S]{Seq: seq, Present: present, State: state}
}

// Seed plants key's pre-state as its sequence-0 floor entry if the chain is
// still empty. Must be called under key's abstract lock, before the base
// mutation it precedes: a reader that misses the chain and reads the base
// re-checks the chain afterwards, and that double-check is only conclusive
// if the seed landed before the base changed.
func (t *Versions[K, S]) Seed(tx *stm.Tx, key K, present bool, state S) {
	s := t.stripe(key)
	s.mu.Lock()
	c := &s.chains[s.ensure(key)]
	seeded := len(c.vers) == 0
	if seeded {
		c.vers = append(c.vers, version(0, present, state))
	}
	s.mu.Unlock()
	if seeded {
		tx.System().Snapshots().NoteRetained(1)
	}
}

// Record appends key's post-op state to the transaction's pending version
// log for this store (attaching a pooled log on first use). The record is
// published into the chain only at commit, under the commit sequence;
// aborts discard it.
func (t *Versions[K, S]) Record(tx *stm.Tx, key K, present bool, state S) {
	vl, _ := tx.VersionLookup(t).(*versionLog[K, S])
	if vl == nil {
		if vl, _ = t.pool.Get().(*versionLog[K, S]); vl == nil {
			vl = &versionLog[K, S]{tab: t}
		}
		tx.VersionAttach(t, vl)
	}
	vl.recs = append(vl.recs, versionRec[K, S]{key, version(0, present, state)})
}

// At returns key's newest version at-or-below seq. ok=false means the key
// has no chain (never mutated since versioning went live): the caller falls
// back to the base object, re-checks At, and — if the chain is still empty —
// trusts the base read, which the seed-before-mutate protocol makes sound
// (a mutation that could have torn the base read would have seeded the
// chain first, and the stripe mutex orders that seed before the re-check).
// A non-empty chain with no entry at-or-below seq cannot happen for a
// pinned reader (the floor entry is sequence 0 and trims never drop below a
// live pin); it reports ok=false defensively.
func (t *Versions[K, S]) At(key K, seq uint64) (v Version[S], ok bool) {
	s := t.stripe(key)
	s.mu.Lock()
	if i := s.find(key); i >= 0 {
		vers := s.chains[i].vers
		for j := len(vers) - 1; j >= 0; j-- {
			if vers[j].Seq <= seq {
				v = vers[j]
				s.mu.Unlock()
				return v, true
			}
		}
	}
	s.mu.Unlock()
	return v, false
}

// publish lands one committed version in key's chain at seq and trims the
// chain to bound. Same-sequence re-publication (several records for one key
// in one transaction) keeps the last. Caller (FlushVersions) runs under the
// committing transaction's abstract locks.
func (t *Versions[K, S]) publish(key K, v Version[S], seq, bound uint64, m *mvcc.Manager) {
	v.Seq = seq
	s := t.stripe(key)
	s.mu.Lock()
	c := &s.chains[s.ensure(key)]
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

// ChainLen reports the length of key's chain (tests).
func (t *Versions[K, S]) ChainLen(key K) int {
	s := t.stripe(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := s.find(key); i >= 0 {
		return len(s.chains[i].vers)
	}
	return 0
}

// versionRec is one pending (key, post-op state) pair awaiting commit.
type versionRec[K comparable, S any] struct {
	key K
	ver Version[S]
}

// versionLog is the pending version log of one (transaction, Versions)
// pair; it implements stm.VersionPending and is pooled per store.
type versionLog[K comparable, S any] struct {
	tab  *Versions[K, S]
	recs []versionRec[K, S]
}

// Len reports the number of pending records (savepoint bookkeeping).
func (vl *versionLog[K, S]) Len() int { return len(vl.recs) }

// TruncateTo discards records at index n and later (nested child rollback),
// zeroing them: the log's spare capacity never pins a key or a state.
func (vl *versionLog[K, S]) TruncateTo(n int) {
	if n = max(n, 0); n < len(vl.recs) {
		clear(vl.recs[n:])
		vl.recs = vl.recs[:n]
	}
}

// FlushVersions publishes every pending record at seq. Runs at the commit
// point under the transaction's abstract locks; the trim bound is read once
// per flush (a concurrently registered pin only makes it conservative).
func (vl *versionLog[K, S]) FlushVersions(tx *stm.Tx, seq uint64) {
	m := tx.System().Snapshots()
	bound := m.TrimBound()
	for i := range vl.recs {
		vl.tab.publish(vl.recs[i].key, vl.recs[i].ver, seq, bound, m)
	}
}

// Recycle clears the log and returns it to its store's pool.
func (vl *versionLog[K, S]) Recycle() {
	vl.TruncateTo(0)
	vl.tab.pool.Put(vl)
}

var _ stm.VersionPending = (*versionLog[int, int])(nil)
