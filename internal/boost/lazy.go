package boost

// Lazy discipline: deferred ops, commit-time fusion, commit-instant locks.
//
// Eager boosting (the paper's discipline) acquires a call's abstract lock
// and mutates the base object the moment the call runs, so locks are held
// for the whole transaction body. The lazy discipline defers instead: a
// boosted call appends a small entry to a per-(transaction, object) pending
// log and answers from the log plus an *unlocked* read of the base; nothing
// touches the base — and no abstract lock is taken — until the commit
// instant. At commit the log is fused algebraically (add∘remove annihilate,
// remove∘add reduce, inc∘inc combine into one delta, last-writer-wins for
// map puts), the surviving net ops' locks are acquired, the optimistic
// reads are re-validated under those locks, and only then do the net ops
// run against the base. Aborting a lazy transaction is log truncation: no
// inverse ever needs to replay because nothing was applied.
//
// Correctness leans on the observation-first protocol: the first entry a
// spec logs for a key is a LazyObserve recording what the unlocked base
// read returned. Every answer the transaction produced for that key is a
// deterministic function of that observation plus the pending entries after
// it, so if the observation still holds under the commit-instant lock (and
// two-phase locking keeps it holding until release), every answer is the
// one a serial execution at the commit point would have produced. A failed
// re-check aborts and retries — the optimistic analogue of the eager
// discipline's lock timeout.
//
// Answer-free (quiet) mutations opt out of the protocol: a call whose
// answer the caller discards logs its op with no preceding observation, so
// it costs no base read in the body and no re-check at commit. Such a key's
// net op fuses as an upsert — "make present"/"make absent" — whose apply
// tolerates a no-op base call instead of reading it as staleness. Answers
// to later answering ops on the same key still come from the log: after a
// quiet add the key *is* present in every serialization, whatever the base
// said before.
//
// Range queries cannot be answered from a point-keyed pending log, so lazy
// ordered sets *early-flush*: Flush drains this object's log mid-body with
// eager bookkeeping (inverses logged, entries restorable on nested
// rollback), after which the range query proceeds under its interval lock
// as in the eager discipline.

import (
	"cmp"
	"errors"

	"tboost/internal/faultpoint"
	"tboost/internal/lockmgr"
	"tboost/internal/stm"
)

// ErrLazyValidation is the abort cause used when a commit-time drain finds
// that an optimistic observation no longer holds under the abstract lock:
// some conflicting transaction committed between the unlocked read and this
// transaction's commit instant. The retry loop classifies it as a
// validation abort.
var ErrLazyValidation = errors.New("boost: lazy drain validation failed; optimistic read out of date")

func init() { stm.RegisterAbortKind(ErrLazyValidation, stm.KindValidation) }

// LazyKind tags one pending-log entry.
type LazyKind uint8

const (
	// LazyObserve records the answer of an unlocked base read — the key's
	// first entry under the observation-first protocol. For sets OK is the
	// observed membership, for multisets N is the observed count, for maps
	// Val/OK are the observed binding.
	LazyObserve LazyKind = iota
	// LazyAdd defers set.Add(Key).
	LazyAdd
	// LazyRemove defers set.Remove(Key).
	LazyRemove
	// LazyInc defers N occurrences-worth of multiset add (N may be
	// negative for removals; fusion sums deltas).
	LazyInc
	// LazyPut defers map.Put(Key, Val); fusion keeps the last writer.
	LazyPut
	// LazyDelete defers map.Delete(Key).
	LazyDelete
)

// LazyEntry is one deferred operation or observation. Entries are plain
// values appended to a pooled slice, so a deferred mutation allocates
// nothing beyond slice growth (amortized).
type LazyEntry[K comparable, V any] struct {
	Kind LazyKind
	Key  K
	N    int64 // LazyInc delta / LazyObserve'd count / net-op applied flag
	Val  V     // LazyPut value / LazyObserve'd binding (struct{} for sets and multisets)
	OK   bool  // LazyObserve'd presence / net set op: checked (observation-backed)
}

// LazySpec is what a boosted object's spec contributes to the drain: how to
// re-check an observation against the base under the commit-instant lock,
// and how to apply one fused net op.
//
// LazyApply returns false when the base call's own answer contradicts the
// observation the net op was fused from — a net set add only survives fusion
// when the key was observed absent, so base.Add answering "already present"
// at the commit instant proves the observation stale (and, the failing call
// being a no-op, leaves the base untouched). Specs whose apply calls carry
// that signal mark the key validate-by-apply during fusion and skip the
// separate phase-B re-read; specs whose applies are unconditionally
// effective (map puts, multiset deltas) always return true and rely on
// phase-B validation. A false return mid-drain triggers unapply of every op
// already applied (LazyUnapply inverts one successful apply; the entry may
// carry state LazyApply stashed for it).
//
// LazyApply with eager=true is the early-flush path — the spec must log
// inverses and route Emit exactly as its eager methods do, because the
// transaction may still abort; with eager=false the transaction is past
// phase-B validation and the op applies bare (plus Emit), reversible only
// through LazyUnapply on the apply-check failure path.
type LazySpec[K comparable, V any] interface {
	LazyValidate(e LazyEntry[K, V]) bool
	LazyApply(tx *stm.Tx, e *LazyEntry[K, V], eager bool) bool
	LazyUnapply(e *LazyEntry[K, V])
}

// lazyAccSpill is the distinct-key count past which fusion's accumulator
// lookup spills from a linear scan to a map, mirroring the lock-set spill
// in the runtime.
const lazyAccSpill = 16

// lazyAcc accumulates one key's entries during fusion.
type lazyAcc[K comparable] struct {
	key   K
	obs   int   // index of the key's first LazyObserve, -1 if none
	last  int   // index of the key's last set/map mutation, -1 if none
	muts  int   // mutation entries seen for the key
	delta int64 // summed LazyInc deltas
	// applyChecked marks a key whose surviving net op re-validates the
	// observation as a side effect of applying (set add/remove: the base
	// call fails exactly when the observed presence went stale), so phase B
	// skips its re-read.
	applyChecked bool
}

// LazyLog is the pending op log of one (transaction, object) pair. It
// implements stm.LazyPending; the runtime drives PrepareCommit /
// ValidateCommit / ApplyCommit across all attached logs so that nothing is
// applied anywhere before every lock is held and every observation has
// re-checked. Logs are pooled per object and reused across attempts and
// Atomic calls.
type LazyLog[K comparable, V any] struct {
	obj  *Object[K]
	spec LazySpec[K, V]
	ents []LazyEntry[K, V]

	// Drain scratch, rebuilt by fuse and reused across drains.
	accs   []lazyAcc[K]
	accIdx map[K]int // non-nil once len(accs) > lazyAccSpill
	net    []LazyEntry[K, V]

	// ro marks a log attached by a read-only transaction: observations may
	// accumulate (the eager-fallback read path), mutations panic. Set by
	// PendingLog at attach time.
	ro bool
}

// Append adds one entry to the pending log.
func (lg *LazyLog[K, V]) Append(e LazyEntry[K, V]) {
	if lg.ro && e.Kind != LazyObserve {
		panic("boost: deferred mutation in read-only transaction")
	}
	lg.ents = append(lg.ents, e)
}

// ObservePresence records an unlocked membership read (sets).
func (lg *LazyLog[K, V]) ObservePresence(key K, present bool) {
	lg.ents = append(lg.ents, LazyEntry[K, V]{Kind: LazyObserve, Key: key, OK: present})
}

// ObserveCount records an unlocked occurrence-count read (multisets).
func (lg *LazyLog[K, V]) ObserveCount(key K, n int64) {
	lg.ents = append(lg.ents, LazyEntry[K, V]{Kind: LazyObserve, Key: key, N: n})
}

// ObserveBinding records an unlocked binding read (maps). An absent key is
// recorded with the zero value whatever the base handed back beside !ok, so
// Binding answers absent keys alike whichever entry decides.
func (lg *LazyLog[K, V]) ObserveBinding(key K, val V, ok bool) {
	if !ok {
		var zero V
		val = zero
	}
	lg.ents = append(lg.ents, LazyEntry[K, V]{Kind: LazyObserve, Key: key, Val: val, OK: ok})
}

// Membership answers a set-shaped read from the pending log: the latest
// entry for key decides. known=false means the log has never touched key
// and the caller must observe the base first.
func (lg *LazyLog[K, V]) Membership(key K) (present, known bool) {
	for i := len(lg.ents) - 1; i >= 0; i-- {
		e := &lg.ents[i]
		if e.Key != key {
			continue
		}
		switch e.Kind {
		case LazyAdd:
			return true, true
		case LazyRemove:
			return false, true
		case LazyObserve:
			return e.OK, true
		}
	}
	return false, false
}

// Binding answers a map-shaped read from the pending log.
func (lg *LazyLog[K, V]) Binding(key K) (val V, ok, known bool) {
	for i := len(lg.ents) - 1; i >= 0; i-- {
		e := &lg.ents[i]
		if e.Key != key {
			continue
		}
		switch e.Kind {
		case LazyPut:
			return e.Val, true, true
		case LazyDelete:
			return val, false, true
		case LazyObserve:
			return e.Val, e.OK, true
		}
	}
	return val, false, false
}

// CountDelta answers a multiset-shaped read: the observed base count (if
// any observation was logged) plus the pending delta. known=false means key
// is untouched and the caller must observe first.
func (lg *LazyLog[K, V]) CountDelta(key K) (obs, delta int64, known bool) {
	for i := range lg.ents {
		e := &lg.ents[i]
		if e.Key != key {
			continue
		}
		switch e.Kind {
		case LazyObserve:
			obs = e.N
			known = true
		case LazyInc:
			delta += e.N
			known = true
		}
	}
	return obs, delta, known
}

// Len reports the number of pending entries.
func (lg *LazyLog[K, V]) Len() int { return len(lg.ents) }

// TruncateTo discards entries at index n and later, clearing their payload
// references. n past the current length is a no-op (an early flush may have
// shrunk the log below a savepoint recorded before it).
func (lg *LazyLog[K, V]) TruncateTo(n int) {
	if n < 0 {
		n = 0
	}
	if n >= len(lg.ents) {
		return
	}
	clear(lg.ents[n:])
	lg.ents = lg.ents[:n]
}

// acc returns the accumulator for key, creating it on first touch. The
// returned pointer is valid only until the next acc call (the slice may
// grow).
func (lg *LazyLog[K, V]) acc(key K) *lazyAcc[K] {
	if lg.accIdx != nil {
		if i, ok := lg.accIdx[key]; ok {
			return &lg.accs[i]
		}
	} else {
		for i := range lg.accs {
			if lg.accs[i].key == key {
				return &lg.accs[i]
			}
		}
	}
	lg.accs = append(lg.accs, lazyAcc[K]{key: key, obs: -1, last: -1})
	i := len(lg.accs) - 1
	if lg.accIdx != nil {
		lg.accIdx[key] = i
	} else if len(lg.accs) > lazyAccSpill {
		lg.accIdx = make(map[K]int, 2*lazyAccSpill)
		for j := range lg.accs {
			lg.accIdx[lg.accs[j].key] = j
		}
	}
	return &lg.accs[i]
}

// fuse folds the entry list into per-key accumulators and derives the net
// op list — the algebraic elimination step. Per key:
//
//	set:      final presence vs observed presence; equal → annihilated,
//	          else one LazyAdd or LazyRemove survives
//	multiset: LazyInc deltas sum; zero → annihilated
//	map:      last Put/Delete wins; Delete of a key observed absent →
//	          annihilated
//
// The object's fusion counters advance here: logged counts mutation entries
// drained, fused counts the ones elimination removed.
func (lg *LazyLog[K, V]) fuse() {
	clear(lg.accs)
	lg.accs = lg.accs[:0]
	lg.accIdx = nil // maps never shrink; drop, as the runtime does lockIdx
	clear(lg.net)
	lg.net = lg.net[:0]
	for i := range lg.ents {
		e := &lg.ents[i]
		a := lg.acc(e.Key)
		switch e.Kind {
		case LazyObserve:
			if a.obs < 0 {
				a.obs = i
			}
		case LazyInc:
			a.delta += e.N
			a.muts++
		default:
			a.last = i
			a.muts++
		}
	}
	logged := 0
	for i := range lg.accs {
		a := &lg.accs[i]
		logged += a.muts
		if a.last >= 0 {
			last := &lg.ents[a.last]
			switch last.Kind {
			case LazyAdd:
				if a.obs >= 0 && lg.ents[a.obs].OK {
					continue // was present, ends present: annihilated
				}
				// Observed keys survive only when observed absent, so the
				// apply's base.Add answers the validation question itself;
				// the net entry's OK records that (checked). Unobserved
				// (quiet) keys apply as upserts: OK=false tells the spec a
				// no-op base call is fine, not staleness.
				a.applyChecked = a.obs >= 0
				lg.net = append(lg.net, LazyEntry[K, V]{Kind: LazyAdd, Key: a.key, OK: a.applyChecked})
			case LazyRemove:
				if a.obs >= 0 && !lg.ents[a.obs].OK {
					continue // was absent, ends absent: annihilated
				}
				a.applyChecked = a.obs >= 0
				lg.net = append(lg.net, LazyEntry[K, V]{Kind: LazyRemove, Key: a.key, OK: a.applyChecked})
			case LazyPut:
				lg.net = append(lg.net, LazyEntry[K, V]{Kind: LazyPut, Key: a.key, Val: last.Val})
			case LazyDelete:
				if a.obs >= 0 && !lg.ents[a.obs].OK {
					continue // deleting a key observed absent: annihilated
				}
				lg.net = append(lg.net, LazyEntry[K, V]{Kind: LazyDelete, Key: a.key})
			}
		} else if a.delta != 0 {
			lg.net = append(lg.net, LazyEntry[K, V]{Kind: LazyInc, Key: a.key, N: a.delta})
		}
	}
	lg.obj.lazyLogged.Add(uint64(logged))
	lg.obj.lazyFused.Add(uint64(logged - len(lg.net)))
}

// acquire takes the abstract lock of every key the drain touched —
// surviving net ops *and* annihilated/observed keys, because validation
// needs the observations stable too. Locks are demanded per key in
// first-touch order; the engine maps the demand onto its discipline (keyed
// table, coarse lock, or the degenerate interval [k,k]).
func (lg *LazyLog[K, V]) acquire(tx *stm.Tx) {
	for i := range lg.accs {
		switch faultpoint.Hit(faultpoint.BoostLazyDrain) {
		case faultpoint.Timeout:
			tx.Abort(lockmgr.ErrTimeout)
		case faultpoint.Doom:
			tx.Doom()
		}
		lg.obj.Acquire(tx, Op[K]{Demand: DemandKey, Key: lg.accs[i].key})
	}
}

// PrepareCommit fuses the log and acquires the commit-instant locks
// (phase A of the drain).
func (lg *LazyLog[K, V]) PrepareCommit(tx *stm.Tx) {
	lg.fuse()
	lg.acquire(tx)
}

// ValidateCommit re-checks every key's first observation against the base
// under the locks PrepareCommit acquired (phase B). A mismatch means some
// conflicting transaction committed since the unlocked read; the answers
// this transaction handed out may be wrong, so it aborts and retries. Keys
// whose net op is validate-by-apply are skipped: their re-check is the
// apply call itself, saving a base traversal on the common path.
func (lg *LazyLog[K, V]) ValidateCommit(tx *stm.Tx) {
	for i := range lg.accs {
		a := &lg.accs[i]
		if a.obs < 0 || a.applyChecked {
			continue
		}
		if !lg.spec.LazyValidate(lg.ents[a.obs]) {
			tx.Abort(ErrLazyValidation)
		}
	}
}

// ApplyCommit applies the fused net ops to the base object (phase C) and
// emits their forward images to the redo stream, so the durability sink
// logs the shrunken op list. It returns false when a validate-by-apply op
// discovers its observation stale — the failing call left the base
// untouched, the already-applied prefix has been unapplied, and the runtime
// must unapply every earlier log and abort.
func (lg *LazyLog[K, V]) ApplyCommit(tx *stm.Tx) bool {
	for i := range lg.net {
		if !lg.spec.LazyApply(tx, &lg.net[i], false) {
			for j := i - 1; j >= 0; j-- {
				lg.spec.LazyUnapply(&lg.net[j])
			}
			return false
		}
	}
	return true
}

// UnapplyCommit inverts a completed ApplyCommit, newest op first. The
// runtime calls it on logs whose phase C already ran when a later log's
// apply-check failed; the abstract locks from PrepareCommit are still held,
// so the inversion is invisible to other transactions.
func (lg *LazyLog[K, V]) UnapplyCommit() {
	for i := len(lg.net) - 1; i >= 0; i-- {
		lg.spec.LazyUnapply(&lg.net[i])
	}
}

// Flush early-drains this log mid-body: fuse, lock, validate, then apply
// with eager bookkeeping (inverses logged, Emit routed) so a later abort
// rolls the applied ops back, and an undo closure restores the flushed
// entries so a *nested* rollback re-pends rather than loses them. Lazy
// ordered sets call it before range queries, which the point-keyed pending
// log cannot answer.
func (lg *LazyLog[K, V]) Flush(tx *stm.Tx) {
	if len(lg.ents) == 0 {
		return
	}
	lg.fuse()
	lg.acquire(tx)
	for i := range lg.accs {
		a := &lg.accs[i]
		if a.obs >= 0 && !a.applyChecked && !lg.spec.LazyValidate(lg.ents[a.obs]) {
			tx.Abort(ErrLazyValidation)
		}
	}
	snap := make([]LazyEntry[K, V], len(lg.ents))
	copy(snap, lg.ents)
	tx.Log(func() { lg.restorePrefix(snap) })
	for i := range lg.net {
		// eager=true logged an inverse for every op already applied, so an
		// apply-check failure here aborts through the ordinary undo log.
		if !lg.spec.LazyApply(tx, &lg.net[i], true) {
			tx.Abort(ErrLazyValidation)
		}
	}
	lg.TruncateTo(0)
}

// restorePrefix re-pends a flushed snapshot ahead of whatever the log holds
// now. It runs as an undo closure, in reverse flush order, so repeated
// flushes reassemble the original entry sequence.
func (lg *LazyLog[K, V]) restorePrefix(snap []LazyEntry[K, V]) {
	if len(lg.ents) == 0 {
		lg.ents = append(lg.ents, snap...)
		return
	}
	merged := make([]LazyEntry[K, V], 0, len(snap)+len(lg.ents))
	merged = append(merged, snap...)
	merged = append(merged, lg.ents...)
	lg.ents = merged
}

// Recycle clears the log and returns it to its object's pool. Called by the
// runtime exactly once per attachment, after commit or rollback.
func (lg *LazyLog[K, V]) Recycle() {
	lg.TruncateTo(0)
	clear(lg.accs)
	lg.accs = lg.accs[:0]
	lg.accIdx = nil
	clear(lg.net)
	lg.net = lg.net[:0]
	lg.obj.logPool.Put(lg)
}

// PendingLog returns the pending log attaching this object to tx, creating
// and attaching one (from the object's pool) on first use. spec is the
// boosted object's drain callbacks; every call for one object must pass the
// same spec.
func PendingLog[K comparable, V any](o *Object[K], tx *stm.Tx, spec LazySpec[K, V]) *LazyLog[K, V] {
	if p := tx.LazyLookup(o); p != nil {
		return p.(*LazyLog[K, V])
	}
	lg, _ := o.logPool.Get().(*LazyLog[K, V])
	if lg == nil {
		lg = new(LazyLog[K, V])
	}
	lg.obj, lg.spec, lg.ro = o, spec, tx.ReadOnly()
	tx.LazyAttach(o, lg)
	return lg
}

// FlushPending early-drains tx's pending log for this object, if any (see
// LazyLog.Flush). A transaction that never deferred an op here is a no-op.
func (o *Object[K]) FlushPending(tx *stm.Tx) {
	if p := tx.LazyLookup(o); p != nil {
		p.(interface{ Flush(*stm.Tx) }).Flush(tx)
	}
}

// Lazy reports whether the engine runs the lazy discipline: specs defer
// mutations to a pending log and the kernel drains it at commit.
func (o *Object[K]) Lazy() bool { return o.lazy }

// LazyStats reports the object's fusion counters: mutation entries drained
// from pending logs (logged) and how many of them algebraic elimination
// removed before they reached the base (fused). Counters accumulate across
// retries; the fusion ratio fused/logged is the benchmark column.
func (o *Object[K]) LazyStats() (logged, fused uint64) {
	return o.lazyLogged.Load(), o.lazyFused.Load()
}

var _ stm.LazyPending = (*LazyLog[int, int])(nil)

// lazify flips a freshly constructed engine into the lazy discipline.
func lazify[K comparable](o *Object[K]) *Object[K] {
	o.lazy = true
	return o
}

// NewLazyKeyed returns a lazy engine with one abstract lock per key; locks
// are only taken at the commit instant, by the drain.
func NewLazyKeyed[K comparable]() *Object[K] { return lazify(NewKeyed[K]()) }

// NewLazyKeyedStripes is NewLazyKeyed with an explicit lock-table stripe
// count.
func NewLazyKeyedStripes[K comparable](stripes int) *Object[K] {
	return lazify(NewKeyedStripes[K](stripes))
}

// NewLazyCoarse returns a lazy engine whose drain funnels through one
// exclusive lock.
func NewLazyCoarse[K comparable]() *Object[K] { return lazify(NewCoarse[K]()) }

// NewLazyRanged returns a lazy engine over interval locks: deferred point
// ops lock [k,k] at the drain; range queries early-flush and lock their
// interval eagerly (the pending log is point-keyed).
func NewLazyRanged[K cmp.Ordered]() *Object[K] { return lazify(NewRanged[K]()) }
