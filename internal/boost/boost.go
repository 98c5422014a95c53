// Package boost is the generic transactional-boosting kernel: the one place
// where the paper's methodology (Herlihy & Koskinen, PPoPP 2008) is executed
// against the transaction runtime and the lock manager.
//
// The paper's four rules are a single recipe — wrap a linearizable base
// object (Rule 1), serialize non-commuting calls with abstract locks
// (Rule 2), log a compensating inverse for each effective call (Rule 3), and
// defer disposable calls to after the outcome (Rule 4). Every boosted object
// in internal/core used to re-implement that recipe by hand; here it is one
// engine, and a boosted type is reduced to a *spec*:
//
//   - which lock Discipline the object uses (per-key, coarse, readers/writer,
//     interval), chosen at construction;
//   - per method, an Op descriptor: the call's abstract-lock Demand (its
//     conflict footprint) plus the disposables that make it deferrable
//     (OnCommit/OnAbort);
//   - per object, one undo record type and the ApplyUndo method that turns a
//     record back into the inverse base call (Undo, undo.go): Rule 3's
//     "which inverse, with which arguments" kept as data.
//
// The Demand names what the *method* needs semantically; the Discipline
// names how the *object* chose to approximate its conflict relation. Acquire
// maps one onto the other, so the same spec runs unchanged under a per-key
// table or a single coarse lock — the Fig. 10 ablation is a constructor
// argument, not a second implementation.
//
// The kernel preserves the hot-path contract of DESIGN.md §6: descriptors
// and undo records are plain values, so a boosted mutation allocates
// nothing.
package boost

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"

	"tboost/internal/lockmgr"
	"tboost/internal/stm"
)

// Demand classifies the abstract-lock footprint of one boosted method call —
// the part of the conflict relation the call exposes to the lock manager.
type Demand uint8

const (
	// DemandNone: the call commutes with everything (or the object's own
	// linearizable base provides all the isolation it needs). No abstract
	// lock is taken; the paper's unique-ID generator is the canonical case.
	DemandNone Demand = iota
	// DemandKey: the call conflicts only with calls on the same key
	// (add/remove/contains on a set).
	DemandKey
	// DemandRange: the call conflicts with calls whose keys fall inside
	// [Lo, Hi] (a range query over an ordered set).
	DemandRange
	// DemandShared: the call commutes with every other DemandShared call on
	// the object but not with DemandExcl calls (heap add, counter add).
	DemandShared
	// DemandExcl: the call conflicts with every other locked call on the
	// object (heap removeMin, counter get).
	DemandExcl
)

// String returns the lower-case name of the demand.
func (d Demand) String() string {
	switch d {
	case DemandNone:
		return "none"
	case DemandKey:
		return "key"
	case DemandRange:
		return "range"
	case DemandShared:
		return "shared"
	case DemandExcl:
		return "excl"
	default:
		return fmt.Sprintf("demand(%d)", uint8(d))
	}
}

// Op is the descriptor for one boosted method call: the abstract-lock demand
// it presents to Acquire, and the disposables Record hands to the runtime.
// An Op is a plain value — building one allocates nothing beyond the
// closures the caller chooses to fill in. The call's inverse is not part of
// it: that is a typed record logged through the object's Undo.
type Op[K comparable] struct {
	// Demand is the call's conflict footprint; Key or [Lo, Hi] qualify it
	// for the key- and interval-granular demands.
	Demand Demand
	Key    K
	Lo, Hi K

	// OnCommit is a disposable call deferred until after commit (Rule 4),
	// e.g. releasing a semaphore or freeing storage.
	OnCommit func()
	// OnAbort is a disposable call deferred until after rollback completes,
	// e.g. returning an unused ID to its pool.
	OnAbort func()
}

// Key returns the descriptor for a call whose footprint is a single key.
func Key[K comparable](k K) Op[K] { return Op[K]{Demand: DemandKey, Key: k} }

// Span returns the descriptor for a call whose footprint is the interval
// [lo, hi].
func Span[K comparable](lo, hi K) Op[K] { return Op[K]{Demand: DemandRange, Lo: lo, Hi: hi} }

// Shared returns the descriptor for a call that commutes with other Shared
// calls on the same object.
func Shared[K comparable]() Op[K] { return Op[K]{Demand: DemandShared} }

// Excl returns the descriptor for a call that conflicts with every other
// locked call on the same object.
func Excl[K comparable]() Op[K] { return Op[K]{Demand: DemandExcl} }

// Discipline is an object's abstract-lock strategy: how its constructor
// chose to realize the conflict relation its methods demand.
type Discipline uint8

const (
	// Unsynced objects take no abstract locks at all; their methods carry
	// DemandNone and rely on inverses and disposables alone (semaphore,
	// unique-ID, refcount, pool).
	Unsynced Discipline = iota
	// Keyed objects keep one abstract lock per key (the paper's LockKey).
	Keyed
	// Coarse objects funnel every locked call through one exclusive lock —
	// correct for any demand, concurrent for none (Fig. 10's slow variant).
	Coarse
	// ReadWrite objects map shared demands to the read side and exclusive
	// demands to the write side of a readers/writer lock (the boosted heap).
	ReadWrite
	// Ranged objects hold interval locks over an ordered key space; point
	// demands lock the degenerate interval [k, k].
	Ranged
	// Adaptive objects choose between Coarse and Keyed at runtime: one
	// coarse lock while quiet, promotion to a per-key table when contention
	// statistics cross a threshold (and optionally back). See adaptive.go
	// for the migration protocol.
	Adaptive
)

// String returns the lower-case name of the discipline.
func (d Discipline) String() string {
	switch d {
	case Unsynced:
		return "unsynced"
	case Keyed:
		return "keyed"
	case Coarse:
		return "coarse"
	case ReadWrite:
		return "readwrite"
	case Ranged:
		return "ranged"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("discipline(%d)", uint8(d))
	}
}

// rangeTable is the interval-lock backend of a Ranged object. It is an
// interface (rather than *lockmgr.RangeLock[K] directly) so Object[K] itself
// needs only comparable K; the cmp.Ordered constraint lives on NewRanged.
type rangeTable[K comparable] interface {
	LockRange(tx *stm.Tx, lo, hi K)
}

// Object is the boosting engine for one transactional object: it executes
// Op descriptors against the stm runtime and the lock manager. K is the
// object's abstract key space; disciplines that never inspect keys (Coarse,
// ReadWrite, Unsynced) may instantiate it with any comparable type.
type Object[K comparable] struct {
	disc   Discipline
	keyed  *lockmgr.LockMap[K]
	coarse *lockmgr.OwnerLock
	rw     *lockmgr.RWOwnerLock
	ranged rangeTable[K]
	adapt  *adaptCore // non-nil iff disc == Adaptive (keyed and coarse both set)

	// lazy selects the deferred execution discipline (see lazy.go): specs
	// append to a per-tx pending log instead of mutating the base, and the
	// commit-time drain fuses and applies. Chosen at construction.
	lazy bool
	// logPool recycles this object's pending logs across transactions and
	// retry attempts, so steady-state lazy ops allocate nothing.
	logPool sync.Pool
	// lazyLogged / lazyFused are the fusion counters: mutation entries
	// drained, and entries algebraic elimination removed (see LazyStats).
	lazyLogged atomic.Uint64
	lazyFused  atomic.Uint64

	// journal, when bound, receives the forward image of every effective
	// mutation (see Emit). Nil — the default — makes Emit a no-op, so
	// undurable objects pay one predictable branch.
	journal Journal[K]
}

// Journal receives forward operation images from a boosted object. The WAL
// implements it per object (binding the object's key codec and registered
// ID); the kernel only routes. Begin opens one op in tx's redo stream and
// returns the buffer that already holds key's encoding, End closes it under
// an opcode; between the two the spec appends any payload beyond the key
// (a map value) with its own codec, so every byte is encoded in place,
// once. Both are called from inside boosted methods, after the abstract
// locks for the call are held, and never interleave within one goroutine.
type Journal[K comparable] interface {
	Begin(tx *stm.Tx, key K) []byte
	End(tx *stm.Tx, kind uint8, buf []byte)
}

// BindJournal attaches j to the object; every subsequent effective mutation
// that the object's spec reports via Emit flows to j. Binding is a
// configuration-time action (before the object is shared between
// goroutines); rebinding or nil-binding mid-flight is not supported.
func (o *Object[K]) BindJournal(j Journal[K]) { o.journal = j }

// Journaled reports whether a journal is bound.
func (o *Object[K]) Journaled() bool { return o.journal != nil }

// Emit reports one effective forward mutation whose image is its key alone
// to the bound journal, if any. Specs call it exactly where they log the
// matching inverse: an op enters the redo stream iff its compensation
// enters the undo log, which keeps the two logs describing the same state
// delta. kind is an opcode in the object's namespace.
func (o *Object[K]) Emit(tx *stm.Tx, kind uint8, key K) {
	if o.journal == nil {
		return
	}
	o.journal.End(tx, kind, o.journal.Begin(tx, key))
}

// EmitBegin and EmitEnd are Emit for an op that carries a payload after the
// key: the spec appends it to the buffer EmitBegin returns and hands the
// result to EmitEnd. The buffer belongs to the journal — append to it, pass
// it on, keep nothing. Only specs that know a journal is bound call them.
func (o *Object[K]) EmitBegin(tx *stm.Tx, key K) []byte { return o.journal.Begin(tx, key) }

func (o *Object[K]) EmitEnd(tx *stm.Tx, kind uint8, buf []byte) { o.journal.End(tx, kind, buf) }

// NewKeyed returns an engine with one abstract lock per key.
func NewKeyed[K comparable]() *Object[K] {
	return &Object[K]{disc: Keyed, keyed: lockmgr.NewLockMap[K]()}
}

// NewKeyedStripes is NewKeyed with an explicit lock-table stripe count,
// exposed for the striping ablation benchmarks.
func NewKeyedStripes[K comparable](stripes int) *Object[K] {
	return &Object[K]{disc: Keyed, keyed: lockmgr.NewLockMapStripes[K](stripes)}
}

// NewKeyedPolicy is NewKeyed with an explicit contention policy on the
// per-key locks (e.g. lockmgr.WoundWait), overriding the system-wide
// stm.Config.Contention choice. Engines built without an explicit policy —
// every other constructor here — inherit the policy of the System their
// transactions run on, so setting Contention in one place governs every
// boosted object.
func NewKeyedPolicy[K comparable](stripes int, p lockmgr.Policy) *Object[K] {
	return &Object[K]{disc: Keyed, keyed: lockmgr.NewLockMapPolicy[K](stripes, p)}
}

// NewCoarse returns an engine with a single exclusive abstract lock for all
// locked calls.
func NewCoarse[K comparable]() *Object[K] {
	return &Object[K]{disc: Coarse, coarse: lockmgr.NewOwnerLock()}
}

// NewReadWrite returns an engine backed by a readers/writer abstract lock:
// shared demands share, exclusive demands exclude.
func NewReadWrite[K comparable]() *Object[K] {
	return &Object[K]{disc: ReadWrite, rw: lockmgr.NewRWOwnerLock()}
}

// NewRanged returns an engine backed by interval locks over an ordered key
// space: the stripe-partitioned manager by default, or the pre-PR 4
// single-mutex manager when the lockmgr.SetLegacyRangeLocks benchmark knob
// is set at construction time.
func NewRanged[K cmp.Ordered]() *Object[K] {
	if lockmgr.LegacyRangeLocks() {
		return &Object[K]{disc: Ranged, ranged: lockmgr.NewRangeLock[K]()}
	}
	return &Object[K]{disc: Ranged, ranged: lockmgr.NewStripedRangeLock[K]()}
}

// NewRangedPartition is NewRanged with an explicit stripe count and key
// partition for the striped interval-lock table (ablations, or key spaces
// whose default partition clusters badly).
func NewRangedPartition[K cmp.Ordered](stripes int, p lockmgr.Partition[K]) *Object[K] {
	return &Object[K]{disc: Ranged, ranged: lockmgr.NewStripedRangeLockConfig(stripes, p)}
}

// NewUnsynced returns an engine that takes no abstract locks; only
// DemandNone descriptors (inverses and disposables) may pass through it.
func NewUnsynced[K comparable]() *Object[K] {
	return &Object[K]{disc: Unsynced}
}

// Discipline reports the engine's constructed lock discipline. For an
// Adaptive engine this is the constant Adaptive, whatever granularity it is
// currently running at: callers that branch on how a *transaction's* calls
// actually lock must use LatchedDiscipline, which answers through the per-tx
// latch and therefore cannot disagree with the locks the transaction holds.
func (o *Object[K]) Discipline() Discipline { return o.disc }

// LatchedDiscipline reports the effective lock discipline of tx's calls on
// this object: for static engines it is Discipline(); for an Adaptive engine
// it is the granularity tx latched at its first lock demand here — Coarse or
// Keyed, with the transitional bridge reporting Coarse because the coarse
// lock covers the whole footprint. A transaction that has not yet demanded a
// lock latches now, so the answer is guaranteed to match every subsequent
// locked call this transaction makes. Discipline-dependent callers (WAL
// binding adapters, version seeding, tests inspecting lock tables) must use
// this, never the raw mode, or a migration landing between two of their ops
// could split one transaction's view across granularities.
func (o *Object[K]) LatchedDiscipline(tx *stm.Tx) Discipline {
	if o.disc != Adaptive {
		return o.disc
	}
	if o.adapt.latch(tx) == adaptModeKeyed {
		return Keyed
	}
	return Coarse
}

// KeyTable returns the per-key lock table of a Keyed engine, for tests and
// introspection. Adaptive engines also return their table — it exists for
// the object's whole life — but whether a given transaction's locks are in
// it is a per-tx question: consult LatchedDiscipline, not the table's mere
// presence. Nil for every other discipline.
func (o *Object[K]) KeyTable() *lockmgr.LockMap[K] { return o.keyed }

// CoarseLock returns the single abstract lock of a Coarse engine, or the
// coarse half of an Adaptive engine (nil otherwise), for tests and
// introspection.
func (o *Object[K]) CoarseLock() *lockmgr.OwnerLock { return o.coarse }

// rangeStats is the introspection face of the striped interval-lock manager.
// The legacy single-mutex RangeLock does not implement it (no escalation
// concept), so RangeStats reports ok=false there.
type rangeStats interface {
	Escalations() uint64
	SpuriousWakeups() uint64
}

// RangeStats surfaces the interval-lock table's contention counters for a
// Ranged engine: whole-table escalations taken and wait-loop wakeups that
// re-checked and re-blocked. ok is false for non-Ranged engines and for the
// legacy single-mutex manager.
func (o *Object[K]) RangeStats() (escalations, spurious uint64, ok bool) {
	rs, ok := o.ranged.(rangeStats)
	if !ok {
		return 0, 0, false
	}
	return rs.Escalations(), rs.SpuriousWakeups(), true
}

// Acquire satisfies op's abstract-lock demand under the object's discipline
// before the base-object call runs. Acquisition is two-phase (held to
// commit/abort) and reentrant, and aborts tx on timeout — all inherited from
// the lock manager. A demand the discipline cannot express panics: that is a
// spec bug, not a runtime condition.
func (o *Object[K]) Acquire(tx *stm.Tx, op Op[K]) {
	if op.Demand == DemandNone {
		return
	}
	if tx.ReadOnly() && tx.System().StrictReadOnly() {
		// The eager fallback for read-only transactions is legal by
		// default; under StrictReadOnly the workload asserted its readers
		// never leave the lock-free versioned path, so a demand here is a
		// configuration bug (unversioned object in a snapshot read).
		panic("boost: abstract-lock demand by read-only transaction under StrictReadOnly")
	}
	switch o.disc {
	case Keyed:
		if op.Demand != DemandKey {
			panic("boost: keyed discipline cannot express demand " + op.Demand.String())
		}
		o.keyed.Lock(tx, op.Key)
	case Adaptive:
		if op.Demand != DemandKey {
			panic("boost: adaptive discipline cannot express demand " + op.Demand.String())
		}
		// Lock under the granularity this transaction latched at its first
		// demand on this object — never the live mode, which a concurrent
		// migration may move mid-transaction (see adaptive.go).
		switch o.adapt.latch(tx) {
		case adaptModeCoarse:
			o.coarse.Acquire(tx)
		case adaptModeBridge:
			// The bridge holds both tables, coarse strictly first: every
			// bridge call orders the pair identically, so two bridge
			// transactions cannot deadlock between the tables.
			o.coarse.Acquire(tx)
			o.keyed.Lock(tx, op.Key)
		default: // adaptModeKeyed
			o.keyed.Lock(tx, op.Key)
		}
	case Coarse:
		// One lock serializes everything: any demand is (conservatively)
		// satisfied by exclusive ownership.
		o.coarse.Acquire(tx)
	case ReadWrite:
		switch op.Demand {
		case DemandShared:
			o.rw.RLock(tx)
		case DemandExcl:
			o.rw.WLock(tx)
		default:
			panic("boost: readers/writer discipline cannot express demand " + op.Demand.String())
		}
	case Ranged:
		switch op.Demand {
		case DemandKey:
			o.ranged.LockRange(tx, op.Key, op.Key)
		case DemandRange:
			o.ranged.LockRange(tx, op.Lo, op.Hi)
		default:
			panic("boost: ranged discipline cannot express demand " + op.Demand.String())
		}
	default: // Unsynced
		panic("boost: unsynced object given lock demand " + op.Demand.String())
	}
}

// Record hands op's disposables to the runtime, deferred to after the
// transaction's outcome (Rule 4).
func (o *Object[K]) Record(tx *stm.Tx, op Op[K]) {
	if op.OnCommit != nil {
		tx.OnCommit(op.OnCommit)
	}
	if op.OnAbort != nil {
		tx.OnAbort(op.OnAbort)
	}
}

// Relock re-acquires the abstract lock for one logged key on behalf of an
// adopted in-doubt transaction during recovery: the same keyed demand the
// original call made, held to the adopted transaction's commit or abort so
// conflicting traffic blocks exactly as it did before the crash. Valid for
// every durable-bindable discipline (Keyed, Adaptive, Coarse, Ranged — all
// of which can express DemandKey); recovery runs before traffic, so the
// acquisition cannot contend.
func (o *Object[K]) Relock(tx *stm.Tx, key K) {
	o.Acquire(tx, Key(key))
}

// Apply executes a whole descriptor: Acquire, then Record. It suits calls
// whose disposables do not depend on the base call's result; calls that
// must first observe the base object's answer use Acquire, run the call,
// and Record the outcome-dependent closures.
func (o *Object[K]) Apply(tx *stm.Tx, op Op[K]) {
	o.Acquire(tx, op)
	o.Record(tx, op)
}

// Inverse logs a compensating inverse with the running transaction
// (Rule 3): it runs iff tx aborts, in reverse logging order. It is the door
// for inverses with no arguments to record — pass a method value bound at
// construction and the call allocates nothing; an inverse that carries
// arguments is a typed record (Undo.Log). Boosted objects never call tx.Log.
func Inverse(tx *stm.Tx, undo func()) { tx.Log(undo) }

// OnCommit defers a disposable call to after tx commits (Rule 4).
func OnCommit(tx *stm.Tx, f func()) { tx.OnCommit(f) }

// OnAbort defers a disposable call to after tx's rollback completes
// (Rule 4).
func OnAbort(tx *stm.Tx, f func()) { tx.OnAbort(f) }
