// Package core implements transactional boosting — the paper's primary
// contribution. It turns highly-concurrent *linearizable* objects into
// equally concurrent *transactional* objects by wrapping them with:
//
//   - abstract locks keyed by method commutativity (two method calls that
//     commute never contend; two that do not are serialized by two-phase
//     locks, satisfying the paper's Rule 2, Commutativity Isolation);
//   - an operation-level undo log of inverse method calls, replayed in
//     reverse on abort (Rule 3, Compensating Actions);
//   - deferred disposable calls that run after commit or abort (Rule 4,
//     Disposable Methods).
//
// The base objects (skip list, heap, deque, hash set, ...) are treated as
// black boxes: the boosting layer never inspects their representation, only
// their abstract semantics. Thread-level synchronization stays inside the
// base object; transaction-level synchronization lives entirely here.
//
// Since the kernel extraction (DESIGN.md §7), the objects in this package
// are thin *specs* over internal/boost: each method states its abstract-lock
// demand and disposables as an Op descriptor, each object states its inverse
// once as a typed undo record plus an ApplyUndo method, and the kernel
// executes both against internal/stm and internal/lockmgr. No object in this package touches the undo log or the
// lock manager directly, and the collection types are generic over their key
// space (any comparable type; ordered types for range disciplines).
//
// The boosted objects provided:
//
//   - Set / Map / Multiset: collections with per-key or coarse abstract
//     locking over any comparable key type (§3.1)
//   - OrderedSet: a sorted set whose range queries hold interval-granular
//     abstract locks
//   - Heap: a priority queue with a readers/writer abstract lock and
//     Holder-based add inverses (§3.2)
//   - Queue + Semaphore: pipeline buffers with transactional conditional
//     synchronization (§3.3)
//   - UniqueID: the disposable-release ID generator (§3.4)
//   - RefCount, Pool: the reference-count and malloc/free disposability
//     patterns the paper sketches (§2)
package core
