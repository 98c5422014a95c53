package core

import (
	"tboost/internal/boost"
	"tboost/internal/idgen"
	"tboost/internal/stm"
)

// UniqueID is the boosted unique-ID generator of §3.4. AssignID never
// conflicts: any two calls returning distinct IDs commute, so no abstract
// lock is acquired at all — the fetch-and-add base object provides
// linearizability, and boosting explains why this is transactionally
// correct. The compensating release of an aborted assignment is a
// *post-abort disposable*: it may run arbitrarily late (or never, for a
// counter-based pool) without any transaction observing the delay.
type UniqueID struct {
	base     *idgen.Generator
	unassign boost.Disposables[int64]
}

// Dispose releases an ID an aborted transaction was assigned.
func (u *UniqueID) Dispose(id int64) { u.base.ReleaseID(id) }

// NewUniqueID returns a transactional unique-ID generator.
func NewUniqueID() *UniqueID {
	return &UniqueID{base: idgen.New()}
}

// AssignID removes and returns an ID from the pool of unused IDs. If tx
// aborts, the ID is released back to the pool after the abort completes.
func (u *UniqueID) AssignID(tx *stm.Tx) int64 {
	id := u.base.AssignID()
	u.unassign.OnAbort(tx, u, id)
	return id
}

// Assigned reports how many IDs have ever been assigned (including by
// aborted transactions whose releases were abandoned by the counter pool).
func (u *UniqueID) Assigned() int64 { return u.base.Assigned() }

// Released reports how many post-abort releases have run.
func (u *UniqueID) Released() int64 { return u.base.Released() }
