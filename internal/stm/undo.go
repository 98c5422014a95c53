package stm

// The undo log (Rule 3): which inverse call, with which arguments, undoes
// each effective call — recorded as data, replayed in reverse on abort.
//
// tx.undo is one ordered sequence whose entries carry no payload: each names
// the typed stack that holds its record, as a slot number (0 is the
// descriptor's own closure stack, i+1 is tx.undoLogs[i]) — four bytes and no
// pointer per logged inverse. A boosted object keeps its records by value on
// a per-transaction stack from its own pool (boost.Undo), attached by owner
// identity like the lazy and version logs; closures passed to Log sit on the
// descriptor's stack. An append pushes one record and one sequence entry
// under one section of the state lock, so replaying tx.undo[n:] newest
// first, popping the named stack at each step, applies exactly the records
// logged since position n in reverse logging order across all objects. That
// is why a nested savepoint is the single index len(tx.undo), and why abort,
// child rollback and a prepared branch's late abort share replayUndo.

import "tboost/internal/faultpoint"

// UndoLog is one typed stack of undo records belonging to a transaction.
type UndoLog interface {
	// UndoTop pops the newest record and applies its inverse; called once
	// per sequence entry naming this stack.
	UndoTop()
	// Recycle drops any records left (a committed transaction's are never
	// applied) and returns the stack to its owner's pool holding no key or
	// value. Called once per attachment, after commit or a finished replay.
	Recycle()
}

// undoAttach pairs an attached stack with the owner identity used for lookup.
type undoAttach struct {
	owner any
	log   UndoLog
}

// undoKeep bounds the bytes a pooled descriptor keeps in tx.undo and in its
// closure stack, as redoBufKeep bounds the redo arena: a bulk load must not
// leave its slab on the pool.
const undoKeep = 4 << 10

// Log appends an inverse operation to the transaction's undo log. If the
// transaction aborts, logged operations run in reverse order of logging
// (Rule 3: compensating actions). If it commits, the log is discarded.
// Boosted objects log typed records instead (UndoBegin).
func (tx *Tx) Log(undo func()) {
	if tx.readOnly {
		panic("stm: mutation (undo log append) in read-only transaction")
	}
	tx.stateLock()
	tx.undoFns = append(tx.undoFns, undo)
	tx.undo = append(tx.undo, 0)
	tx.stateUnlock()
}

// UndoBegin opens the append of one typed undo record: it returns the stack
// attached for owner, or nil if owner has logged nothing this attempt — the
// caller then passes a stack from its pool to UndoAttach. Either way it
// pushes one record and calls UndoEnd, doing nothing else in between: once
// Parallel has escalated the bracket holds the state lock, which is what
// keeps two branches' pushes and sequence entries paired.
func (tx *Tx) UndoBegin(owner any) UndoLog {
	if tx.readOnly {
		panic("stm: mutation (undo log append) in read-only transaction")
	}
	tx.stateLock()
	for i := range tx.undoLogs {
		if tx.undoLogs[i].owner == owner {
			tx.undoSlot = uint32(i + 1)
			return tx.undoLogs[i].log
		}
	}
	return nil
}

// UndoAttach registers log as owner's stack for this attempt; only between
// an UndoBegin that returned nil and its UndoEnd.
func (tx *Tx) UndoAttach(owner any, log UndoLog) {
	tx.undoLogs = append(tx.undoLogs, undoAttach{owner: owner, log: log})
	tx.undoSlot = uint32(len(tx.undoLogs))
}

// UndoEnd gives the record just pushed, on the stack UndoBegin found or
// UndoAttach registered, the next sequence position.
func (tx *Tx) UndoEnd() {
	tx.undo = append(tx.undo, tx.undoSlot)
	tx.stateUnlock()
}

// UndoDepth reports how many inverse operations are currently logged.
// It exists chiefly for tests and introspection.
func (tx *Tx) UndoDepth() int {
	tx.stateLock()
	defer tx.stateUnlock()
	return len(tx.undo)
}

// replayUndo applies the inverses logged at position n and later, newest
// first, and truncates the sequence to n. No branch is appending when it
// runs (Parallel has joined; a Nested child never overlaps one).
func (tx *Tx) replayUndo(n int) {
	for i := len(tx.undo) - 1; i >= n; i-- {
		faultpoint.Hit(faultpoint.StmBetweenUndo) // delay window mid-inverse
		if slot := tx.undo[i]; slot > 0 {
			tx.undoLogs[slot-1].log.UndoTop()
			continue
		}
		top := len(tx.undoFns) - 1
		f := tx.undoFns[top]
		tx.undoFns = clearTail(tx.undoFns, top)
		f()
	}
	tx.undo = tx.undo[:n]
}

// dropUndo ends the log's life at commit, prepared-commit or after a full
// replay, returning every attached stack to its pool. A replay that panics
// never gets here: its half-replayed stacks are abandoned with the
// descriptor, not pooled.
func (tx *Tx) dropUndo() {
	if 4*cap(tx.undo) > undoKeep {
		tx.undo = nil
	}
	tx.undo = tx.undo[:0]
	if 8*cap(tx.undoFns) > undoKeep {
		tx.undoFns = nil
	}
	tx.undoFns = clearTail(tx.undoFns, 0)
	for i := range tx.undoLogs {
		tx.undoLogs[i].log.Recycle()
		tx.undoLogs[i] = undoAttach{}
	}
	tx.undoLogs = tx.undoLogs[:0]
}
