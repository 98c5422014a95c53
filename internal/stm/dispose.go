package stm

// Disposable calls (Rule 4): deferred to after the transaction's outcome, in
// registration order. A closure registered through OnCommit/OnAbort is one
// kind of entry; a boosted object whose disposable carries an argument (the
// ID to release, the object to free) registers a typed record instead — kept
// by value on a per-transaction stack from the object's own pool
// (boost.Disposables), attached by owner identity like the undo stacks — so
// deferring it allocates nothing. Both kinds share tx.onCommit/tx.onAbort,
// which is what keeps the order, the nested savepoints and the discard of
// the list the outcome did not select one mechanism.

// DisposeLog is one typed stack of disposable-call records belonging to a
// transaction.
type DisposeLog interface {
	// Dispose makes the call record i stands for; at most once per record.
	Dispose(i int)
	// Recycle drops every record and returns the stack to its owner's pool
	// holding no user value. Called once per attachment, after the outcome's
	// disposables ran.
	Recycle()
}

// disposable is one deferred call: a closure, or record idx of a typed
// stack.
type disposable struct {
	fn  func()
	log DisposeLog
	idx int
}

func (d disposable) run() {
	if d.fn != nil {
		d.fn()
		return
	}
	d.log.Dispose(d.idx)
}

// disposeAttach pairs an attached stack with the owner identity used for
// lookup.
type disposeAttach struct {
	owner any
	log   DisposeLog
}

// DisposeBegin opens the registration of one typed disposable: it returns
// the stack attached for owner, or nil if owner has deferred nothing this
// attempt — the caller then passes a stack from its pool to DisposeAttach.
// Either way it pushes one record and calls DisposeEnd, doing nothing else
// in between: once Parallel has escalated the bracket holds the state lock.
func (tx *Tx) DisposeBegin(owner any) DisposeLog {
	if tx.readOnly {
		panic("stm: disposable registered in read-only transaction")
	}
	tx.stateLock()
	for i := range tx.disposeLogs {
		if tx.disposeLogs[i].owner == owner {
			return tx.disposeLogs[i].log
		}
	}
	return nil
}

// DisposeAttach registers log as owner's stack for this attempt; only
// between a DisposeBegin that returned nil and its DisposeEnd.
func (tx *Tx) DisposeAttach(owner any, log DisposeLog) {
	tx.disposeLogs = append(tx.disposeLogs, disposeAttach{owner: owner, log: log})
}

// DisposeEnd defers record idx of log, just pushed, to after commit or to
// after rollback completes.
func (tx *Tx) DisposeEnd(log DisposeLog, idx int, onCommit bool) {
	if onCommit {
		tx.onCommit = append(tx.onCommit, disposable{log: log, idx: idx})
	} else {
		tx.onAbort = append(tx.onAbort, disposable{log: log, idx: idx})
	}
	tx.stateUnlock()
}

// settle ends both disposable lists once the outcome is known: the list it
// selects runs in registration order, the other is discarded unrun, and
// every typed stack goes back to its pool.
func (tx *Tx) settle(committed bool) {
	run := tx.onAbort
	if committed {
		run = tx.onCommit
	}
	for i := range run {
		run[i].run()
	}
	tx.onCommit = clearTail(tx.onCommit, 0)
	tx.onAbort = clearTail(tx.onAbort, 0)
	for i := range tx.disposeLogs {
		tx.disposeLogs[i].log.Recycle()
		tx.disposeLogs[i] = disposeAttach{}
	}
	tx.disposeLogs = tx.disposeLogs[:0]
}
