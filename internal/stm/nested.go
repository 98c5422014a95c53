package stm

// Closed nested transactions — the extension sketched in the paper's
// conclusion ("It could encompass STMs based on nested transactions using
// techniques similar to those employed by LogTM"). The semantics follow
// Moss-style closed nesting:
//
//   - A child transaction runs inside its parent and sees the parent's
//     effects (same undo log, same lock ownership — abstract locks are
//     owned by the Tx, so the child reuses them reentrantly).
//   - If the child completes, its operations, locks, and deferred handlers
//     merge into the parent; nothing is visible to other transactions until
//     the top-level transaction commits.
//   - If the child aborts, only the child's operations are rolled back
//     (inverse calls in reverse order), only the locks first acquired by
//     the child are released, and only the child's post-abort disposables
//     run. The parent continues.
//
// Unlike open nesting, a committed child publishes nothing early, so the
// deadlock and information-leakage pitfalls the paper attributes to open
// nesting do not arise.

// savepoint captures the transaction's log/lock/handler positions at child
// entry.
type savepoint struct {
	undo, redo, redoBuf, locks, atCommit, onCommit, onAbort, onValidate int

	// lazyLogs is how many lazy pending logs were attached at child entry;
	// lazyLens holds each such log's entry count, so a child rollback can
	// truncate the logs the child appended to and recycle the ones it
	// attached. lazyLens is allocated only when lazy logs exist — purely
	// eager transactions pay nothing.
	lazyLogs int
	lazyLens []int

	// versLogs/versLens give pending version logs the same treatment:
	// version records of a rolled-back child must never be published.
	versLogs int
	versLens []int
}

func (tx *Tx) save() savepoint {
	tx.stateLock()
	defer tx.stateUnlock()
	sp := savepoint{
		undo:       len(tx.undo),
		redo:       len(tx.redo),
		redoBuf:    len(tx.redoBuf),
		locks:      len(tx.locks),
		atCommit:   len(tx.atCommit),
		onCommit:   len(tx.onCommit),
		onAbort:    len(tx.onAbort),
		onValidate: len(tx.onValidate),
	}
	if n := len(tx.lazy); n > 0 {
		sp.lazyLogs = n
		sp.lazyLens = make([]int, n)
		for i := range tx.lazy {
			sp.lazyLens[i] = tx.lazy[i].log.Len()
		}
	}
	if n := len(tx.vers); n > 0 {
		sp.versLogs = n
		sp.versLens = make([]int, n)
		for i := range tx.vers {
			sp.versLens[i] = tx.vers[i].log.Len()
		}
	}
	return sp
}

// rollbackTo undoes everything logged after the savepoint: inverse
// operations in reverse order, then release of locks first acquired after
// the savepoint, then the child's post-abort disposables. Handlers
// registered by the child are discarded.
//
// The undo suffix replays first (the one index sp.undo is the whole undo
// savepoint: popping the stack each later entry names undoes exactly the
// child's records, see undo.go). The other segments are detached under the
// transaction mutex and executed outside it; savepoint indices are only
// meaningful while no sibling Parallel branch is appending, so a Nested
// child must not run concurrently with branches that log to the same
// transaction (see Nested).
func (tx *Tx) rollbackTo(sp savepoint) {
	tx.replayUndo(sp.undo)

	tx.stateLock()
	// The child's forward ops leave the redo stream with it: a rolled-back
	// child must contribute nothing to the durable log. Its bytes leave the
	// arena too; the parent's ops keep their views (a prefix survives any
	// regrowth the child caused).
	clear(tx.redo[sp.redo:])
	tx.redo = tx.redo[:sp.redo]
	tx.redoBuf = tx.redoBuf[:sp.redoBuf]

	childLocks := append([]Unlocker{}, tx.locks[sp.locks:]...)
	if tx.lockIdx != nil {
		for _, l := range childLocks {
			delete(tx.lockIdx, l)
		}
	}
	clear(tx.locks[sp.locks:])
	tx.locks = tx.locks[:sp.locks]

	childOnAbort := append([]disposable{}, tx.onAbort[sp.onAbort:]...)
	tx.atCommit = clearTail(tx.atCommit, sp.atCommit)
	tx.onCommit = clearTail(tx.onCommit, sp.onCommit)
	tx.onAbort = clearTail(tx.onAbort, sp.onAbort)
	tx.onValidate = clearTail(tx.onValidate, sp.onValidate)

	// Lazy pending logs mirror tx.redo: the child's deferred ops leave
	// with it. Logs the child attached are detached here and recycled
	// below; logs the parent had already attached are truncated back to
	// their entry counts at child entry — after the child's undo replay
	// above, because an early-flush undo closure re-pends the entries it
	// had applied, and the truncation must see the restored log.
	var childLazy []lazyAttach
	if len(tx.lazy) > sp.lazyLogs {
		childLazy = append(childLazy, tx.lazy[sp.lazyLogs:]...)
		clear(tx.lazy[sp.lazyLogs:])
		tx.lazy = tx.lazy[:sp.lazyLogs]
	}

	// Version logs mirror the lazy logs: records the child pended leave
	// with it (they were never published — publication happens only at the
	// top-level commit), logs it attached are recycled below.
	var childVers []versionAttach
	if len(tx.vers) > sp.versLogs {
		childVers = append(childVers, tx.vers[sp.versLogs:]...)
		clear(tx.vers[sp.versLogs:])
		tx.vers = tx.vers[:sp.versLogs]
	}
	tx.stateUnlock()

	// Truncate the parent's surviving lazy logs back to their child-entry
	// lengths. Nested children never run concurrently with Parallel
	// branches (see Nested), so touching the logs outside the state lock
	// here is safe.
	for i := 0; i < sp.lazyLogs; i++ {
		tx.lazy[i].log.TruncateTo(sp.lazyLens[i])
	}
	for i := 0; i < sp.versLogs; i++ {
		tx.vers[i].log.TruncateTo(sp.versLens[i])
	}
	for i := len(childLocks) - 1; i >= 0; i-- {
		childLocks[i].Unlock(tx)
	}
	for _, d := range childOnAbort {
		d.run()
	}
	for _, a := range childLazy {
		a.log.Recycle()
	}
	for _, a := range childVers {
		a.log.Recycle()
	}
}

// Nested runs fn as a closed nested transaction of tx. If fn returns nil,
// the child's effects merge into tx (publication still awaits the top-level
// commit). If fn returns an error, the child's effects are rolled back and
// the error is returned; the parent transaction remains active and may
// continue, retry the child, or fail itself.
//
// A conflict abort inside the child (abstract-lock timeout, tx.Abort)
// aborts the whole transaction, not just the child — the retry loop in
// Atomic restarts from the top, which is the standard flattening treatment
// and is always safe. Nested may be called recursively.
//
// Nested relies on log positions, so a child must not run concurrently with
// sibling Parallel branches that log to the same transaction; run Nested
// either outside Parallel or as the only logging activity while it runs.
func (tx *Tx) Nested(fn func(tx *Tx) error) error {
	sp := tx.save()
	err := tx.runNested(fn)
	if err != nil {
		tx.rollbackTo(sp)
	}
	return err
}

// runNested executes fn, converting a non-abort panic into rollback of the
// whole transaction as usual (the panic propagates; Atomic's recover
// handles full rollback, which subsumes the child's).
func (tx *Tx) runNested(fn func(tx *Tx) error) error {
	return fn(tx)
}
