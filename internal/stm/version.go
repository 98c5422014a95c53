package stm

// Multi-version commit support: per-transaction pending version records
// published at the commit point under a global sequence number.
//
// Mirroring the lazy-boosting split (lazy.go), the runtime knows nothing
// about version representation: internal/boost implements VersionPending and
// owns the per-key chains. The runtime's job is ordering — every versioned
// mutation a transaction performs leaves a pending record in a per-(tx,
// object) log, and at the commit point, while the abstract locks are still
// held, the runtime draws a sequence number from the system's snapshot
// manager, flushes every attached log at that sequence, and publishes it.
// Because the sequence is assigned and published inside the locked region,
// sequence order equals serialization order for conflicting transactions —
// and equals WAL append order, since the durability sink runs in the same
// region (see commit()).
//
// An aborted transaction discards its pending records untouched: nothing was
// published, so rollback is pure truncation, exactly like the lazy logs.

// VersionPending is one object's pending version-record log attached to a
// transaction; implemented by boost's version log. The runtime drives it
// through the commit flush and nested-savepoint truncation without knowing
// the record representation.
type VersionPending interface {
	// Len reports the number of pending records (savepoint bookkeeping).
	Len() int
	// TruncateTo discards records logged at index n and later (nested child
	// rollback).
	TruncateTo(n int)
	// FlushVersions publishes every pending record into the object's
	// version chains at sequence seq. Called at the commit point with the
	// transaction's abstract locks held; it must not fail.
	FlushVersions(tx *Tx, seq uint64)
	// Recycle clears the log and returns it to its owner's pool. Called
	// exactly once per attachment, after flush or rollback.
	Recycle()
}

// versionAttach pairs an attached version log with the object identity used
// for lookup (same shape as lazyAttach).
type versionAttach struct {
	obj any
	log VersionPending
}

// VersionLookup returns the version log previously attached for obj, or nil.
func (tx *Tx) VersionLookup(obj any) VersionPending {
	tx.stateLock()
	defer tx.stateUnlock()
	for i := range tx.vers {
		if tx.vers[i].obj == obj {
			return tx.vers[i].log
		}
	}
	return nil
}

// VersionAttach registers log as the pending version log for obj. Callers
// must not attach twice for the same object (use VersionLookup first).
func (tx *Tx) VersionAttach(obj any, log VersionPending) {
	tx.stateLock()
	tx.vers = append(tx.vers, versionAttach{obj: obj, log: log})
	tx.stateUnlock()
}

// flushVersions assigns the transaction its commit sequence number and
// publishes every pending version record at it. Runs at the commit point —
// after the Committed store, with every abstract lock still held — so for
// any two conflicting transactions the lock order, the WAL append order, and
// the sequence order agree. Publication is in-order (mvcc.Manager.Publish),
// so a reader that pins the visible sequence afterwards sees this commit and
// every commit it depends on fully flushed.
func (tx *Tx) flushVersions() {
	m := tx.system.snaps
	seq := m.Begin()
	tx.commitSeq = seq
	// Publication is unconditional from here: Publish is in-order, so a seq
	// drawn but never published would spin every later committer forever.
	// FlushVersions must not fail, but if one panics anyway the deferred
	// publish runs during unwind — the panic still propagates (this commit
	// is broken), the rest of the system keeps committing.
	defer m.Publish(seq)
	for i := range tx.vers {
		tx.vers[i].log.FlushVersions(tx, seq)
	}
	tx.clearVers()
}

// discardVers drops every pending version record (abort path): nothing was
// published, so discarding the logs is the whole rollback.
func (tx *Tx) discardVers() { tx.clearVers() }

// clearVers recycles every attached version log and truncates the
// attachment slice, keeping capacity for the descriptor's next life.
func (tx *Tx) clearVers() {
	for i := range tx.vers {
		tx.vers[i].log.Recycle()
		tx.vers[i] = versionAttach{}
	}
	tx.vers = tx.vers[:0]
}
