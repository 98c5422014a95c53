package stm

import "errors"

// This file is the runtime's entire durability surface. Boosting's undo log
// is operation-level, so the stream of committed forward operations is
// already a logical redo log; the runtime's only jobs are to carry that
// stream on the transaction descriptor and to hand it to a sink at the
// right instant. Everything else — encoding, batching, fsync, recovery —
// lives in internal/wal behind the DurabilitySink interface.

// RedoOp is one serialized logical operation of a transaction's redo
// stream: the forward image of an effective boosted call. Obj identifies
// the durable object (assigned when the object registers with the WAL),
// Kind is an opcode in that object's namespace, and Data is the
// codec-encoded key plus any payload — a view into the descriptor's redo
// arena (see RedoBegin). The runtime treats all three as opaque.
type RedoOp struct {
	Obj  uint32
	Kind uint8
	Data []byte
}

// DurabilitySink receives each committing transaction's redo stream.
//
// Commit is called at the transaction's commit point with its abstract
// locks still held, so conflicting transactions reach the sink in
// serialization order and the sink's append order is a legal replay order.
// The sink must capture ops (encode or copy) before returning: the slice
// and every Data view point into the transaction descriptor's redo arena,
// which is truncated as soon as Commit returns and overwritten by the next
// transaction the pooled descriptor serves.
//
// The returned wait function is the durability barrier: the runtime calls
// it after releasing the transaction's locks and before the outcome is
// released to the caller, so lock hold times stay short while the
// acknowledgment still implies durability. A nil wait means the sink needs
// no barrier (async or disabled modes); a non-nil one is called exactly
// once, so a sink may recycle whatever it is bound to. A non-nil error from
// wait marks the transaction as committed in memory but not acknowledged
// durable; Atomic surfaces it as ErrNotDurable.
type DurabilitySink interface {
	Commit(txID uint64, ops []RedoOp) (wait func() error)
}

// ErrNotDurable is returned by Atomic when the transaction committed in
// memory — its effects are applied and its locks released — but the
// durability barrier failed, so the commit was never acknowledged as
// durable. After a crash and recovery such a transaction may or may not
// reappear (whole, never partially); callers needing certainty must treat
// it as unresolved and re-check.
var ErrNotDurable = errors.New("stm: transaction committed in memory but not acknowledged durable")

// redoBufKeep bounds the redo arena a descriptor carries into its next
// life: one transaction with a large payload must not leave every later
// user of the pooled descriptor holding its buffer.
const redoBufKeep = 4 << 10

// RedoBegin opens one forward operation of the transaction's redo stream
// and returns the buffer its codec-encoded key and payload are appended to;
// RedoEnd closes it. The boosting kernel's journal binding brackets each
// effective mutation of a durable object with the pair, so the bytes are
// written once, into an arena the descriptor owns and reuses: the stream is
// handed to the system's DurabilitySink iff the transaction commits, and
// truncated on abort. Ops are opened and closed one at a time.
//
// The arena is single-owner state. Once the transaction has escalated
// (Parallel), branches encode aside — RedoBegin returns nil — and RedoEnd
// copies the bytes in under tx.mu, so no lock is ever held across a codec.
func (tx *Tx) RedoBegin() []byte {
	if tx.parallel.Load() {
		return nil
	}
	return tx.redoBuf
}

// RedoEnd closes the op RedoBegin opened: buf is the returned buffer,
// extended by the op's data. RedoOp.Data is a view of those bytes; growing
// the arena for a later op leaves it pointing at the superseded array, whose
// contents no one changes, so earlier views stay valid until dropRedo.
func (tx *Tx) RedoEnd(obj uint32, kind uint8, buf []byte) {
	tx.stateLock()
	if tx.parallel.Load() {
		buf = append(tx.redoBuf, buf...)
	}
	off := len(tx.redoBuf)
	tx.redoBuf = buf
	tx.redo = append(tx.redo, RedoOp{Obj: obj, Kind: kind, Data: buf[off:len(buf):len(buf)]})
	tx.stateUnlock()
}

// RedoLen reports how many redo operations are currently recorded and how
// many arena bytes they occupy. For tests and introspection.
func (tx *Tx) RedoLen() (ops, bytes int) {
	tx.stateLock()
	defer tx.stateUnlock()
	return len(tx.redo), len(tx.redoBuf)
}

// dropRedo empties the redo stream at commit, abort, or prepared-commit:
// the op slice is zeroed (its Data views pin every array the arena grew
// through) and both keep their capacity for the descriptor's next life, the
// arena only up to redoBufKeep.
func (tx *Tx) dropRedo() {
	clear(tx.redo)
	tx.redo = tx.redo[:0]
	if cap(tx.redoBuf) > redoBufKeep {
		tx.redoBuf = nil
	}
	tx.redoBuf = tx.redoBuf[:0]
}
