// Package wal is the durability engine behind stm.DurabilitySink: a
// segmented, append-only *logical* write-ahead log. Boosting makes this
// cheap — the paper's Rule 3 already forces every effective mutation to be
// described operation-by-operation (each has a compensating inverse), so the
// committed forward-op stream is a redo log by construction. The WAL
// serializes that stream, group-commits it (one fsync acknowledges a whole
// batch of committers), and replays it over freshly-constructed base objects
// on recovery. Checkpoints bound replay work and let old segments be pruned.
//
// Correctness hinges on one ordering fact: stm calls DurabilitySink.Commit
// with the transaction's abstract locks still held, so conflicting
// transactions reach the log in serialization order and the log's append
// order is a legal replay order. Commuting transactions may appear in either
// order — by Herlihy & Koskinen's commutativity argument, replaying them in
// log order reaches the same abstract state.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"tboost/internal/stm"
)

// castagnoli is the CRC-32C table used for record frames and checkpoint
// footers (same polynomial storage engines conventionally use; hardware
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a frame or checkpoint that fails structural or CRC
// validation. During recovery a corrupt record is interpreted as the torn
// tail of the log: everything before it is kept, it and everything after are
// discarded.
var ErrCorrupt = errors.New("wal: corrupt record")

// Op is one logical operation inside a record: the forward image of an
// effective boosted call. Obj is the registration index of the durable
// object, Kind an opcode in that object's namespace, Data the codec-encoded
// key plus payload. It mirrors stm.RedoOp; the WAL re-declares it so dump
// and recovery tooling need not import the runtime.
type Op struct {
	Obj  uint32
	Kind uint8
	Data []byte
}

// Record is one committed transaction's entry in the log.
type Record struct {
	LSN  uint64 // log sequence number, dense, assigned at append
	TxID uint64 // the runtime's transaction ID, for audit/verification
	Ops  []Op
}

// Frame layout, all integers little-endian:
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//
// Payload:
//
//	u64 LSN | u64 TxID | uvarint nops |
//	  nops × ( uvarint obj | u8 kind | uvarint len(data) | data )
//
// The length prefix bounds the read; the CRC detects torn writes and bit
// rot. A frame whose length field itself is torn fails either the
// remaining-bytes check or the CRC, so any prefix of a valid log plus
// arbitrary garbage decodes to a prefix of its records.
const (
	frameHeader = 8       // u32 len + u32 crc
	maxPayload  = 1 << 28 // sanity bound on a single record
)

// meta is the optional two-phase-commit op that leads a record (see
// twopc.go): kind 0 means the record has none.
type meta struct {
	kind uint8
	gid  uint64
}

// appendPayload serializes (lsn, txID, [meta op,] ops) — the frame payload
// without its header — onto buf, reading the redo ops where they lie.
func appendPayload(buf []byte, lsn, txID uint64, m meta, ops []stm.RedoOp) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = binary.LittleEndian.AppendUint64(buf, txID)
	if m.kind == 0 {
		buf = binary.AppendUvarint(buf, uint64(len(ops)))
	} else {
		var gid [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(gid[:], m.gid)
		buf = binary.AppendUvarint(buf, uint64(len(ops))+1)
		buf = binary.AppendUvarint(buf, uint64(metaObj))
		buf = append(buf, m.kind)
		buf = binary.AppendUvarint(buf, uint64(n))
		buf = append(buf, gid[:n]...)
	}
	for i := range ops {
		op := &ops[i]
		buf = binary.AppendUvarint(buf, uint64(op.Obj))
		buf = append(buf, op.Kind)
		buf = binary.AppendUvarint(buf, uint64(len(op.Data)))
		buf = append(buf, op.Data...)
	}
	return buf
}

// frameFinish fills in the header of the frame at buf[start:]: append
// reserves frameHeader bytes, appends the payload behind them, and calls
// this with the payload complete.
func frameFinish(buf []byte, start int) {
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
}

// decodeFrame parses one frame from b. It returns the record, the total
// frame size consumed, and an error: ErrCorrupt for a structurally invalid
// or CRC-failing frame, io-style short reads also map to ErrCorrupt (a torn
// tail is indistinguishable from corruption and handled the same way).
func decodeFrame(b []byte) (Record, int, error) {
	if len(b) < frameHeader {
		return Record{}, 0, fmt.Errorf("%w: short frame header (%d bytes)", ErrCorrupt, len(b))
	}
	plen := binary.LittleEndian.Uint32(b)
	if plen == 0 || plen > maxPayload || int(plen) > len(b)-frameHeader {
		return Record{}, 0, fmt.Errorf("%w: bad payload length %d", ErrCorrupt, plen)
	}
	crc := binary.LittleEndian.Uint32(b[4:])
	payload := b[frameHeader : frameHeader+int(plen)]
	if crc32.Checksum(payload, castagnoli) != crc {
		return Record{}, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, frameHeader + int(plen), nil
}

func decodePayload(p []byte) (Record, error) {
	if len(p) < 16 {
		return Record{}, fmt.Errorf("%w: payload too short", ErrCorrupt)
	}
	rec := Record{
		LSN:  binary.LittleEndian.Uint64(p),
		TxID: binary.LittleEndian.Uint64(p[8:]),
	}
	p = p[16:]
	nops, n := binary.Uvarint(p)
	if n <= 0 || nops > math.MaxInt32 {
		return Record{}, fmt.Errorf("%w: bad op count", ErrCorrupt)
	}
	p = p[n:]
	rec.Ops = make([]Op, 0, nops)
	for i := uint64(0); i < nops; i++ {
		obj, n := binary.Uvarint(p)
		if n <= 0 || obj > math.MaxUint32 {
			return Record{}, fmt.Errorf("%w: bad obj id", ErrCorrupt)
		}
		p = p[n:]
		if len(p) < 1 {
			return Record{}, fmt.Errorf("%w: missing op kind", ErrCorrupt)
		}
		kind := p[0]
		p = p[1:]
		dlen, n := binary.Uvarint(p)
		if n <= 0 || dlen > uint64(len(p)-n) {
			return Record{}, fmt.Errorf("%w: bad op data length", ErrCorrupt)
		}
		p = p[n:]
		data := make([]byte, dlen)
		copy(data, p[:dlen])
		p = p[dlen:]
		rec.Ops = append(rec.Ops, Op{Obj: uint32(obj), Kind: kind, Data: data})
	}
	if len(p) != 0 {
		return Record{}, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p))
	}
	return rec, nil
}

// Codec serializes one key (or value) type for the log. Append serializes v
// onto buf and returns the extended slice; Decode parses one value from the
// front of b, returning it and the bytes consumed. Implementations must be
// self-delimiting: Decode must not need to be told where the value ends,
// because keys are concatenated with auxiliary payloads in op data.
type Codec[T any] interface {
	Append(buf []byte, v T) []byte
	Decode(b []byte) (T, int, error)
}

// Int64Codec encodes int64 keys as zigzag varints.
var Int64Codec Codec[int64] = int64Codec{}

type int64Codec struct{}

func (int64Codec) Append(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }
func (int64Codec) Decode(b []byte) (int64, int, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: bad int64 key", ErrCorrupt)
	}
	return v, n, nil
}

// Uint64Codec encodes uint64 keys as uvarints.
var Uint64Codec Codec[uint64] = uint64Codec{}

type uint64Codec struct{}

func (uint64Codec) Append(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }
func (uint64Codec) Decode(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: bad uint64 key", ErrCorrupt)
	}
	return v, n, nil
}

// StringCodec encodes strings length-prefixed (uvarint length + bytes).
var StringCodec Codec[string] = stringCodec{}

type stringCodec struct{}

func (stringCodec) Append(buf []byte, v string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	return append(buf, v...)
}
func (stringCodec) Decode(b []byte) (string, int, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || l > uint64(len(b)-n) {
		return "", 0, fmt.Errorf("%w: bad string key", ErrCorrupt)
	}
	return string(b[n : n+int(l)]), n + int(l), nil
}

// CodecFunc assembles a Codec from two functions — the convenient way to
// register a struct key without a named type.
func CodecFunc[T any](app func([]byte, T) []byte, dec func([]byte) (T, int, error)) Codec[T] {
	return codecFunc[T]{app, dec}
}

type codecFunc[T any] struct {
	app func([]byte, T) []byte
	dec func([]byte) (T, int, error)
}

func (c codecFunc[T]) Append(buf []byte, v T) []byte   { return c.app(buf, v) }
func (c codecFunc[T]) Decode(b []byte) (T, int, error) { return c.dec(b) }
