package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"tboost/internal/stm"
)

// The reference encoder: the append path as it stood before records were
// encoded straight from []stm.RedoOp — ops copied into a private slice, the
// two-phase meta op materialized as a leading element with a heap-allocated
// gid. The on-disk format is defined by what this produces; the live
// encoder must match it byte for byte (see refFrame's callers).
type refOp struct {
	data []byte
	obj  uint32
	kind uint8
}

func refAppendPayload(buf []byte, lsn, txID uint64, ops []refOp) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = binary.LittleEndian.AppendUint64(buf, txID)
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		buf = binary.AppendUvarint(buf, uint64(op.obj))
		buf = append(buf, op.kind)
		buf = binary.AppendUvarint(buf, uint64(len(op.data)))
		buf = append(buf, op.data...)
	}
	return buf
}

// refFrame is the frame the reference encoder writes for one record.
func refFrame(lsn, txID uint64, m meta, ops []stm.RedoOp) []byte {
	var raw []refOp
	if m.kind != 0 {
		raw = append(raw, refOp{obj: metaObj, kind: m.kind, data: binary.AppendUvarint(nil, m.gid)})
	}
	for _, op := range ops {
		raw = append(raw, refOp{data: op.Data, obj: op.Obj, kind: op.Kind})
	}
	buf := refAppendPayload(make([]byte, frameHeader), lsn, txID, raw)
	payload := buf[frameHeader:]
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// point is a representative struct key, registered via CodecFunc the way a
// user would for a composite key.
type point struct {
	X int64
	Y uint16
}

var pointCodec = CodecFunc(
	func(buf []byte, p point) []byte {
		buf = binary.AppendVarint(buf, p.X)
		return binary.LittleEndian.AppendUint16(buf, p.Y)
	},
	func(b []byte) (point, int, error) {
		x, n := binary.Varint(b)
		if n <= 0 || len(b) < n+2 {
			return point{}, 0, ErrCorrupt
		}
		return point{X: x, Y: binary.LittleEndian.Uint16(b[n:])}, n + 2, nil
	},
)

// FuzzOpCodecRoundTrip drives the full op encode→frame→decode path with
// fuzzer-derived transactions over every key codec (int64, string, struct)
// and every collection op kind (add=1, remove=2, addN=3), with and without
// a leading two-phase meta op, and demands the frame equal the reference
// encoder's byte for byte. It then corrupts one byte of the frame and
// demands the corruption is *detected*: a mutated frame either fails to
// decode or decodes to exactly the original record — never to a silently
// different op.
func FuzzOpCodecRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(7), []byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8}, -1)
	f.Add(uint64(9), uint64(1), []byte{1, 1, 5, 'h', 'e', 'l', 'l', 'o'}, 3)
	f.Add(uint64(2), uint64(2), []byte{2, 2, 0x80, 0x01, 0xff, 0xff}, 12)
	f.Add(uint64(3), uint64(3), []byte{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}, 0)

	f.Fuzz(func(t *testing.T, lsn, txID uint64, raw []byte, corrupt int) {
		if lsn == 0 {
			lsn = 1
		}
		var ops []stm.RedoOp
		r := raw
		for len(r) >= 2 && len(ops) < 64 {
			kind := r[0]%3 + 1 // the collection opcodes: add, remove, addN
			sel := r[1] % 3
			r = r[2:]
			var data []byte
			switch sel {
			case 0: // int64 key
				var v int64
				if len(r) >= 8 {
					v = int64(binary.LittleEndian.Uint64(r))
					r = r[8:]
				}
				data = Int64Codec.Append(nil, v)
				got, n, err := Int64Codec.Decode(data)
				if err != nil || n != len(data) || got != v {
					t.Fatalf("int64 codec roundtrip: %v -> (%v,%d,%v)", v, got, n, err)
				}
			case 1: // string key
				var s string
				if len(r) >= 1 {
					l := int(r[0]) % 16
					r = r[1:]
					if l > len(r) {
						l = len(r)
					}
					s = string(r[:l])
					r = r[l:]
				}
				data = StringCodec.Append(nil, s)
				got, n, err := StringCodec.Decode(data)
				if err != nil || n != len(data) || got != s {
					t.Fatalf("string codec roundtrip: %q -> (%q,%d,%v)", s, got, n, err)
				}
			case 2: // struct key
				var p point
				if len(r) >= 10 {
					p = point{X: int64(binary.LittleEndian.Uint64(r)), Y: binary.LittleEndian.Uint16(r[8:])}
					r = r[10:]
				}
				data = pointCodec.Append(nil, p)
				got, n, err := pointCodec.Decode(data)
				if err != nil || n != len(data) || got != p {
					t.Fatalf("struct codec roundtrip: %+v -> (%+v,%d,%v)", p, got, n, err)
				}
			}
			ops = append(ops, stm.RedoOp{Obj: uint32(len(ops)), Kind: kind, Data: data})
		}

		// Every fourth txID is a plain record; the rest lead with one of the
		// three meta kinds.
		m := meta{kind: uint8(txID % 4), gid: lsn ^ txID<<7}

		buf := make([]byte, frameHeader)
		buf = appendPayload(buf, lsn, txID, m, ops)
		frameFinish(buf, 0)
		if want := refFrame(lsn, txID, m, ops); !bytes.Equal(buf, want) {
			t.Fatalf("frame differs from the reference encoder's:\n got %x\nwant %x", buf, want)
		}

		rec, n, err := decodeFrame(buf)
		if err != nil {
			t.Fatalf("decode of valid frame failed: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
		}
		got := rec.Ops
		if gid, kind, ok := metaOf(rec); m.kind != 0 {
			if !ok || gid != m.gid || kind != m.kind {
				t.Fatalf("meta roundtrip: got (%d,%d,%v), want (%d,%d)", gid, kind, ok, m.gid, m.kind)
			}
			got = got[1:]
		}
		if rec.LSN != lsn || rec.TxID != txID || len(got) != len(ops) {
			t.Fatalf("frame roundtrip: got (%d,%d,%d ops), want (%d,%d,%d ops)",
				rec.LSN, rec.TxID, len(got), lsn, txID, len(ops))
		}
		for i, op := range got {
			if op.Obj != ops[i].Obj || op.Kind != ops[i].Kind || !bytes.Equal(op.Data, ops[i].Data) {
				t.Fatalf("op %d roundtrip mismatch: %+v vs %+v", i, op, ops[i])
			}
		}

		if corrupt >= 0 && len(buf) > 0 {
			pos := corrupt % len(buf)
			mut := append([]byte(nil), buf...)
			mut[pos] ^= 0x41
			rec2, _, err := decodeFrame(mut)
			if err == nil && !recordEqual(rec2, rec) {
				t.Fatalf("corrupt byte %d decoded to a DIFFERENT record: %+v", pos, rec2)
			}
		}
	})
}

func recordEqual(a, b Record) bool {
	if a.LSN != b.LSN || a.TxID != b.TxID || len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		if a.Ops[i].Obj != b.Ops[i].Obj || a.Ops[i].Kind != b.Ops[i].Kind ||
			!bytes.Equal(a.Ops[i].Data, b.Ops[i].Data) {
			return false
		}
	}
	return true
}
