package core

import (
	"cmp"
	"fmt"

	"tboost/internal/boost"
	"tboost/internal/hashset"
	"tboost/internal/stm"
	"tboost/internal/wal"
)

// Redo op kinds shared by the boosted collections. Each durable object's
// opcode namespace is private to it, but the collections here agree on one
// tiny vocabulary so the dump/verification tooling can print records without
// per-object tables.
const (
	// RedoAdd inserts: data = key, then (maps only) the encoded value.
	RedoAdd uint8 = 1
	// RedoRemove deletes one key (sets, maps) or one occurrence (multisets):
	// data = key.
	RedoRemove uint8 = 2
	// RedoAddN inserts n occurrences of a key — multiset checkpoints only:
	// data = key, then uvarint n.
	RedoAddN uint8 = 3
)

// keyLister is the snapshot face a base container must expose to be
// checkpointable: enumerate the keys present. All the repo's set bases
// (hash set, skip list, rb-tree adapter) satisfy it.
type keyLister[K comparable] interface{ Keys() []K }

// BindSet makes s durable: its effective Add/Remove calls flow to l's redo
// stream under name, and Recover/Checkpoint replay and snapshot the base
// through the same codec. Call between wal.Open and (*wal.Log).Recover, on a
// freshly-constructed set, in the same registration order every run.
func BindSet[K comparable](l *wal.Log, name string, codec wal.Codec[K], s *Set[K]) error {
	if _, ok := s.base.(keyLister[K]); !ok {
		return fmt.Errorf("core: BindSet(%q): base %T cannot enumerate keys for checkpoints", name, s.base)
	}
	d := &setDurable[K]{base: s.base, codec: codec, obj: s.obj}
	b, err := wal.Bind(l, name, codec, d)
	if err != nil {
		return err
	}
	s.obj.BindJournal(b)
	return nil
}

// BindOrderedSet is BindSet for the range-queryable set (point mutations are
// the embedded Set's, so the same binding covers them; range queries are
// read-only and contribute nothing to the log).
func BindOrderedSet[K cmp.Ordered](l *wal.Log, name string, codec wal.Codec[K], o *OrderedSet[K]) error {
	return BindSet(l, name, codec, &o.Set)
}

type setDurable[K comparable] struct {
	base  BaseSet[K]
	codec wal.Codec[K]
	obj   *boost.Object[K]
}

func (d *setDurable[K]) Replay(kind uint8, data []byte) error {
	key, n, err := d.codec.Decode(data)
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("core: set replay: %d trailing bytes", len(data)-n)
	}
	// Strict replay: the log records only *effective* calls, so an
	// ineffective replay means the log and the state have diverged.
	switch kind {
	case RedoAdd:
		if !d.base.Add(key) {
			return fmt.Errorf("core: set replay: duplicate add of %v", key)
		}
	case RedoRemove:
		if !d.base.Remove(key) {
			return fmt.Errorf("core: set replay: remove of absent %v", key)
		}
	default:
		return fmt.Errorf("core: set replay: unknown op kind %d", kind)
	}
	return nil
}

// Relock implements wal.Relocker: decode the op's key and re-take the same
// keyed abstract lock the original call held, for in-doubt recovery.
func (d *setDurable[K]) Relock(tx *stm.Tx, kind uint8, data []byte) error {
	key, _, err := d.codec.Decode(data)
	if err != nil {
		return err
	}
	d.obj.Relock(tx, key)
	return nil
}

func (d *setDurable[K]) Snapshot(emit func(kind uint8, data []byte) error) error {
	for _, key := range d.base.(keyLister[K]).Keys() {
		if err := emit(RedoAdd, d.codec.Append(nil, key)); err != nil {
			return err
		}
	}
	return nil
}

// BindMap makes m durable under name. Values ride in the op payload after
// the key, encoded with their own codec.
func BindMap[K comparable, V any](l *wal.Log, name string, kc wal.Codec[K], vc wal.Codec[V], m *Map[K, V]) error {
	if _, ok := m.base.(keyLister[K]); !ok {
		return fmt.Errorf("core: BindMap(%q): base %T cannot enumerate keys for checkpoints", name, m.base)
	}
	d := &mapDurable[K, V]{base: m.base, kc: kc, vc: vc, obj: m.obj}
	b, err := wal.Bind(l, name, kc, d)
	if err != nil {
		return err
	}
	m.obj.BindJournal(b)
	m.encVal = vc.Append
	return nil
}

type mapDurable[K comparable, V any] struct {
	base BaseMap[K, V]
	kc   wal.Codec[K]
	vc   wal.Codec[V]
	obj  *boost.Object[K]
}

func (d *mapDurable[K, V]) Replay(kind uint8, data []byte) error {
	key, n, err := d.kc.Decode(data)
	if err != nil {
		return err
	}
	rest := data[n:]
	switch kind {
	case RedoAdd: // Put: a fresh insert or an overwrite, both legal
		val, n, err := d.vc.Decode(rest)
		if err != nil {
			return err
		}
		if n != len(rest) {
			return fmt.Errorf("core: map replay: %d trailing bytes", len(rest)-n)
		}
		d.base.Put(key, val)
	case RedoRemove:
		if len(rest) != 0 {
			return fmt.Errorf("core: map replay: %d trailing bytes", len(rest))
		}
		if _, existed := d.base.Delete(key); !existed {
			return fmt.Errorf("core: map replay: delete of absent %v", key)
		}
	default:
		return fmt.Errorf("core: map replay: unknown op kind %d", kind)
	}
	return nil
}

// Relock implements wal.Relocker (see setDurable.Relock).
func (d *mapDurable[K, V]) Relock(tx *stm.Tx, kind uint8, data []byte) error {
	key, _, err := d.kc.Decode(data)
	if err != nil {
		return err
	}
	d.obj.Relock(tx, key)
	return nil
}

func (d *mapDurable[K, V]) Snapshot(emit func(kind uint8, data []byte) error) error {
	for _, key := range d.base.(keyLister[K]).Keys() {
		val, ok := d.base.Get(key)
		if !ok {
			continue // racing mutator would violate the quiescence contract; stay safe
		}
		data := d.kc.Append(nil, key)
		data = d.vc.Append(data, val)
		if err := emit(RedoAdd, data); err != nil {
			return err
		}
	}
	return nil
}

// BindMultiset makes m durable under name. Checkpoints compress each key's
// occurrences into one RedoAddN op.
func BindMultiset[K comparable](l *wal.Log, name string, codec wal.Codec[K], m *Multiset[K]) error {
	d := &multisetDurable[K]{base: m.base, codec: codec, obj: m.obj}
	b, err := wal.Bind(l, name, codec, d)
	if err != nil {
		return err
	}
	m.obj.BindJournal(b)
	return nil
}

type multisetDurable[K comparable] struct {
	base  *hashset.MultiSet[K]
	codec wal.Codec[K]
	obj   *boost.Object[K]
}

func (d *multisetDurable[K]) Replay(kind uint8, data []byte) error {
	key, n, err := d.codec.Decode(data)
	if err != nil {
		return err
	}
	rest := data[n:]
	switch kind {
	case RedoAdd:
		if len(rest) != 0 {
			return fmt.Errorf("core: multiset replay: %d trailing bytes", len(rest))
		}
		d.base.Add(key)
	case RedoRemove:
		if len(rest) != 0 {
			return fmt.Errorf("core: multiset replay: %d trailing bytes", len(rest))
		}
		if !d.base.RemoveOne(key) {
			return fmt.Errorf("core: multiset replay: remove of absent %v", key)
		}
	case RedoAddN:
		count, n2 := uvarint(rest)
		if n2 <= 0 || n2 != len(rest) || count == 0 {
			return fmt.Errorf("core: multiset replay: bad occurrence count")
		}
		for i := uint64(0); i < count; i++ {
			d.base.Add(key)
		}
	default:
		return fmt.Errorf("core: multiset replay: unknown op kind %d", kind)
	}
	return nil
}

// Relock implements wal.Relocker (see setDurable.Relock).
func (d *multisetDurable[K]) Relock(tx *stm.Tx, kind uint8, data []byte) error {
	key, _, err := d.codec.Decode(data)
	if err != nil {
		return err
	}
	d.obj.Relock(tx, key)
	return nil
}

func (d *multisetDurable[K]) Snapshot(emit func(kind uint8, data []byte) error) error {
	var err error
	d.base.Range(func(key K, count int) bool {
		data := d.codec.Append(nil, key)
		data = appendUvarint(data, uint64(count))
		err = emit(RedoAddN, data)
		return err == nil
	})
	return err
}

// Local uvarint helpers (mirror encoding/binary, kept here to avoid pulling
// the import for two calls).
func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	var s uint
	for i, c := range b {
		if c < 0x80 {
			return v | uint64(c)<<s, i + 1
		}
		v |= uint64(c&0x7f) << s
		s += 7
		if s >= 64 {
			return 0, -1
		}
	}
	return 0, 0
}
