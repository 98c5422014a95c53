package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tboost/internal/faultpoint"
	"tboost/internal/stm"
)

// Durable is what a boosted object must provide to live in the log: replay
// of one forward op (recovery and checkpoint load both use it) and a
// snapshot of the current base state as a synthetic op stream. Snapshot
// unifies checkpointing with replay — a checkpoint is just a saved op
// stream that recreates the base state, so Restore IS Replay and there is
// no second serialization format to keep correct.
//
// Replay must be strict: an op that does not apply cleanly (removing an
// absent key, adding a duplicate) indicates log/state divergence and must
// return an error rather than be papered over.
type Durable interface {
	Replay(kind uint8, data []byte) error
	Snapshot(emit func(kind uint8, data []byte) error) error
}

type regEntry struct {
	name string
	obj  Durable
}

// Binding connects one boosted object's journal to the log: it encodes keys
// with the object's codec and stamps ops with the object's registration ID.
// *Binding[K] satisfies boost.Journal[K] structurally, so the kernel never
// imports this package.
type Binding[K comparable] struct {
	log   *Log
	codec Codec[K]
	id    uint32
}

// Begin and End implement the kernel's journal hook: the key is encoded
// straight into the transaction's redo arena, the spec appends any payload,
// and the op is stamped with the object's ID. Nothing is allocated and
// nothing is copied until Commit encodes the stream into a batch.
func (b *Binding[K]) Begin(tx *stm.Tx, key K) []byte {
	return b.codec.Append(tx.RedoBegin(), key)
}

func (b *Binding[K]) End(tx *stm.Tx, kind uint8, buf []byte) {
	tx.RedoEnd(b.id, kind, buf)
}

// ID returns the object's registration index (the Op.Obj value it stamps).
func (b *Binding[K]) ID() uint32 { return b.id }

// Bind registers obj under name and returns the journal binding to hand to
// the object's boosting engine. All registrations must happen after Open and
// before Recover, in the same order on every run — object IDs are
// registration indices, and the checkpoint stores names to verify the order
// didn't drift.
func Bind[K comparable](l *Log, name string, codec Codec[K], obj Durable) (*Binding[K], error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.recovered {
		return nil, fmt.Errorf("wal: Bind(%q) after Recover", name)
	}
	if _, dup := l.objIndex[name]; dup {
		return nil, fmt.Errorf("wal: duplicate registration %q", name)
	}
	id := uint32(len(l.objs))
	l.objs = append(l.objs, regEntry{name: name, obj: obj})
	l.objIndex[name] = id
	return &Binding[K]{log: l, codec: codec, id: id}, nil
}

// RecoverResult summarizes what Recover found and did.
type RecoverResult struct {
	CheckpointLSN uint64 // checkpoint's covered-LSN bound (0 = no checkpoint)
	Replayed      int    // records replayed from segments
	Stale         int    // records skipped because the checkpoint covers them
	TornBytes     int64  // bytes truncated from the corrupt tail, if any
	NextLSN       uint64 // first LSN the reopened log will assign
	InDoubt       int    // prepared-but-undecided transactions (see Log.InDoubt)
}

// Recover rebuilds the registered objects from the directory — checkpoint
// first, then the surviving record suffix — truncates any torn tail, opens a
// fresh segment, and starts the log writer. After Recover the log serves
// Commit. The registered objects must be in their freshly-constructed
// (empty) state.
//
// Torn-tail policy: the first frame that fails CRC or structural validation
// ends the log. The containing segment is truncated at the last good frame
// and every later segment is deleted — a torn frame means the crash happened
// while writing it, so nothing after it was ever acknowledged.
func (l *Log) Recover() (RecoverResult, error) {
	l.mu.Lock()
	if l.recovered {
		l.mu.Unlock()
		return RecoverResult{}, fmt.Errorf("wal: Recover called twice")
	}
	if l.closed {
		l.mu.Unlock()
		return RecoverResult{}, ErrClosed
	}
	l.mu.Unlock()

	var res RecoverResult

	// Abandoned checkpoint temp files are noise from a mid-checkpoint
	// crash; the rename never happened, so they carry no authority.
	os.Remove(filepath.Join(l.opts.Dir, ckTmpName))

	ck, err := loadCheckpoint(l.opts.Dir)
	if err != nil {
		return res, err
	}
	if ck != nil {
		res.CheckpointLSN = ck.NextLSN
		l.ckptLSN = ck.NextLSN
		for _, sect := range ck.Sections {
			id, ok := l.objIndex[sect.Name]
			if !ok {
				return res, fmt.Errorf("wal: checkpoint has unregistered object %q", sect.Name)
			}
			obj := l.objs[id].obj
			for _, op := range sect.Ops {
				if err := obj.Replay(op.Kind, op.Data); err != nil {
					return res, fmt.Errorf("wal: checkpoint replay %q: %w", sect.Name, err)
				}
			}
		}
	}

	segs, err := scanSegments(l.opts.Dir)
	if err != nil {
		return res, err
	}
	var lastLSN uint64
	torn := false
	for i, seg := range segs {
		if torn {
			// Everything after a torn frame was never acknowledged.
			if err := os.Remove(seg.path); err != nil {
				return res, fmt.Errorf("wal: drop post-tear segment: %w", err)
			}
			continue
		}
		recs, goodBytes, segTorn, err := readSegment(seg.path)
		if err != nil {
			return res, err
		}
		if segTorn {
			fi, _ := os.Stat(seg.path)
			if fi != nil {
				res.TornBytes += fi.Size() - goodBytes
			}
			if err := os.Truncate(seg.path, goodBytes); err != nil {
				return res, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			torn = true
		}
		for _, rec := range recs {
			if ck != nil && rec.LSN < ck.NextLSN {
				res.Stale++ // stale segment survived an interrupted prune
				continue
			}
			if rec.LSN <= lastLSN {
				return res, fmt.Errorf("%w: LSN %d out of order in %s", ErrCorrupt, rec.LSN, seg.path)
			}
			lastLSN = rec.LSN
			if gid, kind, ok := metaOf(rec); ok {
				// Two-phase-commit record. A prepare is stashed, not replayed:
				// its effects are committed only if a commit marker follows. A
				// commit marker replays the stash at the *marker's* stream
				// position — sound because the original held its abstract
				// locks from prepare to decision, so every record between the
				// two commutes with it. An abort marker (or a marker-less
				// prepare surviving to the end: presumed abort) drops it.
				switch kind {
				case metaPrepare:
					ops := make([]Op, len(rec.Ops)-1)
					copy(ops, rec.Ops[1:])
					l.twopc.inDoubt[gid] = &inDoubtRec{gid: gid, txID: rec.TxID, lsn: rec.LSN, ops: ops}
				case metaCommit:
					in, have := l.twopc.inDoubt[gid]
					if !have {
						break // prepare checkpointed away with the marker's effects; nothing to do
					}
					delete(l.twopc.inDoubt, gid)
					for _, op := range in.ops {
						if int(op.Obj) >= len(l.objs) {
							return res, fmt.Errorf("%w: prepared gid %d references unregistered object %d", ErrCorrupt, gid, op.Obj)
						}
						if err := l.objs[op.Obj].obj.Replay(op.Kind, op.Data); err != nil {
							return res, fmt.Errorf("wal: replay prepared gid %d obj %q: %w", gid, l.objs[op.Obj].name, err)
						}
					}
					res.Replayed++
				case metaAbort:
					delete(l.twopc.inDoubt, gid)
				default:
					return res, fmt.Errorf("%w: record %d has unknown meta kind %d", ErrCorrupt, rec.LSN, kind)
				}
				continue
			}
			for _, op := range rec.Ops {
				if int(op.Obj) >= len(l.objs) {
					return res, fmt.Errorf("%w: record %d references unregistered object %d", ErrCorrupt, rec.LSN, op.Obj)
				}
				if err := l.objs[op.Obj].obj.Replay(op.Kind, op.Data); err != nil {
					return res, fmt.Errorf("wal: replay LSN %d obj %q: %w", rec.LSN, l.objs[op.Obj].name, err)
				}
			}
			res.Replayed++
		}
		_ = i
	}

	res.InDoubt = len(l.twopc.inDoubt)

	next := lastLSN + 1
	if ck != nil && ck.NextLSN > next {
		next = ck.NextLSN
	}
	if next < 1 {
		next = 1
	}
	res.NextLSN = next

	l.mu.Lock()
	l.nextLSN = next
	l.durable.Store(next - 1) // everything recovered is, by definition, on disk
	l.recovered = true
	l.mu.Unlock()
	if err := l.openSegment(next); err != nil {
		return res, err
	}
	l.wg.Add(1)
	go l.writerLoop()
	return res, nil
}

// Checkpoint snapshots every registered object's base state as an op
// stream, writes it to a temp file, atomically renames it over the previous
// checkpoint, and prunes segments the new checkpoint fully covers.
//
// The caller must hold the system quiescent (stm.System.ActiveTx() == 0 and
// no new Atomic calls in flight): under eager boosting the base state
// contains the effects of *uncommitted* transactions, so a snapshot taken
// mid-transaction would capture effects that a crash-then-recovery is
// required to roll away — but a logical checkpoint cannot roll anything
// away. Quiescence makes the base state exactly the committed state.
//
// Returns the checkpoint's covered-LSN bound: every record with a smaller
// LSN is reflected in the snapshot and will be skipped at recovery.
func (l *Log) Checkpoint() (uint64, error) {
	if err := l.Sync(); err != nil {
		return 0, err
	}
	l.mu.Lock()
	ckNext := l.nextLSN
	objs := l.objs
	l.mu.Unlock()

	path := filepath.Join(l.opts.Dir, ckTmpName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: checkpoint tmp: %w", err)
	}
	defer os.Remove(path) // no-op after the rename succeeds

	buf := make([]byte, 0, 4096)
	buf = append(buf, ckMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, ckNext)
	buf = binary.AppendUvarint(buf, uint64(len(objs)))
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		_, werr := f.Write(buf)
		buf = buf[:0]
		return werr
	}
	crc := crc32.New(castagnoli)
	write := func() error {
		crc.Write(buf)
		return flush()
	}
	if err := write(); err != nil {
		f.Close()
		return 0, err
	}
	for i, e := range objs {
		if i > 0 && faultpoint.Hit(faultpoint.WalMidCheckpoint) == faultpoint.Crash {
			// Kill mid-checkpoint: the tmp file is abandoned (defer removes
			// it here; recovery also deletes strays), the previous
			// checkpoint stays authoritative, and the log freezes.
			f.Close()
			l.crash()
			return 0, ErrCrashed
		}
		buf = binary.AppendUvarint(buf, uint64(len(e.name)))
		buf = append(buf, e.name...)
		nops := 0
		countAt := len(buf)
		buf = append(buf, 0, 0, 0, 0) // fixed u32 op count, patched below
		err := e.obj.Snapshot(func(kind uint8, data []byte) error {
			buf = append(buf, kind)
			buf = binary.AppendUvarint(buf, uint64(len(data)))
			buf = append(buf, data...)
			nops++
			return nil
		})
		if err != nil {
			f.Close()
			return 0, fmt.Errorf("wal: snapshot %q: %w", e.name, err)
		}
		binary.LittleEndian.PutUint32(buf[countAt:], uint32(nops))
		if err := write(); err != nil {
			f.Close()
			return 0, err
		}
	}
	var footer [4]byte
	binary.LittleEndian.PutUint32(footer[:], crc.Sum32())
	if _, err := f.Write(footer[:]); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(path, filepath.Join(l.opts.Dir, ckName)); err != nil {
		return 0, fmt.Errorf("wal: publish checkpoint: %w", err)
	}
	syncDir(l.opts.Dir)

	if err := l.pruneSegments(ckNext); err != nil {
		return 0, err
	}
	l.mu.Lock()
	l.ckptLSN = ckNext
	l.mu.Unlock()
	return ckNext, nil
}

// pruneSegments deletes segments every record of which the checkpoint
// covers: a segment is deletable when a successor segment starts at or below
// ckNext (so its own records all have smaller LSNs) and it is not the
// segment the writer has open.
func (l *Log) pruneSegments(ckNext uint64) error {
	segs, err := scanSegments(l.opts.Dir)
	if err != nil {
		return err
	}
	l.mu.Lock()
	curStart := l.curSegStart
	l.mu.Unlock()
	first := true
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].startLSN > ckNext || segs[i].startLSN == curStart {
			continue
		}
		if !first && faultpoint.Hit(faultpoint.WalMidTruncate) == faultpoint.Crash {
			// Kill mid-prune: stale segments survive; recovery must skip
			// their records by LSN rather than double-replay them.
			l.crash()
			return ErrCrashed
		}
		first = false
		if err := os.Remove(segs[i].path); err != nil {
			return fmt.Errorf("wal: prune segment: %w", err)
		}
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed checkpoint survives a real
// power loss. Best-effort: some filesystems reject directory fsync, and the
// simulation layer never depends on it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// ---- on-disk scanning, shared by Recover and DumpDir ----

const (
	ckMagic   = "TBWALCK1"
	ckName    = "checkpoint.ck"
	ckTmpName = "checkpoint.tmp"
)

type segInfo struct {
	path     string
	startLSN uint64
}

func scanSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: scan: %w", err)
	}
	var segs []segInfo
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		var start uint64
		if _, err := fmt.Sscanf(name, "wal-%016x.seg", &start); err != nil {
			continue
		}
		segs = append(segs, segInfo{path: filepath.Join(dir, name), startLSN: start})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].startLSN < segs[j].startLSN })
	return segs, nil
}

// readSegment decodes a segment's frames. It returns the records decoded
// before the first invalid frame, the byte offset of the end of the last
// good frame, and whether the tail was torn (any trailing bytes that did not
// decode). A segment with a bad header is treated as fully torn after the
// zero-record point.
func readSegment(path string) (recs []Record, goodBytes int64, torn bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: read segment: %w", err)
	}
	if len(b) < segHeader || string(b[:8]) != segMagic {
		return nil, 0, true, nil
	}
	off := int64(segHeader)
	rest := b[segHeader:]
	for len(rest) > 0 {
		rec, n, derr := decodeFrame(rest)
		if derr != nil {
			return recs, off, true, nil
		}
		recs = append(recs, rec)
		rest = rest[n:]
		off += int64(n)
	}
	return recs, off, false, nil
}

// SectionOp is one op of a checkpoint section (the object is the section).
type SectionOp struct {
	Kind uint8
	Data []byte
}

// CheckpointDump is a decoded checkpoint file.
type CheckpointDump struct {
	NextLSN  uint64
	Sections []CheckpointSection
}

// CheckpointSection is one object's snapshot op stream.
type CheckpointSection struct {
	Name string
	Ops  []SectionOp
}

func loadCheckpoint(dir string) (*CheckpointDump, error) {
	b, err := os.ReadFile(filepath.Join(dir, ckName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: read checkpoint: %w", err)
	}
	if len(b) < len(ckMagic)+8+1+4 || string(b[:8]) != ckMagic {
		return nil, fmt.Errorf("%w: checkpoint header", ErrCorrupt)
	}
	body, footer := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(footer) {
		return nil, fmt.Errorf("%w: checkpoint crc", ErrCorrupt)
	}
	p := body[8:]
	ck := &CheckpointDump{NextLSN: binary.LittleEndian.Uint64(p)}
	p = p[8:]
	nsect, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, fmt.Errorf("%w: checkpoint section count", ErrCorrupt)
	}
	p = p[n:]
	for s := uint64(0); s < nsect; s++ {
		nlen, n := binary.Uvarint(p)
		if n <= 0 || nlen > uint64(len(p)-n) {
			return nil, fmt.Errorf("%w: checkpoint section name", ErrCorrupt)
		}
		p = p[n:]
		sect := CheckpointSection{Name: string(p[:nlen])}
		p = p[nlen:]
		if len(p) < 4 {
			return nil, fmt.Errorf("%w: checkpoint op count", ErrCorrupt)
		}
		nops := binary.LittleEndian.Uint32(p)
		p = p[4:]
		for o := uint32(0); o < nops; o++ {
			if len(p) < 1 {
				return nil, fmt.Errorf("%w: checkpoint op kind", ErrCorrupt)
			}
			kind := p[0]
			p = p[1:]
			dlen, n := binary.Uvarint(p)
			if n <= 0 || dlen > uint64(len(p)-n) {
				return nil, fmt.Errorf("%w: checkpoint op data", ErrCorrupt)
			}
			p = p[n:]
			data := make([]byte, dlen)
			copy(data, p[:dlen])
			p = p[dlen:]
			sect.Ops = append(sect.Ops, SectionOp{Kind: kind, Data: data})
		}
		ck.Sections = append(ck.Sections, sect)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing checkpoint bytes", ErrCorrupt, len(p))
	}
	return ck, nil
}

// Dump is a read-only view of a log directory: what recovery WOULD
// reconstruct. The chaos harness uses it to audit a post-crash directory
// without mutating it.
type Dump struct {
	Checkpoint *CheckpointDump // nil when absent or invalid
	Records    []Record        // plain records recovery would replay, in order
	Prepares   []PreparedDump  // two-phase transactions, in prepare order
	Stale      int             // records a checkpoint covers (skipped)
	Torn       bool            // a torn tail was detected (and would be cut)
}

// PreparedDump is one two-phase transaction's forensic view: its prepare
// record joined with whatever decision marker the log holds for it.
type PreparedDump struct {
	GID      uint64
	TxID     uint64
	LSN      uint64 // the prepare record's LSN
	Ops      []Op   // the branch's redo ops (meta op stripped)
	Decision string // "commit", "abort", or "in-doubt"
}

// DumpDir decodes dir without mutating it, applying the same torn-tail and
// stale-record rules as Recover.
func DumpDir(dir string) (Dump, error) {
	var d Dump
	ck, err := loadCheckpoint(dir)
	if err == nil {
		d.Checkpoint = ck
	} // a corrupt checkpoint dumps as absent, mirroring recovery's options
	segs, err := scanSegments(dir)
	if err != nil {
		return d, err
	}
	for _, seg := range segs {
		if d.Torn {
			break
		}
		recs, _, torn, err := readSegment(seg.path)
		if err != nil {
			return d, err
		}
		d.Torn = d.Torn || torn
		for _, rec := range recs {
			if ck != nil && rec.LSN < ck.NextLSN {
				d.Stale++
				continue
			}
			if gid, kind, ok := metaOf(rec); ok {
				switch kind {
				case metaPrepare:
					d.Prepares = append(d.Prepares, PreparedDump{
						GID: gid, TxID: rec.TxID, LSN: rec.LSN,
						Ops: rec.Ops[1:], Decision: "in-doubt",
					})
				case metaCommit, metaAbort:
					decision := "abort"
					if kind == metaCommit {
						decision = "commit"
					}
					for i := range d.Prepares {
						if d.Prepares[i].GID == gid && d.Prepares[i].Decision == "in-doubt" {
							d.Prepares[i].Decision = decision
							break
						}
					}
				}
				continue
			}
			d.Records = append(d.Records, rec)
		}
	}
	return d, nil
}

// FormatDump renders a Dump as a stable line-oriented forensic listing: the
// checkpoint's shape, then every surviving record and two-phase transaction
// with its decision. The format is pinned by golden-output tests — treat any
// change to it as a deliberate forensic-surface change, not cleanup.
func FormatDump(d Dump) string {
	var b strings.Builder
	if d.Checkpoint == nil {
		b.WriteString("checkpoint: none\n")
	} else {
		fmt.Fprintf(&b, "checkpoint: next-lsn=%d\n", d.Checkpoint.NextLSN)
		for _, s := range d.Checkpoint.Sections {
			fmt.Fprintf(&b, "  section %s ops=%d\n", s.Name, len(s.Ops))
		}
	}
	fmt.Fprintf(&b, "stale=%d torn=%v\n", d.Stale, d.Torn)
	fmt.Fprintf(&b, "records: %d\n", len(d.Records))
	for _, r := range d.Records {
		fmt.Fprintf(&b, "  lsn=%d tx=%d", r.LSN, r.TxID)
		for _, op := range r.Ops {
			fmt.Fprintf(&b, " [obj=%d kind=%d data=%x]", op.Obj, op.Kind, op.Data)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "prepared: %d\n", len(d.Prepares))
	for _, p := range d.Prepares {
		fmt.Fprintf(&b, "  gid=%d tx=%d lsn=%d decision=%s", p.GID, p.TxID, p.LSN, p.Decision)
		for _, op := range p.Ops {
			fmt.Fprintf(&b, " [obj=%d kind=%d data=%x]", op.Obj, op.Kind, op.Data)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
