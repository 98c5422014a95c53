package wal

import (
	"bytes"
	"errors"
	"os"
	"slices"
	"testing"

	"tboost/internal/faultpoint"
	"tboost/internal/stm"
)

// Pins for the append path: frames identical to the reference encoder's,
// one write(2) per batch, and batch objects recycled without a waiter ever
// reading another batch's outcome.

// nopDurable is a Durable that ignores everything: these tests look at the
// log's bytes and calls, not at replayed state.
type nopDurable struct{}

func (nopDurable) Replay(uint8, []byte) error               { return nil }
func (nopDurable) Snapshot(func(uint8, []byte) error) error { return nil }

func int64Op(b *Binding[int64], kind uint8, k int64) []stm.RedoOp {
	return []stm.RedoOp{{Obj: b.ID(), Kind: kind, Data: Int64Codec.Append(nil, k)}}
}

func openTestLog(t *testing.T, mode Mode) (*Log, *Binding[int64]) {
	t.Helper()
	l, err := Open(Options{Dir: t.TempDir(), Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bind(l, "obj", Int64Codec, nopDurable{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, b
}

// gatedFile is the segment-file double: it counts Write calls and their
// sizes, and can hold the writer inside one Write so a test can fill the
// open batch behind it with a known number of records.
type gatedFile struct {
	segFile
	writes  []int         // len(p) of every Write, in order
	entered chan struct{} // receives once per gated Write, on entry
	gate    chan struct{} // a gated Write proceeds when this receives
	gated   int           // how many more Writes to gate
}

func (f *gatedFile) Write(p []byte) (int, error) {
	if f.gated > 0 {
		f.gated--
		f.entered <- struct{}{}
		<-f.gate
	}
	f.writes = append(f.writes, len(p))
	return f.segFile.Write(p)
}

// gate wraps the log's open segment. Called while the writer is idle; the
// next kick publishes the swap to it.
func gate(l *Log, gated int) *gatedFile {
	f := &gatedFile{segFile: l.f, entered: make(chan struct{}), gate: make(chan struct{}), gated: gated}
	l.f = f
	return f
}

// fillBehind commits one record, waits until the writer is held inside its
// Write, then appends n more: they form exactly one batch behind the held
// one. It returns every record's wait, the held record's first.
func fillBehind(t *testing.T, l *Log, b *Binding[int64], f *gatedFile, n int) []func() error {
	t.Helper()
	waits := []func() error{l.Commit(1, int64Op(b, 1, 0))}
	<-f.entered
	for k := 1; k <= n; k++ {
		waits = append(waits, l.Commit(uint64(1+k), int64Op(b, 1, int64(k))))
	}
	return waits
}

func TestBatchReachesFileInOneWrite(t *testing.T) {
	const n = 5
	l, b := openTestLog(t, Group)
	f := gate(l, 1)
	waits := fillBehind(t, l, b, f, n)
	f.gate <- struct{}{}
	for i, w := range waits {
		if err := w(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if st := l.Stats(); st.Batches != 2 || st.Records != 1+n {
		t.Fatalf("stats %+v, want 2 batches holding %d records", st, 1+n)
	}
	if len(f.writes) != 2 || f.writes[1] != n*f.writes[0] {
		t.Fatalf("writes %v, want one per batch: a frame, then %d frames at once", f.writes, n)
	}
}

func TestArmedFailpointWritesFrameByFrame(t *testing.T) {
	const n = 5
	t.Run("counting", func(t *testing.T) {
		// Any armed site turns the per-frame loop on; a trigger that never
		// crashes leaves a whole batch, written in n pieces.
		l, b := openTestLog(t, Group)
		f := gate(l, 1)
		waits := fillBehind(t, l, b, f, n)
		faultpoint.Enable(faultpoint.WalMidBatch, faultpoint.Trigger{})
		defer faultpoint.Reset()
		f.gate <- struct{}{}
		for i, w := range waits {
			if err := w(); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
		}
		if len(f.writes) != 1+n {
			t.Fatalf("writes %v, want the held frame then %d single frames", f.writes, n)
		}
		if c := faultpoint.Counts(faultpoint.WalMidBatch); c.Hits != n-1 {
			t.Fatalf("mid-batch hits = %d, want %d (between frames only)", c.Hits, n-1)
		}
	})
	t.Run("torn", func(t *testing.T) {
		// Crash at the last gap: n-1 whole frames, then half of the last.
		l, b := openTestLog(t, Group)
		f := gate(l, 1)
		waits := fillBehind(t, l, b, f, n)
		faultpoint.Enable(faultpoint.WalMidBatch, faultpoint.Trigger{Effect: faultpoint.Crash, EveryN: n - 1})
		defer faultpoint.Reset()
		f.gate <- struct{}{}
		if err := waits[0](); err != nil {
			t.Fatalf("held record: %v", err)
		}
		for i, w := range waits[1:] {
			if err := w(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("record %d of the torn batch: %v, want ErrCrashed", i+1, err)
			}
		}
		frame := f.writes[0]
		want := []int{frame, frame, frame, frame, frame, frame / 2}
		if !slices.Equal(f.writes, want) {
			t.Fatalf("writes %v, want %v", f.writes, want)
		}
	})
}

// TestFramesMatchReferenceEncoder drives every record shape the log writes —
// commit, prepare with ops, prepare without, commit marker, abort marker —
// and compares the segment byte for byte with the reference encoder's frames.
func TestFramesMatchReferenceEncoder(t *testing.T) {
	l, b := openTestLog(t, Group)
	var want []byte
	lsn := uint64(0)
	expect := func(txID uint64, m meta, ops []stm.RedoOp) {
		lsn++
		want = append(want, refFrame(lsn, txID, m, ops)...)
	}
	multi := append(int64Op(b, 1, -7), int64Op(b, 2, 1<<40)...)

	if err := l.Commit(11, multi)(); err != nil {
		t.Fatal(err)
	}
	expect(11, meta{}, multi)
	if err := l.Prepare(12, 900, multi); err != nil {
		t.Fatal(err)
	}
	expect(12, meta{metaPrepare, 900}, multi)
	if err := l.Prepare(13, 1<<50, nil); err != nil {
		t.Fatal(err)
	}
	expect(13, meta{metaPrepare, 1 << 50}, nil)
	if w, err := l.Decide(12, 900, true); err != nil || w() != nil {
		t.Fatalf("Decide commit: %v", err)
	}
	expect(12, meta{metaCommit, 900}, nil)
	if _, err := l.Decide(13, 1<<50, false); err != nil {
		t.Fatal(err)
	}
	expect(13, meta{metaAbort, 1 << 50}, nil)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	segs, err := scanSegments(l.opts.Dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	got, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[segHeader:], want) {
		t.Fatalf("segment differs from the reference encoder's frames:\n got %x\nwant %x", got[segHeader:], want)
	}
}

// TestRecycledBatchKeepsWaitersApart: the log's two batch objects ping-pong,
// so the batch that carried record n carries record n+2. A committer that
// calls its wait late must still hear about its own record — durable, even
// after the log has frozen under a later batch — and the committers of the
// batch that failed, and of the open batch behind it, must hear the freeze.
func TestRecycledBatchKeepsWaitersApart(t *testing.T) {
	l, b := openTestLog(t, Group)
	open := func() *batch {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.cur
	}

	first := open()
	early := l.Commit(1, int64Op(b, 1, 1)) // batch n; its wait is called last
	if err := l.Sync(); err != nil {       // batch n is flushed, alone
		t.Fatal(err)
	}
	if err := l.Commit(2, int64Op(b, 1, 2))(); err != nil { // batch n+1
		t.Fatal(err)
	}
	if open() != first {
		t.Fatal("the open batch is not the recycled first one: the batches do not ping-pong")
	}

	// Batch n+2 reuses the first object. Hold the writer inside its Write,
	// queue a record in the open batch behind it, and kill the log before
	// the fsync.
	f := gate(l, 1)
	waits := fillBehind(t, l, b, f, 1)
	faultpoint.Enable(faultpoint.WalPreFsync, faultpoint.Trigger{Effect: faultpoint.Crash})
	defer faultpoint.Reset()
	f.gate <- struct{}{}
	for i, w := range waits {
		if err := w(); !errors.Is(err, ErrCrashed) {
			t.Fatalf("record %d after the freeze: %v, want ErrCrashed", i, err)
		}
	}
	if err := early(); err != nil {
		t.Fatalf("record of the recycled batch: %v, want nil (it was durable before the freeze)", err)
	}
	if err := l.Commit(9, int64Op(b, 1, 9))(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("commit on a frozen log: %v, want ErrCrashed", err)
	}
	if st := l.Stats(); st.DurableLSN != 2 || st.Records != 2 {
		t.Fatalf("stats %+v, want 2 durable records and nothing after the freeze", st)
	}
}

// TestBatchBufferCapped: a burst may grow a batch's buffer, but the batch
// does not carry more than batchBufKeep into its next flush.
func TestBatchBufferCapped(t *testing.T) {
	l, b := openTestLog(t, Group)
	big := []stm.RedoOp{{Obj: b.ID(), Kind: 1, Data: make([]byte, 2*batchBufKeep)}}
	for i := uint64(1); i <= 4; i++ { // both batch objects carry one
		if err := l.Commit(i, big)(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(5, int64Op(b, 1, 5))(); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if c := cap(l.cur.buf); c > batchBufKeep {
		t.Fatalf("open batch kept %d bytes of capacity, cap is %d", c, batchBufKeep)
	}
}

// TestGroupBarrierIsRecycledNotAllocated: the wait Commit hands out in Group
// mode is a pooled barrier's own method value, returned to the pool by the
// one call the runtime makes — appending and awaiting a record allocates
// nothing (it was one closure per commit). The refusal of a frozen log
// travels through the same barrier.
func TestGroupBarrierIsRecycledNotAllocated(t *testing.T) {
	l, b := openTestLog(t, Group)
	ops := int64Op(b, 1, 7)
	commit := func() {
		if err := l.Commit(1, ops)(); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 8; i++ { // warm both batches and the barrier pool
		commit()
	}
	if avg := testing.AllocsPerRun(100, commit); avg != 0 {
		t.Fatalf("a Group-mode commit and its barrier allocate %.2f objects, want 0", avg)
	}
	l.crash()
	if err := l.Commit(2, ops)(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("commit on a frozen log: %v, want ErrCrashed", err)
	}
	if w, err := l.Decide(3, 9, true); err != nil || w == nil {
		t.Fatalf("Decide on a frozen log: wait %v, err %v", w != nil, err)
	} else if err := w(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("decision barrier on a frozen log: %v, want ErrCrashed", err)
	}
}
