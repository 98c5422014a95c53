package wal_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"tboost/internal/core"
	"tboost/internal/faultpoint"
	"tboost/internal/stm"
	"tboost/internal/wal"
)

// durableSet wires the standard durable fixture: a boosted hash set bound to
// a log in dir, recovered and ready behind a System.
func durableSet(t *testing.T, dir string, opts wal.Options) (*stm.System, *core.Set[int64], *wal.Log, wal.RecoverResult) {
	t.Helper()
	opts.Dir = dir
	l, err := wal.Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	set := core.NewHashSetOf[int64]()
	if err := core.BindSet(l, "set", wal.Int64Codec, set); err != nil {
		t.Fatalf("BindSet: %v", err)
	}
	res, err := l.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	sys := stm.NewSystem(stm.Config{Durability: l})
	return sys, set, l, res
}

func setKeys(t *testing.T, s *core.Set[int64]) []int64 {
	t.Helper()
	keys := s.Base().(interface{ Keys() []int64 }).Keys()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func TestRoundTripThroughSystem(t *testing.T) {
	dir := t.TempDir()
	sys, set, l, _ := durableSet(t, dir, wal.Options{Mode: wal.Group})

	// A mix of adds, removes, and multi-op transactions.
	for i := int64(0); i < 50; i++ {
		i := i
		err := sys.Atomic(func(tx *stm.Tx) error {
			set.Add(tx, i)
			set.Add(tx, i+1000)
			if i%3 == 0 {
				set.Remove(tx, i+1000)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Atomic: %v", err)
		}
	}
	want := setKeys(t, set)
	st := l.Stats()
	if st.Commits != 50 || st.Records != 50 {
		t.Fatalf("stats = %+v, want 50 commits/records", st)
	}
	if st.DurableLSN != 50 {
		t.Fatalf("DurableLSN = %d, want 50", st.DurableLSN)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, set2, l2, res := durableSet(t, dir, wal.Options{Mode: wal.Group})
	defer l2.Close()
	if res.Replayed != 50 {
		t.Fatalf("Replayed = %d, want 50", res.Replayed)
	}
	got := setKeys(t, set2)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered keys = %v, want %v", got, want)
	}
}

func TestAbortedTxLeavesNoRecord(t *testing.T) {
	dir := t.TempDir()
	sys, set, l, _ := durableSet(t, dir, wal.Options{Mode: wal.Group})
	defer l.Close()

	boom := errors.New("boom")
	err := sys.Atomic(func(tx *stm.Tx) error {
		set.Add(tx, 7)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if err := sys.Atomic(func(tx *stm.Tx) error { set.Add(tx, 8); return nil }); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	d, err := wal.DumpDir(dir)
	if err != nil {
		t.Fatalf("DumpDir: %v", err)
	}
	if len(d.Records) != 1 || len(d.Records[0].Ops) != 1 {
		t.Fatalf("dump = %+v, want exactly the committed tx's one op", d.Records)
	}
}

// TestParallelBranchesReachTheLogWhole: two Parallel branches of one
// transaction emit through the same binding into the same redo arena; the
// record must hold every op of both, each decodable, and recover to the
// state the branches built.
func TestParallelBranchesReachTheLogWhole(t *testing.T) {
	dir := t.TempDir()
	sys, set, l, _ := durableSet(t, dir, wal.Options{Mode: wal.Group})
	const perBranch = 100
	branch := func(base int64) func(tx *stm.Tx) error {
		return func(tx *stm.Tx) error {
			for k := base; k < base+perBranch; k++ {
				set.Add(tx, k<<20) // multi-byte varints, so a torn op would not decode
			}
			return nil
		}
	}
	if err := sys.Atomic(func(tx *stm.Tx) error {
		set.Add(tx, -1)
		return tx.Parallel(branch(0), branch(1000))
	}); err != nil {
		t.Fatal(err)
	}
	want := setKeys(t, set)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := wal.DumpDir(dir)
	if err != nil || len(d.Records) != 1 || len(d.Records[0].Ops) != 1+2*perBranch {
		t.Fatalf("dump: %v, %d records, want one with %d ops", err, len(d.Records), 1+2*perBranch)
	}
	_, set2, l2, _ := durableSet(t, dir, wal.Options{Mode: wal.Group})
	defer l2.Close()
	if got := setKeys(t, set2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %d keys, want %d: %v", len(got), len(want), got)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	sys, set, l, _ := durableSet(t, dir, wal.Options{Mode: wal.Group})
	for i := int64(0); i < 10; i++ {
		if err := sys.Atomic(func(tx *stm.Tx) error { set.Add(tx, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	sort.Strings(segs)
	// Simulate a torn write: garbage appended to the newest non-empty segment.
	var target string
	for _, s := range segs {
		if fi, _ := os.Stat(s); fi != nil && fi.Size() > 16 {
			target = s
		}
	}
	f, err := os.OpenFile(target, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x37, 0x00, 0x01, 0x02})
	f.Close()

	_, set2, l2, res := durableSet(t, dir, wal.Options{Mode: wal.Group})
	defer l2.Close()
	if res.Replayed != 10 || res.TornBytes == 0 {
		t.Fatalf("res = %+v, want 10 replayed and a truncated tail", res)
	}
	if got := setKeys(t, set2); len(got) != 10 {
		t.Fatalf("recovered %d keys, want 10", len(got))
	}
}

func TestCorruptRecordEndsLog(t *testing.T) {
	dir := t.TempDir()
	sys, set, l, _ := durableSet(t, dir, wal.Options{Mode: wal.Group})
	for i := int64(0); i < 10; i++ {
		if err := sys.Atomic(func(tx *stm.Tx) error { set.Add(tx, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	var target string
	var size int64
	for _, s := range segs {
		if fi, _ := os.Stat(s); fi != nil && fi.Size() > 16 {
			target, size = s, fi.Size()
		}
	}
	// Flip one byte inside the last record's payload.
	f, err := os.OpenFile(target, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	f.ReadAt(b[:], size-3)
	b[0] ^= 0xff
	f.WriteAt(b[:], size-3)
	f.Close()

	_, set2, l2, res := durableSet(t, dir, wal.Options{Mode: wal.Group})
	defer l2.Close()
	if res.Replayed != 9 {
		t.Fatalf("Replayed = %d, want 9 (corrupt final record dropped)", res.Replayed)
	}
	if got := setKeys(t, set2); len(got) != 9 {
		t.Fatalf("recovered %d keys, want 9", len(got))
	}
}

func TestCheckpointReplayAndPrune(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation so the prune has something to delete.
	opts := wal.Options{Mode: wal.Group, SegmentBytes: 512}
	sys, set, l, _ := durableSet(t, dir, opts)
	for i := int64(0); i < 40; i++ {
		if err := sys.Atomic(func(tx *stm.Tx) error { set.Add(tx, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := sys.ActiveTx(); n != 0 {
		t.Fatalf("ActiveTx = %d, want 0 before checkpoint", n)
	}
	ckLSN, err := l.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if ckLSN != 41 {
		t.Fatalf("checkpoint LSN = %d, want 41", ckLSN)
	}
	// Post-checkpoint traffic lands in the surviving segments.
	for i := int64(100); i < 110; i++ {
		if err := sys.Atomic(func(tx *stm.Tx) error { set.Add(tx, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	want := setKeys(t, set)
	l.Close()

	d, err := wal.DumpDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.Checkpoint == nil || d.Checkpoint.NextLSN != 41 {
		t.Fatalf("dump checkpoint = %+v", d.Checkpoint)
	}
	if len(d.Records) != 10 {
		t.Fatalf("dump has %d replayable records, want 10", len(d.Records))
	}

	_, set2, l2, res := durableSet(t, dir, opts)
	defer l2.Close()
	if res.CheckpointLSN != 41 || res.Replayed != 10 {
		t.Fatalf("res = %+v, want checkpoint 41 + 10 replayed", res)
	}
	if got := setKeys(t, set2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered keys = %v, want %v", got, want)
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	sys, set, l, _ := durableSet(t, dir, wal.Options{Mode: wal.Group, GroupWindow: time.Millisecond})
	defer l.Close()

	const (
		workers = 8
		perW    = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := int64(w*1000 + i)
				if err := sys.Atomic(func(tx *stm.Tx) error { set.Add(tx, k); return nil }); err != nil {
					t.Errorf("Atomic: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Commits != workers*perW {
		t.Fatalf("Commits = %d, want %d", st.Commits, workers*perW)
	}
	if st.Fsyncs >= st.Commits {
		t.Fatalf("no batching: %d fsyncs for %d commits", st.Fsyncs, st.Commits)
	}
	t.Logf("fsyncs/commit = %.3f (%d fsyncs, %d commits)",
		float64(st.Fsyncs)/float64(st.Commits), st.Fsyncs, st.Commits)
}

func TestAsyncModeAcksImmediately(t *testing.T) {
	dir := t.TempDir()
	sys, set, l, _ := durableSet(t, dir, wal.Options{Mode: wal.Async})
	for i := int64(0); i < 20; i++ {
		if err := sys.Atomic(func(tx *stm.Tx) error { set.Add(tx, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if st := l.Stats(); st.DurableLSN != 20 {
		t.Fatalf("DurableLSN = %d after Sync, want 20", st.DurableLSN)
	}
	l.Close()

	_, set2, l2, res := durableSet(t, dir, wal.Options{Mode: wal.Async})
	defer l2.Close()
	if res.Replayed != 20 {
		t.Fatalf("Replayed = %d, want 20", res.Replayed)
	}
	if got := setKeys(t, set2); len(got) != 20 {
		t.Fatalf("recovered %d keys, want 20", len(got))
	}
}

func TestOffModeWritesNothing(t *testing.T) {
	dir := t.TempDir()
	sys, set, l, _ := durableSet(t, dir, wal.Options{Mode: wal.Off})
	defer l.Close()
	for i := int64(0); i < 5; i++ {
		if err := sys.Atomic(func(tx *stm.Tx) error { set.Add(tx, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Commits != 0 || st.Records != 0 {
		t.Fatalf("off mode logged: %+v", st)
	}
}

func TestBindAfterRecoverRejected(t *testing.T) {
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), Mode: wal.Group})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	set := core.NewHashSetOf[int64]()
	if err := core.BindSet(l, "late", wal.Int64Codec, set); err == nil {
		t.Fatal("Bind after Recover succeeded, want error")
	}
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), Mode: wal.Group})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	a, b := core.NewHashSetOf[int64](), core.NewHashSetOf[int64]()
	if err := core.BindSet(l, "x", wal.Int64Codec, a); err != nil {
		t.Fatal(err)
	}
	if err := core.BindSet(l, "x", wal.Int64Codec, b); err == nil {
		t.Fatal("duplicate registration succeeded, want error")
	}
}

func TestRegistrationDriftDetected(t *testing.T) {
	dir := t.TempDir()
	sys, set, l, _ := durableSet(t, dir, wal.Options{Mode: wal.Group})
	if err := sys.Atomic(func(tx *stm.Tx) error { set.Add(tx, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Reopen registering a different name: the checkpoint's section no
	// longer matches and recovery must refuse rather than misattribute ops.
	l2, err := wal.Open(wal.Options{Dir: dir, Mode: wal.Group})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	other := core.NewHashSetOf[int64]()
	if err := core.BindSet(l2, "renamed", wal.Int64Codec, other); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Recover(); err == nil {
		t.Fatal("Recover with drifted registration succeeded, want error")
	}
}

func TestBackpressureBounded(t *testing.T) {
	dir := t.TempDir()
	// A tiny MaxPending trips the overload shed: past it, new transactions
	// are rejected at admission with ErrContentionCollapse instead of
	// queueing under the log mutex. The documented recovery is back off and
	// retry, which this load loop does — the assertions are progress (no
	// deadlock) and full durability of everything admitted.
	sys, set, l, _ := durableSet(t, dir, wal.Options{Mode: wal.Group, MaxPending: 64})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := int64(w*100 + i)
				for {
					err := sys.Atomic(func(tx *stm.Tx) error { set.Add(tx, k); return nil })
					if err == nil {
						break
					}
					if !errors.Is(err, stm.ErrContentionCollapse) {
						t.Errorf("Atomic: %v", err)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := l.Stats(); st.Commits != 80 || st.DurableLSN != 80 {
		t.Fatalf("stats = %+v, want 80 durable commits", st)
	}
	l.Close()
}

func TestBackpressureShedsNotStalls(t *testing.T) {
	dir := t.TempDir()
	// Regression for the slow-fsync stall: with the writer wedged behind a
	// long fsync delay and MaxPending exceeded, unrelated appenders must be
	// shed promptly with the typed admission error — never parked under the
	// log mutex waiting for the writer to drain.
	sys, set, l, _ := durableSet(t, dir, wal.Options{Mode: wal.Async, MaxPending: 64})
	defer faultpoint.Reset()
	faultpoint.Enable(faultpoint.WalPreFsync, faultpoint.Trigger{
		Effect: faultpoint.Delay, Delay: 200 * time.Millisecond,
	})

	// Fill past MaxPending while the writer sleeps in its first fsync.
	deadline := time.Now().Add(5 * time.Second)
	for !l.Overloaded() {
		if time.Now().After(deadline) {
			t.Fatal("log never reported Overloaded")
		}
		err := sys.Atomic(func(tx *stm.Tx) error { set.Add(tx, int64(time.Now().UnixNano())); return nil })
		if err != nil && !errors.Is(err, stm.ErrContentionCollapse) {
			t.Fatal(err)
		}
	}

	// An unrelated appender now gets a fast typed rejection, not a stall.
	start := time.Now()
	err := sys.Atomic(func(tx *stm.Tx) error { set.Add(tx, -1); return nil })
	if !errors.Is(err, stm.ErrContentionCollapse) || !errors.Is(err, stm.ErrBackpressure) {
		t.Fatalf("overloaded Atomic = %v, want ErrContentionCollapse wrapping ErrBackpressure", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("shed took %v — appender stalled behind the slow fsync", d)
	}

	// Once the writer drains, the flag clears and admission resumes.
	faultpoint.Reset()
	deadline = time.Now().Add(5 * time.Second)
	for {
		err := sys.Atomic(func(tx *stm.Tx) error { set.Add(tx, -2); return nil })
		if err == nil {
			break
		}
		if !errors.Is(err, stm.ErrContentionCollapse) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("admission never recovered after the writer drained")
		}
		time.Sleep(time.Millisecond)
	}
	l.Close()
}
