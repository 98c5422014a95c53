package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"
	"unsafe"

	"tboost"
)

// errDeclined is the generator's own refusal: a body that performs all its
// legs and then returns it, forcing undo replay. It is an expected outcome,
// neither a commit nor a failure.
var errDeclined = errors.New("benchmark: transfer declined by the generator")

// errInvariant is returned by a body that observed state no serial execution
// could produce. It counts as a failure.
var errInvariant = errors.New("benchmark: in-transaction invariant violated")

// client issues one workload's transactions for one goroutine: do runs the
// seq-th transaction of the client's pre-generated stream through the tboost
// facade and returns what the facade returned.
type client interface {
	do(seq int) error
}

type clientSpec struct {
	client
	reader bool // issues read-only transactions; reported separately
}

// clientRun is what a client did over a whole instance's life, warm-up
// included: transactions 0..n-1 of its stream ran, and those listed in failed
// neither committed nor were declined by the generator. The audit replays
// the stream against it.
type clientRun struct {
	n      int
	failed []int
}

// acked reports whether transaction seq committed or was declined; failed is
// in ascending order, as the client's loop appended it.
func (r clientRun) acked(seq int) bool {
	_, found := slices.BinarySearch(r.failed, seq)
	return !found
}

// instance is one set-up of a workload: objects built and populated, inputs
// generated, ready to run.
type instance interface {
	clients() []clientSpec
	counters() counters
	// audit checks every figure the workload maintains against the ledger of
	// acknowledged transactions; a durable workload also closes its logs,
	// recovers them into fresh objects and requires the same state, returning
	// how long that recovery took.
	audit(runs []clientRun) (recoverS float64, err error)
	close() error
}

// Layer counters read from the layers' own Stats() surfaces before and after
// a pass.
const (
	cStarts = iota
	cCommits
	cAborts
	cAbortsLockTimeout
	cAbortsValidation
	cLockTimeouts
	cROAborts
	cReaderLockDemands
	cWalCommits
	cWalBatches
	cWalFsyncs
	cWalBytes
	cDecisionFsyncs
	cVersReclaimed
	cVersRetained // a gauge: read from the after-snapshot, never subtracted
	numCounters
)

type counters [numCounters]float64

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counters) addSystem(sys *tboost.System) {
	s := sys.Stats()
	c[cStarts] += float64(s.Starts)
	c[cCommits] += float64(s.Commits)
	c[cAborts] += float64(s.Aborts)
	c[cAbortsLockTimeout] += float64(s.AbortsLockTimeout)
	c[cAbortsValidation] += float64(s.AbortsValidation)
	c[cLockTimeouts] += float64(s.LockTimeouts)
	c[cROAborts] += float64(s.ROAborts)
	c[cReaderLockDemands] += float64(s.ReaderLockDemands)
	v := sys.Snapshots().Stats()
	c[cVersReclaimed] += float64(v.VersionsReclaimed)
	c[cVersRetained] += float64(v.VersionsRetained)
}

func (c *counters) addLog(l *tboost.WAL, dir string) {
	s := l.Stats()
	c[cWalCommits] += float64(s.Commits)
	c[cWalBatches] += float64(s.Batches)
	c[cWalFsyncs] += float64(s.Fsyncs)
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err == nil {
			c[cWalBytes] += float64(fi.Size())
		}
	}
}

type windowRec struct {
	commits int64
	lat     hist
}

// recorder is one client's private measurement state for one pass.
type recorder struct {
	win       []windowRec
	attempted int64
	commits   int64
	failed    []int
	firstErr  error
}

// loop is the closed loop: the client's next transaction is issued when the
// previous one returns, until one returns after the last window has ended.
// Each call is timed from the previous call's return, so nothing the client
// does between calls escapes the latency. It returns the next sequence number.
func (r *recorder) loop(c client, seq int, start time.Time, window time.Duration) int {
	prev := time.Since(start)
	for {
		err := c.do(seq)
		t := time.Since(start)
		w := int(t / window)
		in := w < len(r.win)
		r.attempted++
		switch {
		case err == nil:
			r.commits++
			if in {
				r.win[w].commits++
			}
		case errors.Is(err, errDeclined):
		default:
			r.failed = append(r.failed, seq)
			if r.firstErr == nil {
				r.firstErr = err
			}
		}
		seq++
		if !in {
			return seq
		}
		r.win[w].lat.record(int64(t - prev))
		prev = t
	}
}

// runPhase runs every client of inst for windows x window and returns their
// recorders. runs carries each client's position in its stream across phases.
func runPhase(inst instance, runs []clientRun, windows int, window time.Duration) []*recorder {
	specs := inst.clients()
	recs := make([]*recorder, len(specs))
	for i := range recs {
		recs[i] = &recorder{win: make([]windowRec, windows)}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i].n = recs[i].loop(spec.client, runs[i].n, start, window)
			runs[i].failed = append(runs[i].failed, recs[i].failed...)
		}()
	}
	wg.Wait()
	return recs
}

type passConfig struct {
	warmup  time.Duration
	windows int
	window  time.Duration
}

// passWindow is the length of one window of a pass. It is short so that a
// pass has many: the host this runs on is shared, its interference comes in
// bursts and only ever slows a window down, and the quartile of the windows
// least disturbed (see summarize) needs enough windows to be well defined.
const passWindow = 100 * time.Millisecond

// newPassConfig splits d into whole windows (one shorter window when d is
// under one) after a warm-up of at most one second.
func newPassConfig(d time.Duration) passConfig {
	cfg := passConfig{warmup: min(time.Second, d/2), windows: int(d / passWindow), window: passWindow}
	if cfg.windows == 0 {
		cfg.windows, cfg.window = 1, d
	}
	return cfg
}

// viewResult is what one kind of client (writers or readers) achieved.
// txPerS and p50us are quartiles over the pass's windows — the upper quartile
// of the windows' rates, the lower quartile of their median latencies — so
// that a burst of interference from the host, which spoils the windows it
// falls in, does not decide the figure. The tail percentiles are taken over
// every call of the pass: a window holds too few calls beyond them.
type viewResult struct {
	txPerS              float64
	p50us, p95us, p99us float64
	samples             uint64
	commits             float64 // whole pass, the call that ran past its end included
}

type passResult struct {
	writer, reader viewResult
	seconds        float64
	allocsPerTx    float64
	heapMB         float64
	attempted      int64
	failed         int64
	firstErr       error
	delta, after   counters
	recoverS       float64
}

func summarize(recs []*recorder, specs []clientSpec, reader bool, cfg passConfig) viewResult {
	var v viewResult
	var whole hist
	rates := make([]float64, cfg.windows)
	var p50s []float64 // of the windows in which a call returned
	for w := 0; w < cfg.windows; w++ {
		var lat hist
		var commits int64
		for i, r := range recs {
			if specs[i].reader == reader {
				lat.merge(&r.win[w].lat)
				commits += r.win[w].commits
			}
		}
		rates[w] = float64(commits) / cfg.window.Seconds()
		if lat.n > 0 {
			p50s = append(p50s, lat.quantile(0.50)/1e3)
		}
		whole.merge(&lat)
	}
	for i, r := range recs {
		if specs[i].reader == reader {
			v.commits += float64(r.commits)
		}
	}
	_, v.txPerS = quartiles(rates)
	v.p50us, _ = quartiles(p50s)
	v.p95us, v.p99us = whole.quantile(0.95)/1e3, whole.quantile(0.99)/1e3
	v.samples = whole.n
	return v
}

// runPass warms inst up, measures it for cfg.windows windows, audits it and
// closes it. tr is the tracer whose wrappers inst was set up with, nil with
// tracing off; its sums restart after the warm-up so they cover what the
// counters cover.
func runPass(inst instance, cfg passConfig, tr *tracer) (res passResult, err error) {
	defer func() {
		if cerr := inst.close(); err == nil {
			err = cerr
		}
	}()
	specs := inst.clients()
	runs := make([]clientRun, len(specs))
	warm := runPhase(inst, runs, 1, cfg.warmup)
	if tr != nil {
		tr.reset()
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	before := inst.counters()
	runtime.ReadMemStats(&m0)
	recs := runPhase(inst, runs, cfg.windows, cfg.window)
	runtime.ReadMemStats(&m1)
	res.after = inst.counters()
	res.delta = res.after.sub(before)
	// Twice: a sync.Pool gives its contents up over two collections, and how
	// the first falls against the run's last natural one would otherwise
	// decide whether the pooled descriptors count.
	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)

	res.seconds = (time.Duration(cfg.windows) * cfg.window).Seconds()
	res.writer = summarize(recs, specs, false, cfg)
	res.reader = summarize(recs, specs, true, cfg)
	for _, r := range append(warm, recs...) { // a failure while warming up is a failure
		res.attempted += r.attempted
		res.failed += int64(len(r.failed))
		if res.firstErr == nil {
			res.firstErr = r.firstErr
		}
	}
	res.allocsPerTx = ratio(float64(m1.Mallocs-m0.Mallocs), res.writer.commits+res.reader.commits)
	// Net of what the benchmark itself holds: the ballast and the recorders.
	own := uint64(len(ballast)) + uint64(len(recs)*cfg.windows)*uint64(unsafe.Sizeof(windowRec{}))
	res.heapMB = (float64(m2.HeapInuse) - float64(own)) / (1 << 20)

	res.recoverS, err = inst.audit(runs)
	if err != nil {
		// A state that does not match the ledger fails the run as a whole;
		// it cannot be pinned on one call, so it counts as one more failure.
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
		err = nil
	}
	if d := res.delta; d[cReaderLockDemands] != 0 || d[cROAborts] != 0 {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = fmt.Errorf("snapshot readers left the lock-free path: %v lock demands, %v aborts",
				d[cReaderLockDemands], d[cROAborts])
		}
	}
	return res, nil
}
