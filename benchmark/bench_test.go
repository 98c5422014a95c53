package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestHistBuckets(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 123456, 1 << 30, 1<<40 - 1, 1 << 50} {
		idx := bucketOf(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d, outside [0,%d)", v, idx, histBuckets)
		}
		lo, width := bucketBounds(idx)
		if clamped := min(v, 1<<histMaxBits-1); clamped < lo || clamped >= lo+width {
			t.Errorf("value %d in bucket %d = [%d,%d)", v, idx, lo, lo+width)
		}
		if float64(width) > 0.032*float64(lo)+1 {
			t.Errorf("bucket %d is %d wide at %d: more than 3.2%%", idx, width, lo)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 50; v++ { // below 64 ns a bucket is one value wide
		for i := 0; i < 10; i++ {
			h.record(v)
		}
	}
	if got := h.quantile(0.5); got < 25 || got > 26 {
		t.Errorf("p50 of 1..50 = %v, want within [25,26]", got)
	}
	if got := h.quantile(0.99); got < 49 || got > 51 {
		t.Errorf("p99 of 1..50 = %v, want within [49,51]", got)
	}
	var big, empty hist
	big.record(1_000_000)
	if got := big.quantile(1); math.Abs(got-1e6) > 0.032*1e6 {
		t.Errorf("max of {1e6} = %v, off by more than a bucket", got)
	}
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("quantile of empty histogram = %v, want 0", got)
	}
	// Interpolation: a percentile moves with the counts, not in bucket steps.
	var a, b hist
	for i := 0; i < 100; i++ {
		a.record(1000)
		b.record(1000)
	}
	b.record(10) // one more sample, far below
	if pa, pb := a.quantile(0.5), b.quantile(0.5); pb >= pa || pa-pb > 1 {
		t.Errorf("one low sample in 101 moved p50 from %v to %v, want a fraction of a bucket down", pa, pb)
	}
	a.merge(&b)
	if a.n != 201 {
		t.Errorf("merged count = %d, want 201", a.n)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles 1..3 = %v, %v; Python gives 1, 3", q1, q3)
	}
	if q1, q3 = quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
	if got := spread([]float64{1, 2, 3}); got != 1 {
		t.Errorf("spread = %v, want (3-1)/2", got)
	}
}

func TestWindowQuartiles(t *testing.T) {
	// Seven windows; the writers' rates are 100..700 and every call of window w
	// takes w+1 microseconds. Window 6 is empty for the reader.
	const n = 7
	cfg := passConfig{windows: n, window: time.Second}
	specs := []clientSpec{{}, {}, {reader: true}}
	recs := []*recorder{{win: make([]windowRec, n)}, {win: make([]windowRec, n)}, {win: make([]windowRec, n)}}
	for w := 0; w < n; w++ {
		commits := [3]int64{int64(60 * (w + 1)), int64(40 * (w + 1)), 8}
		for c := range recs {
			if c == 2 && w == 6 {
				continue
			}
			recs[c].win[w].commits = commits[c]
			recs[c].win[w].lat.record(int64(1000 * (w + 1)))
			recs[c].commits += commits[c]
		}
	}
	writer := summarize(recs, specs, false, cfg)
	if writer.txPerS != 600 { // statistics.quantiles([100..700], n=4)[2]
		t.Errorf("writer tx/s = %v, want the upper quartile of the windows, 600", writer.txPerS)
	}
	if writer.commits != 2800 || writer.samples != 14 {
		t.Errorf("writer commits, samples = %v, %v; want 2800, 14", writer.commits, writer.samples)
	}
	if writer.p50us < 1.9 || writer.p50us > 2.1 { // windows: 1us .. 7us
		t.Errorf("writer p50 = %v us, want the lower quartile of the windows, about 2", writer.p50us)
	}
	if writer.p99us < 6.7 || writer.p99us > 7.3 {
		t.Errorf("writer p99 = %v us, want the whole pass's, about 7", writer.p99us)
	}
	reader := summarize(recs, specs, true, cfg)
	if reader.txPerS != 8 { // rates 8 x6 and 0
		t.Errorf("reader tx/s = %v, want 8", reader.txPerS)
	}
	if reader.p50us < 1.6 || reader.p50us > 1.9 { // quantiles([1..6], n=4)[0] == 1.75: the empty window is left out
		t.Errorf("reader p50 = %v us, want about 1.75", reader.p50us)
	}
	if cfg := newPassConfig(1500 * time.Millisecond); cfg.windows != 15 || cfg.window != passWindow || cfg.warmup != 750*time.Millisecond {
		t.Errorf("newPassConfig(1.5s) = %+v", cfg)
	}
	if cfg := newPassConfig(60 * time.Millisecond); cfg.windows != 1 || cfg.window != 60*time.Millisecond {
		t.Errorf("newPassConfig(60ms) = %+v", cfg)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	gens := map[string]func(seed uint64) any{
		"transfers": func(s uint64) any { return genTransfers(s, 1, 4096, 4096, 2) },
		"hot":       func(s uint64) any { return genTransfers(s, 0, 16, 16, 8) },
		"branches":  func(s uint64) any { return genBranches(s, 1, 64) },
		"warehouse": func(s uint64) any { return genWarehouse(s, 0, whProducts) },
		"spans":     func(s uint64) any { return genSpans(s, 1, spanAccounts) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: same seed gave different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
	if reflect.DeepEqual(genTransfers(7, 0, 4096, 4096, 2), genTransfers(7, 1, 4096, 4096, 2)) {
		t.Errorf("two clients drew the same stream")
	}
}

func TestTransfersAreOrderedAndBalanced(t *testing.T) {
	ops := genTransfers(3, 0, 4096, 64, 8)
	for seq := 0; seq < opsPerClient; seq++ {
		legs := ops.op(seq)
		var sum int32
		for i, l := range legs {
			sum += l.Delta
			if i > 0 && legs[i-1].Acct >= l.Acct {
				t.Fatalf("op %d: accounts not strictly ascending: %v", seq, legs)
			}
			if l.Acct/64 != legs[0].Acct/64 {
				t.Fatalf("op %d leaves its group: %v", seq, legs)
			}
		}
		if sum != 0 {
			t.Fatalf("op %d moves %d in total, want 0", seq, sum)
		}
	}
}

// TestAuditCatchesDroppedOp runs a few real transactions and checks that the
// ledger audit accepts exactly what ran: one op more, one op fewer, or one
// committed op reported failed must each be caught.
func TestAuditCatchesDroppedOp(t *testing.T) {
	for _, w := range workloads {
		if w.reader {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(env{seed: 5, clients: 2, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			const n = 40
			runs := make([]clientRun, 2)
			for c, spec := range inst.clients() {
				for seq := 0; seq < n; seq++ {
					if err := spec.do(seq); err != nil && err != errDeclined {
						t.Fatalf("client %d op %d: %v", c, seq, err)
					}
				}
				runs[c].n = n
			}
			writer := 0 // every workload's client 0 writes
			// Ten ops at a time: a single op may be one that changes nothing
			// (a warehouse audit, a declined transfer).
			for _, bad := range []clientRun{{n: n + 10}, {n: n - 10}, {n: n, failed: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}} {
				tampered := append([]clientRun(nil), runs...)
				tampered[writer] = bad
				if _, err := inst.audit(tampered); err == nil {
					t.Errorf("audit accepted a ledger of %+v after %d ops ran", bad, n)
				}
			}
			if _, err := inst.audit(runs); err != nil {
				t.Errorf("audit rejected the true ledger: %v", err)
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 10, Parent: -1, Start: 0, End: 100},
		{ID: 11, Parent: 10, Start: 10, End: 30},
		{ID: 12, Parent: 10, Start: 40, End: 70},
		{ID: 13, Parent: 12, Start: 50, End: 60},
		{ID: 14, Parent: 9, Start: 200, End: 205}, // parent not retained
	}
	if got, want := selfTimes(spans), []int64{50, 20, 20, 10, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestLaneRecordsParentsAndSums(t *testing.T) {
	tr := newTracer(1)
	ln := tr.lane(0, 0)
	root := ln.beginCall(spTx, true, 0)
	body := ln.open(spBody, 10)
	op := ln.open(spOp, 20)
	ln.emit(spBase, 25, 35)
	ln.close(spOp, op, 20, 40)
	ln.close(spBody, body, 10, 60)
	ln.emit(spWalWait, 70, 90)
	ln.close(spTx, root, 0, 100)

	spans := ln.retained()
	if len(spans) != 5 {
		t.Fatalf("retained %d spans, want 5", len(spans))
	}
	parents := map[spanKind]spanKind{}
	for _, s := range spans {
		if s.Parent >= 0 {
			parents[s.Kind] = spans[s.Parent].Kind
		}
	}
	want := map[spanKind]spanKind{spBody: spTx, spOp: spBody, spBase: spOp, spWalWait: spTx}
	if !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}
	if got, want := selfTimes(spans), []int64{30, 30, 10, 10, 20}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
	if ns, n := tr.total(spOp); ns != 20 || n != 1 {
		t.Errorf("core.op sum = %v ns over %v, want 20 over 1", ns, n)
	}

	// An unsampled call feeds the sums and leaves the ring alone.
	root = ln.beginCall(spTx, false, 200)
	ln.emit(spOp, 210, 240)
	ln.close(spTx, root, 200, 300)
	if got := len(ln.retained()); got != 5 {
		t.Errorf("unsampled call left %d spans in the ring, want 5", got)
	}
	if ns, n := tr.total(spOp); ns != 50 || n != 2 {
		t.Errorf("core.op sum = %v ns over %v, want 50 over 2", ns, n)
	}
}

// TestSmoke runs every workload end to end for 200 ms, traced pass and cost
// ladder included, and checks the output against BENCHMARK.json: every metric
// printed exactly once per workload, in the lines and in the result object,
// and nothing failed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}

	var stdout, stderr bytes.Buffer
	opts := options{workloads: workloads, seed: 1, seconds: 0.2, setUps: 2, scratch: t.TempDir()}
	if code := run(opts, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}

	printed := map[string]int{}         // "workload metric unit" -> lines
	var objects []map[string]metricJSON // result objects, in order
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("bad result object %q: %v", line, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("result not clean: %s", line)
			}
			objects = append(objects, r.Metrics)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			t.Fatalf("malformed line %q", line)
		}
		printed[f[0]+" "+f[1]+" "+f[3]]++
		if f[1] == "fail_ratio" && f[2] != "0" {
			t.Errorf("%s", line)
		}
	}
	if len(objects) != 2*len(workloads) {
		t.Fatalf("%d result objects, want an end-to-end and a per-layer one per workload", len(objects))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		for j, set := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			object := objects[2*i+j]
			if len(object) != len(set) {
				t.Errorf("%s: result object %d has %d metrics, BENCHMARK.json names %d", w.Name, j, len(object), len(set))
			}
			for _, m := range set {
				if n := printed[w.Name+" "+m.Name+" "+m.Unit]; n != 1 {
					t.Errorf("%s %s [%s] printed %d times, want once", w.Name, m.Name, m.Unit, n)
				}
				if got, ok := object[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s: result object lacks %s [%s] (has %+v)", w.Name, m.Name, m.Unit, got)
				}
			}
		}
	}
}
