// Command benchmark is the repository's one benchmark: closed-loop workloads
// driven through the public tboost facade, end-to-end metrics measured with
// tracing off, and a separately traced pass plus a single-client cost ladder
// for per-layer numbers. See README.md in this directory.
//
// The driver's contract (BENCHMARK.json at the repository root) runs it as
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"
)

// setUps is how many times a pass sets its workload up; setup_s is their
// lower quartile and the last one is the instance measured.
const setUps = 9

type options struct {
	workloads []workload
	seed      uint64
	seconds   float64
	trace     string // "0", "1", or "" for both
	traceOut  string
	out       string
	repeat    int
	setUps    int
	scratch   string // directory the run may write under
}

// result is one workload's outcome in one mode, in the shape the driver reads.
type result struct {
	Workload  string                `json:"-"`
	Trace     int                   `json:"-"`
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`

	lines   []string              // every metric, one "workload metric value unit" line each
	ungated map[string]metricJSON // printed and written to -out, held to no bound
	tracer  *tracer               // the traced pass's spans, for -trace-out
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) add(m metric, note string) {
	r.Metrics[m.name] = metricJSON{m.value, m.unit}
	r.print(m, note)
}

// addUngated reports a metric the driver does not hold to a bound.
func (r *result) addUngated(m metric, note string) {
	r.ungated[m.name] = metricJSON{m.value, m.unit}
	r.print(m, strings.TrimSpace(note+" ungated"))
}

func (r *result) print(m metric, note string) {
	line := fmt.Sprintf("%s %s %v %s", r.Workload, m.name, m.value, m.unit)
	if note != "" {
		line += " " + note
	}
	r.lines = append(r.lines, line)
}

// window is the given share of the measured window.
func (o options) window(share float64) time.Duration {
	return time.Duration(share * o.seconds * float64(time.Second))
}

func clientCount() int { return max(2, min(runtime.NumCPU(), 4)) }

// ballast is live heap the process holds for its whole life, as a service
// holding data would: with the workloads' own few megabytes alone the
// collector would run some seventeen times a second on bank_mem, and how those
// cycles fall would decide a run's throughput. It is never touched (so costs
// no resident memory) and holds no pointers (so costs no marking); heap_mb is
// reported net of it.
var ballast []byte

const ballastBytes = 64 << 20

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	ballast = make([]byte, ballastBytes)
	os.Exit(run(opts, os.Stdout, os.Stderr))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all)")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 15, "length of the measured window of a pass")
	trace := fs.String("trace", "", "0: end-to-end metrics only; 1: per-layer metrics only (a traced pass, an untraced reference and the cost ladder share the window); default: both")
	traceOut := fs.String("trace-out", "", "write the sampled spans of the traced passes to this file as JSON")
	out := fs.String("out", "", "write every result, stamped with the environment, to this file as JSON")
	repeat := fs.Int("repeat", 0, "run the untraced pass this many times (seeds seed, seed+1, ...), print each metric's spread and fail if one exceeds its bound in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace, traceOut: *traceOut, out: *out, repeat: *repeat, setUps: setUps}
	if opts.seconds <= 0 || (opts.trace != "" && opts.trace != "0" && opts.trace != "1") || opts.repeat == 1 || opts.repeat < 0 {
		return options{}, fmt.Errorf("need -seconds > 0, -trace 0 or 1, -repeat >= 2")
	}
	if *names == "" {
		opts.workloads = workloads
	}
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
		if i < 0 {
			return options{}, fmt.Errorf("unknown workload %q", name)
		}
		opts.workloads = append(opts.workloads, workloads[i])
	}
	return opts, nil
}

// run executes opts and returns the process's exit code: 0 when every result
// is correct (and, with -repeat, steady), 1 when one is not, 2 when a pass
// could not be set up or run at all.
func run(opts options, stdout, stderr io.Writer) int {
	if opts.scratch == "" {
		// Logs live under the working directory: the checkout the command was
		// started in, on whatever file system that is.
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		dir, err := os.MkdirTemp(".bench_build", "run-")
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		defer os.RemoveAll(dir)
		opts.scratch = dir
	}
	if opts.repeat > 0 {
		return runRepeat(opts, stdout, stderr)
	}

	var results []*result
	for _, w := range opts.workloads {
		if opts.trace != "1" {
			r, err := endToEnd(w, opts, opts.seed)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 2
			}
			results = append(results, r)
		}
		if opts.trace != "0" {
			r, err := perLayer(w, opts)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 2
			}
			results = append(results, r)
		}
	}
	if opts.traceOut != "" {
		if err := dumpTraces(opts.traceOut, results); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	if opts.out != "" {
		if err := writeReport(opts, results); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	code := 0
	for _, r := range results {
		for _, line := range r.lines {
			fmt.Fprintln(stdout, line)
		}
	}
	for _, r := range results {
		b, _ := json.Marshal(r)
		fmt.Fprintln(stdout, string(b))
		if !r.Correct {
			code = 1
		}
	}
	return code
}

// measure sets w up n times — timing each, closing all but the last — and
// runs one pass of d on the last instance. It returns the pass's result and
// the lower quartile of the set-up times.
func measure(w workload, opts options, seed uint64, tr *tracer, n int, d time.Duration) (passResult, float64, error) {
	var inst instance
	times := make([]float64, n)
	for i := range times {
		if inst != nil {
			if err := inst.close(); err != nil {
				return passResult{}, 0, err
			}
		}
		dir, err := freshDir(opts.scratch, "data")
		if err != nil {
			return passResult{}, 0, err
		}
		runtime.GC() // every set-up starts from the same heap: the one before it freed
		t0 := time.Now()
		inst, err = w.setup(env{seed: seed, clients: clientCount(), dir: dir, tr: tr})
		times[i] = time.Since(t0).Seconds()
		if err != nil {
			return passResult{}, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	res, err := runPass(inst, newPassConfig(d), tr)
	quiet, _ := quartiles(times) // as for the windows of a pass: the host only ever slows a set-up down
	return res, quiet, err
}

func newResult(w workload, trace int, passes ...passResult) *result {
	r := &result{Workload: w.name, Trace: trace, Correct: true, Metrics: map[string]metricJSON{}, ungated: map[string]metricJSON{}}
	for _, p := range passes {
		r.Attempted += p.attempted
		r.Failed += p.failed
		if p.failed > 0 {
			r.Correct = false
			r.lines = append(r.lines, fmt.Sprintf("%s FAILED %v", w.name, p.firstErr))
		}
	}
	return r
}

// view is the side of the pass the workload reports: its writers' or, for a
// read-only view, its readers'.
func (w workload) view(p passResult) viewResult {
	if w.reader {
		return p.reader
	}
	return p.writer
}

// endToEnd measures w with tracing off and reports the end-to-end metrics.
func endToEnd(w workload, opts options, seed uint64) (*result, error) {
	res, setupS, err := measure(w, opts, seed, nil, opts.setUps, opts.window(1))
	if err != nil {
		return nil, err
	}
	v := w.view(res)
	samples := fmt.Sprintf("samples=%d", v.samples)
	r := newResult(w, 0, res)
	r.add(metric{"setup_s", setupS, "s"}, fmt.Sprintf("lower_quartile_of=%d", opts.setUps))
	// The times and rates are printed, not gated. On this class of host (two
	// virtual CPUs of a shared machine, a shared disk) they follow for minutes
	// at a time where the host has placed the virtual CPUs and how busy its
	// disk is: medians of ten runs taken a quarter of an hour apart differed
	// by 47 % (lat_p50_us on bank_hot) and 41 % (tx_per_s on bank_wal) on the
	// same code, which no bound of at most 25 % survives. Two commits are
	// compared on them in alternating pairs (see README.md).
	windows := fmt.Sprintf("windows=%d", newPassConfig(opts.window(1)).windows)
	r.addUngated(metric{"tx_per_s", v.txPerS, "1/s"}, windows)
	r.addUngated(metric{"lat_p50_us", v.p50us, "us"}, windows+" "+samples)
	r.addUngated(metric{"lat_p95_us", v.p95us, "us"}, samples)
	r.addUngated(metric{"lat_p99_us", v.p99us, "us"}, samples)
	r.add(metric{"allocs_per_tx", res.allocsPerTx, "count"}, "")
	r.add(metric{"heap_mb", res.heapMB, "MB"}, "")
	r.addUngated(metric{"fail_ratio", ratio(float64(r.Failed), float64(r.Attempted)), "ratio"},
		fmt.Sprintf("failed=%d attempted=%d", r.Failed, r.Attempted))
	return r, nil
}

// perLayer splits the window three ways — an untraced reference pass, the
// traced pass, the cost ladder — and reports the per-layer metrics. The
// end-to-end metrics are never taken from here.
func perLayer(w workload, opts options) (*result, error) {
	ref, _, err := measure(w, opts, opts.seed, nil, 1, opts.window(0.3))
	if err != nil {
		return nil, err
	}
	tr := newTracer(clientCount())
	traced, _, err := measure(w, opts, opts.seed, tr, 1, opts.window(0.3))
	if err != nil {
		return nil, err
	}
	dir, err := freshDir(opts.scratch, "ladder")
	if err != nil {
		return nil, err
	}
	probe, err := fsyncProbe(dir, 200)
	if err != nil {
		return nil, err
	}
	rungs, err := runLadder(opts.seed, dir, opts.window(0.02))
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	r := newResult(w, 1, ref, traced)
	r.tracer = tr
	for _, m := range layerMetrics(tr, traced) {
		r.add(m, "")
	}
	r.add(metric{"wal.fsync_probe_us", probe, "us"}, "")
	for _, m := range rungs {
		r.add(m, "")
	}
	overhead := 100 * (1 - ratio(w.view(traced).txPerS, w.view(ref).txPerS))
	r.add(metric{"trace.overhead_pct", overhead, "%"}, fmt.Sprintf("untraced_tx_per_s=%v", w.view(ref).txPerS))
	return r, nil
}

// dumpTraces writes the sampled spans of every traced pass, by workload.
func dumpTraces(path string, results []*result) error {
	spans := map[string][]jsonSpan{}
	for _, r := range results {
		if r.tracer != nil {
			spans[r.Workload] = r.tracer.spans()
		}
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// writeReport writes every result with the environment it was measured in.
func writeReport(opts options, results []*result) error {
	type entry struct {
		Workload string `json:"workload"`
		Trace    int    `json:"trace"`
		*result
		Ungated map[string]metricJSON `json:"ungated,omitempty"`
	}
	head := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		head = strings.TrimSpace(string(out))
	}
	report := struct {
		NumCPU     int     `json:"num_cpu"`
		GoMaxProcs int     `json:"GOMAXPROCS"`
		Clients    int     `json:"clients"`
		GoVersion  string  `json:"go_version"`
		GitHead    string  `json:"git_head"`
		Seed       uint64  `json:"seed"`
		DurationS  float64 `json:"duration_s"`
		FSType     string  `json:"fs_type"`
		Results    []entry `json:"results"`
	}{runtime.NumCPU(), runtime.GOMAXPROCS(0), clientCount(), runtime.Version(), head, opts.seed, opts.seconds, fsType(opts.scratch), nil}
	for _, r := range results {
		report.Results = append(report.Results, entry{r.Workload, r.Trace, r, r.ungated})
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(opts.out, append(b, '\n'), 0o644)
}

// benchmarkSpec is the part of BENCHMARK.json -repeat checks against.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRepeat runs the untraced pass opts.repeat times per workload, each with
// its own seed, and holds every end-to-end metric's spread (interquartile
// distance over median, as the driver computes it) to the metric's bound; the
// ungated metrics' spreads are printed beside them.
// setup_s is reported but, as in the driver, not held to its bound here: its
// bound applies to the drift between two sets of runs.
func runRepeat(opts options, stdout, stderr io.Writer) int {
	var spec benchmarkSpec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: -repeat needs BENCHMARK.json in the working directory:", err)
		return 2
	}
	code := 0
	for _, w := range opts.workloads {
		values, ungated := map[string][]float64{}, map[string][]float64{}
		for i := 0; i < opts.repeat; i++ {
			r, err := endToEnd(w, opts, opts.seed+uint64(i))
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 2
			}
			if !r.Correct {
				fmt.Fprintln(stdout, strings.Join(r.lines, "\n"))
				code = 1
			}
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
			}
			for name, m := range r.ungated {
				ungated[name] = append(ungated[name], m.Value)
			}
		}
		for _, m := range spec.EndToEnd {
			vs := values[m.Name]
			verdict := "ok"
			if sp := spread(vs); sp > m.Bound && m.Name != "setup_s" {
				verdict, code = "UNSTEADY", 1
			}
			fmt.Fprintf(stdout, "%s %s min=%v median=%v max=%v spread=%.4f bound=%v %s\n",
				w.name, m.Name, slices.Min(vs), median(vs), slices.Max(vs), spread(vs), m.Bound, verdict)
		}
		for _, name := range slices.Sorted(maps.Keys(ungated)) {
			vs := ungated[name]
			fmt.Fprintf(stdout, "%s %s min=%v median=%v max=%v spread=%.4f ungated\n",
				w.name, name, slices.Min(vs), median(vs), slices.Max(vs), spread(vs))
		}
	}
	return code
}
