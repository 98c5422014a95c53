package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"tboost/internal/core"
	"tboost/internal/stm"
)

// Read-mix sweep behind `boostbench -experiment readmix` (BENCH_PR8.json) —
// the evaluation for the multi-version read path. Two claims, two workloads:
//
//   - mix/95-5 and mix/99-1: read-dominated mixes over a 64-key hot range.
//     Every goroutine runs the same slot schedule — one write transaction
//     (add, dwell, remove: the classic lock-hold window) every 20th or 100th
//     slot, read scans of 16 consecutive hot keys in all the others. The two
//     reader disciplines differ only in the scan's transaction kind: eager
//     readers run a plain Atomic whose Contains calls demand the keys'
//     abstract locks (so they queue behind writer dwells and join deadlock
//     recovery), snapshot readers run AtomicRO against the version chains
//     and never touch the lock table. Eager cells leave versioning dormant,
//     so their writers also skip all version bookkeeping — the comparison
//     charges the snapshot discipline its full write-side cost. The
//     acceptance metric is reads/sec at eight goroutines on the 95/5 mix:
//     snapshot must beat eager by >= 3x with zero reader aborts and zero
//     reader abstract-lock demands.
//
//   - writeronly: one worker, disjoint keys, no readers — the write-side
//     overhead probe. Three variants of the same boosted set: "disabled"
//     (version table removed — the pre-multi-version baseline), "dormant"
//     (table present, no snapshot ever pinned, so the per-mutation cost is
//     one atomic load), and "active" (versioning activated by a pin that has
//     since closed, so writers seed, record, and flush version chains).
//     Variants alternate back-to-back and best-of-5 filters scheduler noise.
//     The acceptance metric is dormant/disabled ns/tx within 1.05x — pay for
//     snapshots only when something pins one. The active ratio is reported,
//     unbudgeted.
type ReadmixResult struct {
	Workload   string `json:"workload"`          // "mix/95-5", "mix/99-1", "writeronly"
	Readers    string `json:"readers,omitempty"` // "snapshot" or "eager" (mix cells)
	Variant    string `json:"variant,omitempty"` // "disabled", "dormant", "active" (writeronly cells)
	Goroutines int    `json:"goroutines"`
	Tx         int64  `json:"tx"`
	Reads      int64  `json:"reads"`
	Writes     int64  `json:"writes"`

	TxPerSec    float64 `json:"tx_per_sec"`
	ReadsPerSec float64 `json:"reads_per_sec"`
	NsPerTx     float64 `json:"ns_per_tx"`

	AbortRate float64 `json:"abort_rate"`
	Aborts    int64   `json:"aborts"`

	ROCommits         int64 `json:"ro_commits"`
	ROAborts          int64 `json:"ro_aborts"`
	ReaderLockDemands int64 `json:"reader_lock_demands"`
}

// ReadmixReport is the full sweep, serialized to BENCH_PR8.json.
type ReadmixReport struct {
	GeneratedBy string `json:"generated_by"`
	NumCPU      int    `json:"num_cpu"`
	Goroutines  []int  `json:"goroutines"`
	// SnapshotVsEagerReadsAt8 maps mix name to snapshot reads/sec divided by
	// eager reads/sec at eight goroutines. The acceptance metric: the 95-5
	// ratio must be >= 3.
	SnapshotVsEagerReadsAt8 map[string]float64 `json:"snapshot_vs_eager_reads_at_8"`
	// ReaderAbortsAt8 and ReaderLockDemandsAt8 sum the snapshot cells at
	// eight goroutines. Both must be zero: the lock-free guarantee.
	ReaderAbortsAt8      int64 `json:"reader_aborts_at_8"`
	ReaderLockDemandsAt8 int64 `json:"reader_lock_demands_at_8"`
	// WriterOnlyNsPerTx maps variant to single-worker conflict-free ns/tx.
	WriterOnlyNsPerTx map[string]float64 `json:"writer_only_ns_per_tx"`
	// WriterOnlyDormantOverhead is dormant/disabled — the acceptance metric,
	// budget 1.05x. WriterOnlyActiveOverhead is active/disabled, reported.
	WriterOnlyDormantOverhead float64         `json:"writer_only_dormant_overhead"`
	WriterOnlyActiveOverhead  float64         `json:"writer_only_active_overhead"`
	Results                   []ReadmixResult `json:"results"`
}

const (
	rmKeys      = 64                     // hot-range width (small => reader/writer overlap)
	rmScan      = 16                     // keys per read scan, ascending (wrap-free)
	rmDwell     = 100 * time.Microsecond // writer lock-hold window
	rmTimeout   = 10 * time.Millisecond  // lock budget for eager readers caught in ABBA
	rmTxPerCell = 2000                   // transactions per mix cell
	rmWriterTx  = 20000                  // transactions for the writeronly cells
)

// runReadmixCell measures one (mix, readers, goroutines) cell. mix is the
// read percentage (95 or 99); snapshot selects AtomicRO scans.
func runReadmixCell(mix int, snapshot bool, goroutines, txPerG int) ReadmixResult {
	sys := stm.NewSystem(stm.Config{LockTimeout: rmTimeout})
	s := core.NewSkipListSet()
	if snapshot {
		// Activate versioning up front; the eager cell leaves it dormant, so
		// its writers skip version bookkeeping entirely (the pre-multi-version
		// write path) and the comparison stays conservative.
		_ = sys.AtomicRO(func(tx *stm.Tx) error { return nil })
	}
	stm.MustAtomicOn(sys, func(tx *stm.Tx) {
		for k := int64(0); k < rmKeys; k += 2 {
			s.Add(tx, k)
		}
	})

	writeEvery := 100 / (100 - mix)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(g), uint64(mix)))
			for i := 0; i < txPerG; i++ {
				if i%writeEvery == 0 {
					_ = sys.Atomic(func(tx *stm.Tx) error {
						s.Add(tx, r.Int64N(rmKeys))
						time.Sleep(rmDwell)
						s.Remove(tx, r.Int64N(rmKeys))
						return nil
					})
					continue
				}
				scan := func(tx *stm.Tx) error {
					lo := r.Int64N(rmKeys - rmScan + 1)
					for j := int64(0); j < rmScan; j++ {
						s.Contains(tx, lo+j)
					}
					return nil
				}
				if snapshot {
					_ = sys.AtomicRO(scan)
				} else {
					_ = sys.Atomic(scan)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := sys.Stats()
	writesPerG := (txPerG + writeEvery - 1) / writeEvery
	writes := int64(goroutines * writesPerG)
	reads := int64(goroutines*txPerG) - writes
	readers := "eager"
	if snapshot {
		readers = "snapshot"
	}
	return ReadmixResult{
		Workload:          fmt.Sprintf("mix/%d-%d", mix, 100-mix),
		Readers:           readers,
		Goroutines:        goroutines,
		Tx:                writes + reads,
		Reads:             reads,
		Writes:            writes,
		TxPerSec:          float64(writes+reads) / elapsed.Seconds(),
		ReadsPerSec:       float64(reads) / elapsed.Seconds(),
		NsPerTx:           float64(elapsed.Nanoseconds()) / float64(writes+reads),
		AbortRate:         st.AbortRatio(),
		Aborts:            st.Aborts,
		ROCommits:         st.ROCommits,
		ROAborts:          st.ROAborts,
		ReaderLockDemands: st.ReaderLockDemands,
	}
}

// runWriterOnlyCell measures the uncontended write path in one versioning
// variant: "disabled" (no version table), "dormant" (table present, never
// activated), "active" (activated, no pin held).
func runWriterOnlyCell(variant string, txCount int) ReadmixResult {
	sys := stm.NewSystem(stm.Config{LockTimeout: rmTimeout})
	s := core.NewSkipListSet()
	switch variant {
	case "disabled":
		s.Versions().Disable()
	case "active":
		_ = sys.AtomicRO(func(tx *stm.Tx) error { return nil })
	}

	start := time.Now()
	for i := 0; i < txCount; i++ {
		k := int64(i) * 2
		_ = sys.Atomic(func(tx *stm.Tx) error {
			s.Add(tx, k)
			s.Remove(tx, k+1)
			return nil
		})
	}
	elapsed := time.Since(start)

	st := sys.Stats()
	return ReadmixResult{
		Workload:   "writeronly",
		Variant:    variant,
		Goroutines: 1,
		Tx:         int64(txCount),
		Writes:     int64(txCount),
		TxPerSec:   float64(st.Commits) / elapsed.Seconds(),
		NsPerTx:    float64(elapsed.Nanoseconds()) / float64(txCount),
		AbortRate:  st.AbortRatio(),
		Aborts:     st.Aborts,
	}
}

// ReadmixSweep runs the snapshot-vs-eager reader sweep plus the writer-only
// overhead probe. totalTx overrides the per-cell transaction budget for the
// mix cells (0 = default).
func ReadmixSweep(goroutines []int, totalTx int) ReadmixReport {
	if len(goroutines) == 0 {
		goroutines = []int{1, 2, 4, 8, 16}
	}
	if totalTx <= 0 {
		totalTx = rmTxPerCell
	}
	rep := ReadmixReport{
		GeneratedBy:             "boostbench -experiment readmix",
		NumCPU:                  runtime.NumCPU(),
		Goroutines:              goroutines,
		SnapshotVsEagerReadsAt8: map[string]float64{},
		WriterOnlyNsPerTx:       map[string]float64{},
	}
	at8 := map[string]float64{} // "mix/readers" -> reads/sec at 8 goroutines
	for _, mix := range []int{95, 99} {
		for _, snapshot := range []bool{false, true} {
			for _, g := range goroutines {
				txPerG := totalTx / g
				if txPerG == 0 {
					txPerG = 1
				}
				r := runReadmixCell(mix, snapshot, g, txPerG)
				rep.Results = append(rep.Results, r)
				if g == 8 {
					at8[r.Workload+"/"+r.Readers] = r.ReadsPerSec
					if snapshot {
						rep.ReaderAbortsAt8 += r.ROAborts
						rep.ReaderLockDemandsAt8 += r.ReaderLockDemands
					}
				}
			}
		}
	}
	for _, mixName := range []string{"mix/95-5", "mix/99-1"} {
		if e := at8[mixName+"/eager"]; e > 0 {
			rep.SnapshotVsEagerReadsAt8[mixName] = at8[mixName+"/snapshot"] / e
		}
	}

	// Writer-only probe: variants alternate back-to-back so slow host drift
	// hits each equally; best-of-5 filters scheduler noise.
	best := map[string]ReadmixResult{}
	for try := 0; try < 5; try++ {
		for _, variant := range []string{"disabled", "dormant", "active"} {
			r := runWriterOnlyCell(variant, rmWriterTx)
			if b, ok := best[variant]; !ok || r.NsPerTx < b.NsPerTx {
				best[variant] = r
			}
		}
	}
	for _, variant := range []string{"disabled", "dormant", "active"} {
		rep.Results = append(rep.Results, best[variant])
		rep.WriterOnlyNsPerTx[variant] = best[variant].NsPerTx
	}
	if d := rep.WriterOnlyNsPerTx["disabled"]; d > 0 {
		rep.WriterOnlyDormantOverhead = rep.WriterOnlyNsPerTx["dormant"] / d
		rep.WriterOnlyActiveOverhead = rep.WriterOnlyNsPerTx["active"] / d
	}
	return rep
}

// WriteJSON serializes the report, indented, to w.
func (r ReadmixReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// PrintReadmix writes the sweep as a table plus the acceptance summary.
func PrintReadmix(out io.Writer, r ReadmixReport) {
	fmt.Fprintf(out, "%-10s %-9s %-9s %3s %10s %12s %8s %7s %7s %7s\n",
		"workload", "readers", "variant", "g", "tx/sec", "reads/sec", "abort%", "roCmt", "roAbrt", "demand")
	for _, res := range r.Results {
		fmt.Fprintf(out, "%-10s %-9s %-9s %3d %10.1f %12.1f %7.1f%% %7d %7d %7d\n",
			res.Workload, res.Readers, res.Variant, res.Goroutines, res.TxPerSec,
			res.ReadsPerSec, 100*res.AbortRate, res.ROCommits, res.ROAborts, res.ReaderLockDemands)
	}
	fmt.Fprintln(out)
	for _, mixName := range []string{"mix/95-5", "mix/99-1"} {
		if ratio, ok := r.SnapshotVsEagerReadsAt8[mixName]; ok {
			fmt.Fprintf(out, "%s snapshot/eager reads at 8 goroutines %6.2fx\n", mixName, ratio)
		}
	}
	fmt.Fprintf(out, "snapshot reader aborts at 8                   %6d (must be 0)\n", r.ReaderAbortsAt8)
	fmt.Fprintf(out, "snapshot reader lock demands at 8             %6d (must be 0)\n", r.ReaderLockDemandsAt8)
	for _, variant := range []string{"disabled", "dormant", "active"} {
		if ns, ok := r.WriterOnlyNsPerTx[variant]; ok {
			fmt.Fprintf(out, "writer-only ns/tx %-9s %10.1f\n", variant, ns)
		}
	}
	if r.WriterOnlyDormantOverhead > 0 {
		fmt.Fprintf(out, "writer-only dormant/disabled ratio  %6.2fx (budget 1.05x)\n", r.WriterOnlyDormantOverhead)
	}
	if r.WriterOnlyActiveOverhead > 0 {
		fmt.Fprintf(out, "writer-only active/disabled ratio   %6.2fx (version chains maintained; unbudgeted)\n", r.WriterOnlyActiveOverhead)
	}
}
