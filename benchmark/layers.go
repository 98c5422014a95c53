package main

import (
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// layerMetrics turns one traced pass into the per-layer metrics: time sums
// and counts from the wrappers, counter deltas from the layers' own Stats().
// A metric of a layer the workload does not use is zero.
func layerMetrics(tr *tracer, res passResult) []metric {
	sum := func(k spanKind) float64 { ns, _ := tr.total(k); return ns }
	count := func(k spanKind) float64 { _, n := tr.total(k); return n }
	d := res.delta

	tx := res.writer.commits // committed writer transactions; a span is one
	calls := count(spTx) + count(spROTx) + count(spSpan)
	var retryNs, roKeys float64
	for _, ln := range tr.lanes {
		retryNs += float64(ln.retryNs.Load())
		if ln.sum[spROTx].n.Load() > 0 {
			roKeys += float64(ln.sum[spOp].n.Load())
		}
	}
	baseNs := sum(spBase) + float64(tr.replay.ns.Load())
	baseCalls := count(spBase) + float64(tr.replay.n.Load())

	return []metric{
		{"stm.begin_ns", tr.mean(spBegin), "ns"},
		{"stm.commit_self_ns", ratio(sum(spCommit)-sum(spWalAppend)-sum(spWalWait), count(spCommit)), "ns"},
		{"stm.attempts_per_commit", ratio(d[cStarts], d[cCommits]), "count"},
		{"stm.abort_ratio", ratio(d[cAborts], d[cStarts]), "ratio"},
		{"stm.aborts_lock_timeout_per_ktx", ratio(1e3*d[cAbortsLockTimeout], tx), "count"},
		{"stm.aborts_validation_per_ktx", ratio(1e3*d[cAbortsValidation], tx), "count"},
		{"stm.retry_ns_per_tx", ratio(retryNs, count(spTx)), "ns"},
		{"stm.rollback_ns", tr.mean(spRollback), "ns"},
		{"stm.ro_tx_ns", tr.mean(spROTx), "ns"},

		{"lockmgr.conflicts_per_ktx", ratio(1e3*tr.conflicts(), tx), "count"},
		{"lockmgr.wait_ns_per_tx", ratio(sum(spLockWait), tx), "ns"},
		{"lockmgr.lock_timeouts_per_ktx", ratio(1e3*d[cLockTimeouts], tx), "count"},

		{"core.op_ns", tr.mean(spOp), "ns"},
		{"core.ops_per_tx", ratio(count(spOp)+count(spRangeOp), calls), "count"},
		{"core.op_self_ns", ratio(sum(spOp)-sum(spBase), count(spOp)), "ns"},
		{"core.range_op_ns", tr.mean(spRangeOp), "ns"},

		{"base.op_ns", ratio(baseNs, baseCalls), "ns"},
		{"base.calls_per_commit", ratio(baseCalls, res.writer.commits+res.reader.commits), "count"},

		{"wal.append_ns", tr.mean(spWalAppend), "ns"},
		{"wal.wait_ns", tr.mean(spWalWait), "ns"},
		{"wal.fsyncs_per_commit", ratio(d[cWalFsyncs], d[cWalCommits]), "count"},
		{"wal.commits_per_batch", ratio(d[cWalCommits], d[cWalBatches]), "count"},
		{"wal.bytes_per_commit", ratio(d[cWalBytes], d[cWalCommits]), "B"},
		{"wal.prepare_ns", tr.mean(spWalPrepare), "ns"},
		{"wal.decide_ns", tr.mean(spWalDecide), "ns"},
		{"wal.recover_s", res.recoverS, "s"},

		{"mvcc.keys_read_per_s", roKeys / res.seconds, "1/s"},
		{"mvcc.reader_lock_demands", d[cReaderLockDemands], "count"},
		{"mvcc.ro_aborts", d[cROAborts], "count"},
		{"mvcc.versions_retained", res.after[cVersRetained], "count"},
		{"mvcc.versions_reclaimed_per_s", d[cVersReclaimed] / res.seconds, "1/s"},

		{"txncoord.branch_body_ns", tr.mean(spBranchBody), "ns"},
		{"txncoord.protocol_ns", max(0, tr.mean(spSpan)-tr.mean(spSlowBranch)-tr.mean(spWalPrepare)-tr.mean(spWalDecide)), "ns"},
		{"txncoord.fsyncs_per_span", ratio(d[cWalFsyncs]+d[cDecisionFsyncs], count(spSpan)), "count"},
		{"txncoord.decision_fsyncs_per_span", ratio(d[cDecisionFsyncs], count(spSpan)), "count"},
	}
}

// fsyncProbe is the device under the logs, measured directly: the median, in
// microseconds, of n raw 64-byte write+fsync calls on a file in dir. Drift in
// the WAL metrics that this probe shares is the disk's, not the log's.
func fsyncProbe(dir string, n int) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 64)
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return median(us), nil
}
