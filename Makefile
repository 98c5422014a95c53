GO ?= go

.PHONY: build test test-race test-short test-cpu test-benchmark vet loc check fuzz-lockmgr fuzz-contention fuzz-contention-race fuzz-codec fuzz-lazy fuzz-snapshot fuzz-snapshot-race fuzz-adaptive fuzz-adaptive-race fuzz-2pc fuzz-2pc-race chaos chaos-race chaos-crash chaos-2pc bench bench-micro bench-e2e bench-pair bench-json bench-readmix bench-adaptive bench-twopc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

test-short:
	$(GO) test -short ./...

# The base objects and the kernel (mvcc and the log included: their alloc
# pins and wait protocols are scheduler-sensitive too) at one, two and four
# scheduler threads: a linearizable base is the boosting theorem's premise,
# and one that is only correct on one core (internal/cheap lost and
# duplicated items until PR 14) must not go green. -count=1 defeats the test
# cache.
test-cpu:
	$(GO) test -count=1 -cpu 1,2,4 ./internal/cheap/ ./internal/skiplist/ ./internal/deque/ ./internal/hashset/ ./internal/lockmgr/ ./internal/stm/ ./internal/mvcc/ ./internal/wal/ ./internal/boost/ ./internal/core/

vet:
	$(GO) vet ./...

# The size ROADMAP aim 2 tracks: lines of non-test Go outside benchmark/
# (and outside the benchmark's build directory).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# benchmark/ is a module of its own, so ./... above never reaches it.
test-benchmark:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# The default verification chain: build, vet, full tests, the base objects
# and the kernel again at -cpu 1,2,4, the full suite under the race detector
# (the single-owner fast path's safety argument is checked here every time),
# and two short fuzz passes: the striped interval table against the
# single-mutex reference model, and the wound-wait/detect
# contention policies against the timeout oracle. Go allows one -fuzz pattern
# per invocation, hence separate targets; fuzz-lazy differentially checks
# the lazy discipline (deferral + commit-time fusion) against the eager
# oracle on identical op programs.
check: build vet test test-cpu test-benchmark test-race fuzz-lockmgr fuzz-contention fuzz-lazy fuzz-snapshot fuzz-adaptive fuzz-2pc

fuzz-lockmgr:
	$(GO) test -run NONE -fuzz FuzzStripedRangeLockEquivalence -fuzztime 10s ./internal/lockmgr/

fuzz-contention:
	$(GO) test -run NONE -fuzz FuzzContentionPolicies -fuzztime 10s ./internal/lockmgr/

# Lazy-vs-eager equivalence: byte programs over a set, multiset, map, and
# ordered set (with nested txs and early-flushing range queries) must give
# bit-identical answers, outcomes, and final states in both disciplines.
fuzz-lazy:
	$(GO) test -run NONE -fuzz FuzzLazyEagerEquivalence -fuzztime 10s ./internal/core/

# Snapshot-consistency differential: byte programs of writers run against
# concurrent read-only snapshot scans; every scan must equal the sequential
# spec replayed to its pinned sequence number, with zero reader aborts and
# zero abstract-lock demands.
fuzz-snapshot:
	$(GO) test -run NONE -fuzz FuzzSnapshotConsistency -fuzztime 10s ./internal/core/

fuzz-snapshot-race:
	$(GO) test -race -run NONE -fuzz FuzzSnapshotConsistency -fuzztime 10s ./internal/core/

# Adaptive-vs-static equivalence: the same byte programs, with forced
# Coarse↔Keyed migrations fired between every pair of transactions, must give
# bit-identical answers and outcomes on adaptive (and lazy adaptive) objects
# as on the static-keyed reference — runtime granularity is invisible to
# sequential semantics.
fuzz-adaptive:
	$(GO) test -run NONE -fuzz FuzzAdaptiveStaticEquivalence -fuzztime 10s ./internal/core/

fuzz-adaptive-race:
	$(GO) test -race -run NONE -fuzz FuzzAdaptiveStaticEquivalence -fuzztime 120s ./internal/core/

fuzz-contention-race:
	$(GO) test -race -run NONE -fuzz FuzzContentionPolicies -fuzztime 10s ./internal/lockmgr/

# Two-phase-commit atomicity differential: byte programs of cross-System
# spans (some poisoned with injected stm faults or branch errors) against a
# sequential model that applies a span's ops iff Span succeeded — a failed
# span must leave no trace on any participant, a successful one must land
# whole on all of them. Read-only spans re-check the final state lock-free.
fuzz-2pc:
	$(GO) test -run NONE -fuzz FuzzTwoPhaseAtomicity -fuzztime 10s ./internal/txncoord/

fuzz-2pc-race:
	$(GO) test -race -run NONE -fuzz FuzzTwoPhaseAtomicity -fuzztime 120s ./internal/txncoord/

# WAL op/frame codec round-trip with one-byte corruption: a mutated frame
# must be rejected or decode identically, never to a different op stream.
fuzz-codec:
	$(GO) test -run NONE -fuzz FuzzOpCodecRoundTrip -fuzztime 10s ./internal/wal/

# One fault-injection run over the boosted set, heap, and pipeline queue with
# serializability verdicts. Exits nonzero if any history fails to verify.
chaos:
	$(GO) run ./cmd/boostbench -experiment chaos

# The chaos suite (fault schedules + the deadlock storm under all three
# contention policies) under the race detector — the scheduled robustness CI
# job runs this.
chaos-race:
	$(GO) test -race -count=1 ./internal/chaos/

# Crash matrix: kill the WAL at each named failpoint, recover, and verify
# the acknowledgment contract against the recorded history. Writes
# divergence reports to $CRASH_ARTIFACT_DIR on failure.
chaos-crash:
	$(GO) test -race -run 'TestCrashMatrix' -count=1 -v ./internal/chaos/

# Two-phase-commit crash matrix: kill a participant or the coordinator at
# each named 2PC failpoint (pre-prepare, post-prepare/pre-vote,
# pre-decision, post-decision/pre-notify, pre-commit-apply), recover the
# whole deployment, and audit span atomicity: no acknowledged span lost, no
# half-applied span, every in-doubt transaction resolved. Divergence reports
# (forensic dumps of both participant logs) land in $CRASH_ARTIFACT_DIR.
chaos-2pc:
	$(GO) test -race -run 'TestTwopcCrashMatrix' -count=1 -v ./internal/chaos/

bench:
	$(GO) test -bench . -benchtime 200ms -benchmem -run NONE ./...

# The repository's one end-to-end benchmark (benchmark/README.md), every
# workload through the tboost facade: make bench-e2e ARGS="--workload bank_wal --trace 0"
bench-e2e:
	bash benchmark/run.sh $(ARGS)

# The same benchmark on a git ref and on the working tree, ten alternating
# pairs, medians, quartiles and wins per metric:
# make bench-pair REF=HEAD~1 ARGS="--workload bank_mem --trace 0"
bench-pair:
	bash scripts/benchpair.sh $(REF) $(ARGS)

# Hot-path microbenchmarks only (Tx lifecycle, lock acquire, boosted set ops)
# with allocation counts.
bench-micro:
	$(GO) test -bench 'TxLifecycle|LockAcquire|BoostedSet|OrderedSet' -benchmem -run NONE ./internal/bench/

# Reproducible perf trajectory points: sweeps the hot-path microbenchmarks at
# 1-16 goroutines, legacy (pre-overhaul) and fast-path variants in the same
# run (BENCH_PR2.json), then the interval-lock sweep — legacy single-mutex vs
# striped range table over disjoint and overlapping transactional workloads
# (BENCH_PR4.json). Deterministic workloads (fixed key hashing, no PRNG);
# GOMAXPROCS pinned for run-to-run comparability.
bench-json:
	GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)} \
		$(GO) run ./cmd/boostbench -experiment benchjson \
		-threads 1,2,4,8,16 -json-out BENCH_PR2.json
	GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)} \
		$(GO) run ./cmd/boostbench -experiment rangemix \
		-threads 1,2,4,8,16 -json-out BENCH_PR4.json

# Multi-version read path: snapshot vs eager readers on 95/5 and 99/1
# hot-range mixes at 1-16 goroutines, plus the writer-only version-overhead
# probe (BENCH_PR8.json).
bench-readmix:
	GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)} \
		$(GO) run ./cmd/boostbench -experiment readmix \
		-threads 1,2,4,8,16 -json-out BENCH_PR8.json

# Two-phase-commit evaluation: span commit cost (ns/tx and fsyncs/tx vs a
# one-System durable transaction) and read-only-span throughput vs locked
# cross-System reads under writer pressure (BENCH_PR10.json). Exits nonzero
# if read-only spans demanded any abstract lock or aborted.
bench-twopc:
	GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)} \
		$(GO) run ./cmd/boostbench -experiment twopc \
		-json-out BENCH_PR10.json

# Adaptive granularity sweep: static-coarse vs static-keyed vs adaptive over
# uniform and zipf-hot-key skews at 1-8 goroutines (BENCH_PR9.json). The
# acceptance summary at the bottom checks adaptive tracks the better static
# within 10% in every cell and beats static-coarse >= 1.5x where keyed wins.
bench-adaptive:
	GOMAXPROCS=$${GOMAXPROCS:-$$(nproc)} \
		$(GO) run ./cmd/boostbench -experiment adaptive \
		-json-out BENCH_PR9.json
