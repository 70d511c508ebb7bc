GO ?= go

.PHONY: check fmt nogob runlists build vet test race race-core bench-harness flake-sweep loc bench-smoke recovery-torture mvcc-stress ingest-stress serve-stress vector-stress fuzz-smoke

# check is the full CI gate: formatting, one encoding, every -run filter
# naming real tests, static analysis, a clean build, the test suite
# under the race detector, and the benchmark harness (its own module, so
# none of the above reaches it).
check: fmt nogob runlists vet build race race-core bench-harness

# fmt fails when any Go file in the tree (benchmarks/ included) is not
# gofmt-clean, naming the files.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# nogob fails when a package of this module imports encoding/gob outside
# its tests, naming it: everything the engine stores, spills, logs and
# snapshots is in the one cell encoding (internal/cell). benchmarks/ is
# its own module and not listed.
nogob:
	@! $(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep -w 'encoding/gob'

# runlists fails when an alternative of any -run filter in this Makefile
# or in .github/workflows/ci.yml matches no test of the packages its
# command names (go test -list), so a renamed or deleted test cannot
# silently turn a stress leg into a no-op.
runlists:
	@GO=$(GO) bash scripts/runlists.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-core focuses the race detector on the layers that share a buffer
# pool across parallel scan workers and the page store under them
# (snapshot readers against the copy-on-write writer, in pager, heap and
# btree) and the log's leader/follower sync routine (wal), with extra
# iterations on the page-partitioned parallel index fetch, the pool's
# miss protocol (a second reader waits on the first one's load, a failed
# load wakes its waiters) and the lock-free epoch readers. CI's race job
# runs this target.
race-core:
	$(GO) test -race ./internal/model/... ./internal/engine/... ./internal/exec/... ./internal/pager/... ./internal/heap/... ./internal/btree/... ./internal/wal/...
	$(GO) test -race -count=4 -run 'TestParallelSortedFetchMatchesSerial|TestSummaryIndexScanPartitionedConcatenation|TestStoreConcurrentMissReadsOnce|TestStoreFailedMissWakesWaiters' ./internal/engine/... ./internal/exec/... ./internal/pager/
	$(GO) test -race -count=2 -run 'TestEpochReaderStress' ./internal/engine/

# bench-harness compiles and smoke-tests benchmarks/ against this
# checkout's exec/optimizer/engine surface. benchmarks/ is a separate
# module (replace repro => ../), so the root vet/build/test never build
# benchmarks/harness/target.go; this is the gate that does (< 10 s).
bench-harness:
	$(GO) -C benchmarks vet ./...
	$(GO) -C benchmarks test ./...

# flake-sweep reruns the packages whose tests coordinate goroutines by
# hand — the MVCC clock and the executor's parallel operators — 20
# times at 1, 2 and 8 scheduler threads: tier-1 must be green on any
# core count, and a 2-core box is where ordering assumptions break. The
# exec package carries the serial-vs-parallel GROUP BY and the DISTINCT
# summary-merge differentials (TestParallelGroupByMatchesSerial,
# TestDistinctMergesAllSummaryTypes); the model line reruns the property
# tests they rest on — partial accumulators merged in order equal the
# serial fold. The pager line reruns the versioned page store's tests,
# whose readers race the writer through epoch publication, pruning and
# deferred reclamation. The heap/btree line reruns their pooled tests:
# pins live in the stores' slots and the pool evicts under the store's
# lock, so readers, the writer's copy-on-write and eviction meet there.
# The wal line reruns the log's tests, which hold an fsync in flight and
# queue committers, a Flush, Compact or Close behind it by hand.
flake-sweep:
	$(GO) test -count=20 -cpu 1,2,8 ./internal/mvcc ./internal/exec
	$(GO) test -count=20 -cpu 1,2,8 -run 'TestStore' ./internal/pager
	$(GO) test -count=20 -cpu 1,2,8 -run 'TestPooled|TestRawPageReadersVersusClone|TestViewUnaffectedByLaterMutations' ./internal/heap ./internal/btree
	$(GO) test -count=20 -cpu 1,2,8 -run 'TestAccumulator|TestClusterRepresentativeIndependentOfGrouping' ./internal/model
	$(GO) test -count=20 -cpu 1,2,8 ./internal/wal

# loc prints the non-test Go line count of every package (*_test.go
# excluded; benchmarks/ is its own module and is excluded too), so a
# "this PR deletes a path" claim is a number anyone can reproduce. The
# last line sums the storage layers (pager, heap, btree), the figure
# ROADMAP item 2 bounds; it is informational, not a gate.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1 } END { for (d in n) printf "%7d %s\n", n[d], d }' \
		| sort -k2 \
		| awk '{ print; t += $$1 } $$2 ~ /^\.\/internal\/(pager|heap|btree)$$/ { s += $$1 } END { printf "%7d total\n%7d pager+heap+btree\n", t, s }'

# bench-smoke regenerates one representative figure, the two rule
# figures (14, 15: each fails unless EXPLAIN shows the plan its contrast
# rests on), and the parallel speedup, buffer-pool, fetch-path, ingest,
# server and batch-capacity figures at the reduced quick scale,
# enforcing each figure's shape gate. The performance trajectory is
# benchmarks/ (see BENCHMARK.json), not a snapshot of this run.
bench-smoke:
	$(GO) run ./cmd/benchreport -quick -fig 10,14,15,17,18,19,22,23,24

# recovery-torture runs the WAL crash matrix: the mixed workload's log is
# cut at every record boundary (and inside every record) and each prefix
# is recovered and compared against a committed-prefix oracle; the
# mutation-pipeline suite (the same workload by auto-commit, transaction,
# log recovery and Save/Load must agree; nothing is applied after Close;
# a rejected call logs nothing); plus the concurrent group-commit stress
# and the readers-beside-a-parked-committer check under the race
# detector.
recovery-torture:
	$(GO) test -count=1 -run 'TestRecoveryTortureEveryBoundary|TestReopenDurability|TestCheckpointBoundsRecovery|TestMutationRoutesEquivalent|TestMutationsAfterCloseRefused|TestRejectedCallsWriteNoLogRecords' ./internal/engine/
	$(GO) test -race -count=2 -run 'TestWALGroupCommitRaceStress|TestReadersNotBlockedByCommitWait' ./internal/engine/

# mvcc-stress hammers the copy-on-write epoch machinery under the race
# detector: 8 lock-free readers against concurrent transactions with
# rollbacks and automatic checkpoints, Close racing in-flight queries,
# and the rollback-then-checkpoint regression.
mvcc-stress:
	$(GO) test -race -count=2 -run 'TestEpochReaderStress|TestCloseUnderLoad|TestRollbackThenCheckpoint' ./internal/engine/

# ingest-stress hammers the net-delta ingest buffer under the race
# detector: concurrent annotation writers against lock-free epoch
# readers (which force flush-on-demand through the dirty flag) and
# explicit flush/checkpoint calls, plus the
# per-op vs net-delta differential against the per-annotation oracle,
# the every-gate visibility check, the WAL-recovery identity suite, the
# maintained-versus-rebuilt index and statistics oracle, and the
# unlink-strips-the-instance check.
ingest-stress:
	$(GO) test -race -count=2 -run 'TestIngestConcurrentStress' ./internal/engine/
	$(GO) test -race -count=1 -run 'TestIngestPerOpNetDeltaIdentity|TestReadGateSeesBufferedAnnotation|TestIngestWALStreamAndRecovery|TestAttachDeleteReattachLifecycle|TestMaintainedSummaryStateEqualsRebuild|TestUnlinkDropsInstanceSummaries' ./internal/engine/

# serve-stress hammers the HTTP front-end under the race detector:
# concurrent sessions with shared prepared statements, per-tenant
# admission shedding over real connections, graceful-drain vs in-flight
# requests, plus the engine-side lifecycle suite (Metrics consistency vs
# 8 query goroutines, shared prepared statements, plan-cache staleness
# across DDL), and a small mixed read/ingest run of the Figure 23
# server benchmark.
serve-stress:
	$(GO) test -race -count=2 ./internal/server/
	$(GO) test -race -count=2 -run 'TestMetricsSnapshotConsistency|TestPreparedConcurrentExecutions|TestPlanCacheStaleness' ./internal/engine/
	$(GO) test -race -count=1 -run 'TestFig23Smoke' ./internal/bench/

# vector-stress exercises the batch exchange end to end under the race
# detector: the capacity-invariance differential (every operator ×
# capacities 1/2/3/7/1024 × 1 and 4 workers) and its exec-level twin,
# batches crossing the parallel Gather exchange from 4 query
# goroutines, mid-batch cancellation latency, batch release on every
# breaker failure path, the summary fetch placed above the data filter
# at every worker count and capacity, a joined row spilling one summary
# set and a join rejecting pairs without allocating, the summary
# renderer against its fmt reference and its allocation guard, the
# per-row allocation budget, a LIMIT's row goal stopping its leaf (and
# dropped under a breaker or a Gather), literal call arguments bound
# once, and the Figure 24 smoke run with its two enforced bounds on
# the headline scan.
vector-stress:
	$(GO) test -race -count=1 -run 'TestVectorized|TestBatch|TestTransformBatch|TestCollectPreservesRowIdentity|TestOperatorsCapacityInvariant|TestMidBatchCancellationStopsWithinOneBatch|TestBreakersReleaseBatchesOnFailure|TestSummariesAttachedAfterDataFilter|TestJoinOutputSpillsOneSummarySet|TestJoinProbeRejectedPairsAllocateNothing|TestLimitRowGoalStopsTheLeaf|TestLiteralArgumentsBoundOnce' ./internal/engine/ ./internal/exec/
	$(GO) test -race -count=1 -run 'TestSummaryStringMatchesFmt|TestSummaryStringAllocs|TestRepresentativeCutKeepsRunes' ./internal/model/
	$(GO) test -race -count=1 -run 'TestVectorizedAllocBudget' .
	$(GO) test -race -count=1 -run 'TestFig24Smoke' ./internal/bench/

# fuzz-smoke fuzzes each decoder of stored bytes for 30 s, starting from
# the seed corpora under its package's testdata/fuzz: the cell decoders
# (rows, summary sets, annotations), the heap page image with its slot
# directory, the B-Tree node image, the log record decoder and the
# snapshot loader. Arbitrary bytes must yield a typed error, never a
# panic, and whatever decodes must re-encode byte-identically. The last
# leg fuzzes the optimizer for 30 s: from a seed, a random query over
# two or three tables joined in WHERE or by JOIN … ON must return the
# same rows and summary sets under every plan configuration.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCellDecode$$' -fuzztime 30s ./internal/model
	$(GO) test -run '^$$' -fuzz '^FuzzHeapPageImage$$' -fuzztime 30s ./internal/heap
	$(GO) test -run '^$$' -fuzz '^FuzzNodeImage$$' -fuzztime 30s ./internal/btree
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 30s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 30s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzPlanEquivalence$$' -fuzztime 30s ./internal/optimizer
