package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/pager"
)

// latencyBounds are the upper bounds of the query-latency histogram
// buckets; a final unbounded bucket catches everything slower.
var latencyBounds = [numLatencyBuckets - 1]time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// numLatencyBuckets includes the final unbounded overflow bucket.
const numLatencyBuckets = 6

// metricCounters is the DB's always-on query telemetry. Everything is
// atomic — queries record concurrently under the shared lock — and
// recording is a handful of adds, so the per-query overhead is noise.
type metricCounters struct {
	queries     atomic.Int64
	rows        atomic.Int64
	failures    atomic.Int64
	cancels     atomic.Int64
	budgetFails atomic.Int64
	faultFails  atomic.Int64
	queryNanos  atomic.Int64
	latency     [numLatencyBuckets]atomic.Int64

	// parallelPlans/serialPlans classify planned SELECTs by whether the
	// optimizer inserted any parallel fragment (a Gather).
	parallelPlans atomic.Int64
	serialPlans   atomic.Int64

	// snapMu makes Metrics() snapshots consistent: record holds it
	// shared while bumping its counter group, Metrics holds it exclusive
	// while loading them, so a snapshot never observes a statement's
	// histogram bucket without its query count (or vice versa).
	// Recording stays concurrent — readers of the lock only exclude the
	// snapshot, and the adds themselves remain atomics.
	snapMu sync.RWMutex
}

// record classifies one finished statement. Cancellations and deadline
// expiries count separately from hard failures; budget violations and
// injected storage faults are recognized through any wrapping layer.
func (m *metricCounters) record(d time.Duration, rows int, err error) {
	m.snapMu.RLock()
	defer m.snapMu.RUnlock()
	m.queries.Add(1)
	m.queryNanos.Add(int64(d))
	bucket := len(latencyBounds)
	for i, b := range &latencyBounds {
		if d <= b {
			bucket = i
			break
		}
	}
	m.latency[bucket].Add(1)
	if err == nil {
		m.rows.Add(int64(rows))
		return
	}
	m.failures.Add(1)
	var fe *pager.FaultError
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		m.cancels.Add(1)
	case errors.Is(err, exec.ErrBudgetExceeded):
		m.budgetFails.Add(1)
	case errors.As(err, &fe):
		m.faultFails.Add(1)
	}
}

// Metrics is an engine-level telemetry snapshot: statement counts and
// outcomes, a fixed-bucket latency histogram, and the cumulative page
// I/O of the shared accountant. The benchmark harness embeds it in its
// JSON snapshots; the shell prints it via \metrics.
type Metrics struct {
	// Queries counts executed SELECT statements (EXPLAIN ANALYZE
	// included).
	Queries int64
	// RowsReturned totals result rows of successful queries.
	RowsReturned int64
	// Failures counts statements that returned an error, including the
	// classified categories below.
	Failures int64
	// Cancellations counts context cancellations and deadline expiries.
	Cancellations int64
	// BudgetFailures counts resource-budget violations.
	BudgetFailures int64
	// FaultFailures counts injected storage faults that surfaced.
	FaultFailures int64
	// TotalQueryTime is the summed wall time of all statements.
	TotalQueryTime time.Duration
	// ParallelPlans/SerialPlans count planned SELECTs that did / did not
	// contain a parallel fragment.
	ParallelPlans int64
	SerialPlans   int64
	// LatencyBounds are the histogram buckets' inclusive upper bounds;
	// LatencyCounts has one extra final entry for the overflow bucket.
	LatencyBounds []time.Duration
	LatencyCounts []int64
	// IO is the accountant's cumulative page/node counters.
	IO pager.Stats
	// WAL is the durability telemetry; nil when the database runs
	// without a write-ahead log, so WAL-off snapshots are unchanged.
	WAL *WALMetrics `json:",omitempty"`
	// Ingest is the net-delta maintenance telemetry (always set by
	// DB.Metrics: every database buffers and flushes, at threshold 0 or 1
	// once per operation).
	Ingest *IngestMetrics `json:",omitempty"`
	// PlanCache is the plan cache telemetry (always set by DB.Metrics).
	PlanCache *optimizer.PlanCacheStats `json:",omitempty"`
	// CatalogVersion counts catalog-shape changes (DDL, index
	// creation/drops, stats refreshes); plan-cache entries are valid
	// only at the version they were optimized under.
	CatalogVersion uint64 `json:",omitempty"`
}

// WALMetrics is the durability half of the telemetry: log traffic, fsync
// amortization by group commit, and recovery/checkpoint activity.
type WALMetrics struct {
	// WALAppends counts records appended to the log.
	WALAppends int64
	// Fsyncs counts physical log syncs; group commit amortizes many
	// commits into one.
	Fsyncs int64
	// Commits counts durable commit waits served.
	Commits int64
	// GroupCommitBatches counts fsyncs that made at least one waiting
	// commit durable; GroupCommitBatchSize is the commits so released per
	// batch (1.0 means no amortization).
	GroupCommitBatches   int64
	GroupCommitBatchSize float64
	// AppendedLSN/DurableLSN are the log's current write and sync
	// horizons.
	AppendedLSN uint64
	DurableLSN  uint64
	// RecoveryReplayedRecords counts WAL records redone by the Open that
	// produced this database.
	RecoveryReplayedRecords int64
	// Checkpoints counts snapshots taken (and the log compacted) since
	// open.
	Checkpoints int64
}

// IngestMetrics is the ingest half of the telemetry: how many annotation
// operations went through the net-delta buffer, and how the flushes
// amortized them.
type IngestMetrics struct {
	// BufferedOps counts annotation adds/attaches whose summary
	// maintenance was deferred into the net-delta buffer.
	BufferedOps int64
	// Flushes counts buffer drains; FlushedOps and FlushedTuples total
	// the operations and distinct tuples they applied, so
	// FlushedOps/Flushes is the amortization factor.
	Flushes       int64
	FlushedOps    int64
	FlushedTuples int64
	// PendingOps is the number of operations currently buffered.
	PendingOps int64
}

// Metrics snapshots the engine telemetry. The snapshot is consistent
// with respect to concurrent record calls: the exclusive side of
// snapMu briefly fences out recording, so histogram buckets always sum
// to the query count (previously a snapshot could observe a
// statement's latency bucket without its totals, or vice versa).
func (db *DB) Metrics() Metrics {
	m := &db.metrics
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	out := Metrics{
		Queries:        m.queries.Load(),
		RowsReturned:   m.rows.Load(),
		Failures:       m.failures.Load(),
		Cancellations:  m.cancels.Load(),
		BudgetFailures: m.budgetFails.Load(),
		FaultFailures:  m.faultFails.Load(),
		TotalQueryTime: time.Duration(m.queryNanos.Load()),
		ParallelPlans:  m.parallelPlans.Load(),
		SerialPlans:    m.serialPlans.Load(),
		LatencyBounds:  append([]time.Duration(nil), latencyBounds[:]...),
		IO:             db.acct.Stats(),
	}
	out.LatencyCounts = make([]int64, len(m.latency))
	for i := range m.latency {
		out.LatencyCounts[i] = m.latency[i].Load()
	}
	if l := db.walLog(); l != nil {
		wm := l.Metrics()
		w := &WALMetrics{
			WALAppends:              wm.Appends,
			Fsyncs:                  wm.Fsyncs,
			Commits:                 wm.Commits,
			GroupCommitBatches:      wm.Batches,
			AppendedLSN:             wm.AppendedLSN,
			DurableLSN:              wm.DurableLSN,
			RecoveryReplayedRecords: db.recoveryReplayed,
			Checkpoints:             db.checkpoints.Load(),
		}
		if wm.Batches > 0 {
			w.GroupCommitBatchSize = float64(wm.BatchCommits) / float64(wm.Batches)
		}
		out.WAL = w
	}
	out.Ingest = &IngestMetrics{
		BufferedOps:   db.ingestBuffered.Load(),
		Flushes:       db.ingestFlushes.Load(),
		FlushedOps:    db.ingestFlushedOps.Load(),
		FlushedTuples: db.ingestFlushedTuples.Load(),
		PendingOps:    db.ingestPending.Load(),
	}
	pc := db.planCache.Stats()
	out.PlanCache = &pc
	out.CatalogVersion = db.cat.Version()
	return out
}

// String renders the snapshot as a compact multi-line report.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "queries=%d rows=%d failures=%d (cancelled=%d budget=%d faults=%d)\n",
		m.Queries, m.RowsReturned, m.Failures, m.Cancellations, m.BudgetFailures, m.FaultFailures)
	fmt.Fprintf(&b, "plans: parallel=%d serial=%d\n", m.ParallelPlans, m.SerialPlans)
	b.WriteString("latency:")
	for i, c := range m.LatencyCounts {
		if i < len(m.LatencyBounds) {
			fmt.Fprintf(&b, " <%s=%d", m.LatencyBounds[i], c)
		} else {
			fmt.Fprintf(&b, " slower=%d", c)
		}
	}
	fmt.Fprintf(&b, " total=%s\n", m.TotalQueryTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "io: %s\n", m.IO)
	// The cache line appears only when a buffer pool produced traffic, so
	// pool-off output is unchanged.
	if m.IO.CacheAccesses() > 0 {
		fmt.Fprintf(&b, "cache: %s", m.IO.CacheString())
		if acc := m.IO.CacheHits + m.IO.CacheMisses; acc > 0 {
			fmt.Fprintf(&b, " hitrate=%.1f%%", 100*float64(m.IO.CacheHits)/float64(acc))
		}
		b.WriteByte('\n')
	}
	// The wal line appears only for durable databases, so WAL-off output
	// is unchanged.
	if m.WAL != nil {
		fmt.Fprintf(&b, "wal: appends=%d fsyncs=%d commits=%d batches=%d batchsize=%.2f lsn=%d/%d replayed=%d checkpoints=%d\n",
			m.WAL.WALAppends, m.WAL.Fsyncs, m.WAL.Commits, m.WAL.GroupCommitBatches,
			m.WAL.GroupCommitBatchSize, m.WAL.DurableLSN, m.WAL.AppendedLSN,
			m.WAL.RecoveryReplayedRecords, m.WAL.Checkpoints)
	}
	if m.Ingest != nil {
		fmt.Fprintf(&b, "ingest: buffered=%d flushes=%d flushedops=%d flushedtuples=%d pending=%d\n",
			m.Ingest.BufferedOps, m.Ingest.Flushes, m.Ingest.FlushedOps,
			m.Ingest.FlushedTuples, m.Ingest.PendingOps)
	}
	if m.PlanCache != nil {
		fmt.Fprintf(&b, "plancache: hits=%d misses=%d hitrate=%.1f%% invalidations=%d evictions=%d size=%d/%d catalogversion=%d\n",
			m.PlanCache.Hits, m.PlanCache.Misses, 100*m.PlanCache.HitRate(),
			m.PlanCache.Invalidations, m.PlanCache.Evictions,
			m.PlanCache.Size, m.PlanCache.Capacity, m.CatalogVersion)
	}
	return b.String()
}
