// Package engine is the top of the InsightNotes+ stack: a database
// facade that wires the catalog, the summarization pipeline (Naive
// Bayes, CluStream, LSA), both indexing schemes, the planner/optimizer,
// and the executor behind a small API — DDL, DML, annotation
// management, SQL queries, and zoom-in.
package engine

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/mining/bayes"
	"repro/internal/model"
	"repro/internal/mvcc"
	"repro/internal/optimizer"
	"repro/internal/pager"
	walpkg "repro/internal/wal"
)

// Config tunes a database instance.
type Config struct {
	// PageCap is the records-per-page parameter B (default 64).
	PageCap int
	// StatementTimeout bounds each query's execution when the caller's
	// context carries no deadline of its own (0 = no default timeout).
	StatementTimeout time.Duration
	// Budget is the default per-query resource-limit template (see
	// optimizer.Options.Budget); nil means unlimited.
	Budget *exec.Budget
	// MaxParallelWorkers is the default cap on intra-query parallelism
	// (see optimizer.Options.MaxParallelWorkers). 0 or 1 plans serial
	// queries only; queries can override it per statement through their
	// optimizer options.
	MaxParallelWorkers int
	// MaxBatchSize is the default row capacity of the batches a
	// statement's operators exchange (see
	// optimizer.Options.MaxBatchSize). 0 or 1 is one row per exchange —
	// tuple-at-a-time execution through the same operators; queries
	// can override it per statement through their optimizer options.
	MaxBatchSize int
	// Faults installs a deterministic pager fault-injection policy on
	// the database's I/O accountant (testing/chaos harnesses only).
	Faults *pager.FaultPolicy
	// BufferPoolPages is the buffer pool's frame budget: resident
	// storage is bounded to that many pages, and cold pages are evicted
	// to a backing store (values below pager.MinPoolFrames are raised to
	// it). 0 means no budget: every page stays resident, nothing is
	// evicted, no cache traffic is counted and BufferPool returns nil.
	BufferPoolPages int

	// WALDir, when non-empty, makes the database durable: every mutation
	// is write-ahead logged to WALDir and commits are forced with group
	// commit; engine.Open recovers the directory to its committed prefix.
	// Empty (the default) keeps the engine ephemeral: nothing is logged
	// and Result.AsOfLSN is 0. Use engine.Open, not New, to construct a
	// durable database.
	WALDir string
	// Deprecated: ignored — leader/follower commit needs no window; kept only because benchmarks/harness/target.go sets it.
	GroupCommitWindow time.Duration
	// CheckpointEveryN checkpoints the database after every N committed
	// operations, bounding log length and recovery time (0 = only
	// explicit Checkpoint calls).
	CheckpointEveryN int

	// IngestFlushOps is the flush threshold of net-delta summary
	// maintenance. AddAnnotation/AttachAnnotation log and store the
	// annotation (durability does not depend on the threshold) and put its
	// classifier/snippet/cluster maintenance and index re-keying into a
	// per-tuple delta buffer that is flushed — net effects applied once,
	// one epoch published — every IngestFlushOps buffered operations, at
	// txn commit, at checkpoint, on DB.FlushIngest, or before any read. 0
	// or 1 (the default) flushes after every operation: the same routine
	// with a one-annotation delta.
	IngestFlushOps int

	// PlanCacheSize is the capacity of the statement-hash plan cache: up
	// to that many optimized plan skeletons are kept, keyed by normalized
	// statement text, bound parameter literals and the optimizer-options
	// fingerprint, and validated against the catalog version, so a
	// prepared statement's repeated executions skip parsing and
	// optimization. Any DDL, index creation/drop, or explicit stats
	// refresh invalidates every cached plan. 0 (the default) means 256.
	// Query/RunSelect/Exec present no cache key and therefore plan cold.
	PlanCacheSize int
}

// defaultPlanCacheSize is the plan cache capacity a zero
// Config.PlanCacheSize means.
const defaultPlanCacheSize = 256

// DB is an InsightNotes+ database. Methods are safe for concurrent use:
// queries (Query, Explain, ZoomIn, Exec with SELECT/ZOOM) pin an epoch
// and run in parallel without a lock (see read); mutations (DDL, Insert,
// annotation maintenance) are exclusive.
type DB struct {
	mu   sync.RWMutex
	cat  *catalog.Catalog
	acct *pager.Accountant

	// stmtTimeout and defaultBudget are Config.StatementTimeout and
	// Config.Budget: the default per-statement deadline (0 = none) and
	// per-query resource-limit template (nil = unlimited).
	stmtTimeout   time.Duration
	defaultBudget *exec.Budget

	// maxParallel and maxBatch are Config.MaxParallelWorkers and
	// Config.MaxBatchSize, applied to queries whose options leave those
	// fields at 0.
	maxParallel, maxBatch int

	// metrics is the always-on query telemetry (see Metrics).
	metrics metricCounters

	// wal is the write-ahead log, nil when durability is off. Set once
	// by Open before the DB is shared and cleared by Close; appends
	// happen only under mu's exclusive lock (see wal.go).
	wal    *walpkg.Log
	walDir string
	// checkpointEvery mirrors Config.CheckpointEveryN; walOps counts
	// committed operations since the last checkpoint.
	checkpointEvery int
	walOps          atomic.Int64
	// fsync makes a snapshot file or its directory durable; tests
	// substitute a fake to fail it.
	fsync func(*os.File) error
	// ckptMu serializes checkpoint attempts.
	ckptMu sync.Mutex
	// nextTxID and activeTxns are guarded by mu: transaction IDs are
	// assigned under the exclusive lock, and Checkpoint reads activeTxns
	// under the shared lock to decide whether the live state equals the
	// committed prefix.
	nextTxID   uint64
	activeTxns int
	// recoveryReplayed is set by Open before the DB is shared;
	// checkpoints counts completed checkpoints.
	recoveryReplayed int64
	checkpoints      atomic.Int64

	// clock is the MVCC epoch clock queries pin snapshots on (see
	// epoch.go); mutators publish the next epoch at the end of their
	// exclusive hold.
	clock *mvcc.Clock
	// closed (under mu) makes Close idempotent and turns mutations away
	// (Txn.enter); closedA is its lock-free mirror the read path checks
	// after pinning.
	closed  bool
	closedA atomic.Bool
	// publishHook, when set before the DB is shared, observes every epoch
	// publication's LSN watermark (crash-test instrumentation).
	publishHook func(lsn uint64)
	// commitHook, when set before the DB is shared, runs in every
	// durable commit after the exclusive lock is released and before the
	// commit waits on the log (test instrumentation).
	commitHook func(lsn uint64)

	// ingest is the net-delta maintenance buffer, guarded by mu's
	// exclusive lock; ingestEvery mirrors Config.IngestFlushOps and is set
	// before the DB is shared.
	ingest      ingestBuffer
	ingestEvery int
	// ingestDirty is the lock-free "published epoch is behind the buffer"
	// flag read paths consult: set when an exclusive hold ends with ops
	// still buffered, cleared by publishLocked once the buffer has
	// drained into a published epoch.
	ingestDirty atomic.Bool
	// ingest telemetry (see IngestMetrics).
	ingestBuffered, ingestFlushes   atomic.Int64
	ingestFlushedOps, ingestPending atomic.Int64
	ingestFlushedTuples             atomic.Int64

	// planCache holds optimized plan skeletons, validated against the
	// catalog version (see prepare.go).
	planCache *optimizer.PlanCache
}

// New creates an empty, ephemeral database. Durable databases
// (Config.WALDir set) must be constructed with Open, which performs
// crash recovery; New refuses the configuration outright rather than
// silently dropping durability.
func New(cfg Config) *DB {
	if cfg.WALDir != "" {
		panic("engine: Config.WALDir is set; use engine.Open for a durable database")
	}
	return newDB(cfg, newAccountant(cfg))
}

// newAccountant builds the shared I/O accountant with the configured
// fault policy installed.
func newAccountant(cfg Config) *pager.Accountant {
	acct := &pager.Accountant{}
	if cfg.Faults != nil {
		acct.SetFaultPolicy(cfg.Faults)
	}
	return acct
}

// newDB wires a database around an existing accountant. Split from New
// so snapshot loading can retry replay attempts against one accountant
// (keeping fault-injection counters, e.g. FailFirstWrites, monotonic
// across attempts).
func newDB(cfg Config, acct *pager.Accountant) *DB {
	// Attach (or replace, when a snapshot retry rebuilds the DB on the
	// same accountant) the buffer pool before any storage exists, so
	// every heap file and index registers its pages with it.
	pager.NewBufferPool(acct, cfg.BufferPoolPages)
	// The clock must be on the accountant before any storage exists, so
	// every heap file and index self-attaches and versions its pages.
	clock := mvcc.New()
	acct.SetClock(clock)
	db := &DB{
		cat:           catalog.New(acct, cfg.PageCap),
		acct:          acct,
		stmtTimeout:   cfg.StatementTimeout,
		defaultBudget: cfg.Budget,
		clock:         clock,
		ingest:        ingestBuffer{index: make(map[int64]int)},
		ingestEvery:   cfg.IngestFlushOps,
		walDir:        cfg.WALDir,
		fsync:         (*os.File).Sync,
		maxParallel:   cfg.MaxParallelWorkers,
		maxBatch:      cfg.MaxBatchSize,

		checkpointEvery: cfg.CheckpointEveryN,
	}
	if cfg.PlanCacheSize <= 0 {
		cfg.PlanCacheSize = defaultPlanCacheSize
	}
	db.planCache = optimizer.NewPlanCache(cfg.PlanCacheSize)
	db.publishLocked() // initial empty epoch; the DB is not shared yet
	return db
}

// StatementTimeout returns the default per-statement deadline.
func (db *DB) StatementTimeout() time.Duration { return db.stmtTimeout }

// Accountant exposes the shared I/O accountant (benchmarks reset and
// read it around measured operations).
func (db *DB) Accountant() *pager.Accountant { return db.acct }

// BufferPool returns the database's buffer pool, or nil when
// Config.BufferPoolPages was 0 (no budget: all pages resident).
func (db *DB) BufferPool() *pager.BufferPool { return db.acct.Pool() }

// Close releases resources held outside the Go heap — the write-ahead
// log (flushed durable first) and the buffer pool's backing store.
// In-flight reads are drained first: new reads and mutations are turned
// away with ErrClosed, and Close blocks until every pinned epoch is
// released, so no query can touch the pool or backing store
// mid-teardown. Idempotent.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	l := db.wal
	db.wal = nil
	db.mu.Unlock()
	db.closedA.Store(true)
	db.clock.WaitIdle()
	var err error
	if l != nil {
		db.acct.SetPageLogger(nil)
		err = l.Close()
	}
	if pool := db.acct.Pool(); pool != nil {
		pool.Close()
	}
	return err
}

// Catalog exposes the metadata root (read-mostly; mutate through DB).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// ddl runs one DDL statement as an auto-committed transaction: check
// validates it against the live state under the exclusive lock, and
// only a statement that passes is recorded (and so logged and applied).
func (db *DB) ddl(op mutation, check func() error) error {
	return db.auto(func(tx *Txn) error {
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		tx.ops = append(tx.ops, op)
		return nil
	})
}

// CreateTable registers a relation.
func (db *DB) CreateTable(name string, schema *model.Schema) (*catalog.Table, error) {
	cols := append([]model.Column(nil), schema.Columns...) // the table's own copy
	err := db.ddl(&pCreateTable{Name: name, Columns: cols}, func() error {
		if _, err := db.cat.Table(name); err == nil {
			return fmt.Errorf("catalog: table %q already exists", name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cat.Table(name)
}

func (p *pCreateTable) apply(db *DB) error {
	_, err := db.cat.CreateTable(p.Name, model.NewSchema("", p.Columns...))
	return err
}

// Table resolves a relation.
func (db *DB) Table(name string) (*catalog.Table, error) { return db.cat.Table(name) }

// Insert adds a tuple, returning its OID.
func (db *DB) Insert(table string, values ...model.Value) (oid int64, err error) {
	err = db.auto(func(tx *Txn) error {
		oid, err = tx.insert(table, values)
		return err
	})
	return oid, err
}

// Insert adds a tuple within the transaction, reserving and returning
// the OID it will occupy after Commit.
func (tx *Txn) Insert(table string, values ...model.Value) (oid int64, err error) {
	err = tx.step(func() error {
		oid, err = tx.insert(table, values)
		return err
	})
	return oid, err
}

// insert validates one tuple insert and records it under the OID it
// reserves, so apply (and replay) force that OID.
func (tx *Txn) insert(table string, values []model.Value) (int64, error) {
	t, err := tx.db.cat.Table(table)
	if err != nil {
		return 0, err
	}
	if len(values) != t.Schema.Len() {
		return 0, fmt.Errorf("catalog: %s expects %d values, got %d", t.Name, t.Schema.Len(), len(values))
	}
	oid := t.PeekOID()
	tx.db.cat.SetNextOID(oid) // consume: interleaved writers must not reuse it
	if !tx.auto {
		tx.newOIDs[oid] = t
	}
	tx.ops = append(tx.ops, &pInsertTuple{Table: table, OID: oid, Values: values})
	return oid, nil
}

func (p *pInsertTuple) apply(db *DB) error {
	t, err := db.cat.Table(p.Table)
	if err != nil {
		return err
	}
	_, err = t.InsertWithOID(p.OID, p.Values)
	return err
}

// CreateDataIndex builds a standard B-Tree over a data column.
func (db *DB) CreateDataIndex(table, column string) error {
	return db.ddl(&pCreateDataIndex{Table: table, Column: column}, func() error {
		_, err := db.cat.Table(table)
		return err
	})
}

func (p *pCreateDataIndex) apply(db *DB) error {
	t, err := db.cat.Table(p.Table)
	if err != nil {
		return err
	}
	_, err = t.CreateDataIndex(p.Column)
	return err
}

// DeleteTuple removes a tuple, its summary objects, its index entries,
// and its raw annotations.
func (db *DB) DeleteTuple(table string, oid int64) error {
	return db.auto(func(tx *Txn) error { return tx.deleteTuple(table, oid) })
}

// DeleteTuple removes a tuple within the transaction.
func (tx *Txn) DeleteTuple(table string, oid int64) error {
	return tx.step(func() error { return tx.deleteTuple(table, oid) })
}

func (tx *Txn) deleteTuple(table string, oid int64) error {
	if _, err := tx.visibleTuple(table, oid); err != nil {
		return err
	}
	if !tx.auto {
		tx.delOIDs[oid] = true
	}
	tx.ops = append(tx.ops, &pDeleteTuple{Table: table, OID: oid})
	return nil
}

func (p *pDeleteTuple) apply(db *DB) error {
	t, _, err := db.tupleLoc(p.Table, p.OID)
	if err != nil {
		return err
	}
	// Flush so the summaries unwound below reflect every buffered
	// annotation. The tuple's annotations die with it: every other tuple
	// they target sheds them.
	db.flushIngestLocked()
	for _, a := range db.cat.Anns.ForTuple(p.OID) {
		db.dropAnnotation(a, p.OID)
	}
	t.Delete(p.OID)
	return nil
}

// Annotations returns the raw annotations attached to a tuple, as of
// the current epoch (nil after Close).
func (db *DB) Annotations(oid int64) (anns []*model.Annotation) {
	// The gate's only error here is ErrClosed, reported as the nil result.
	_ = db.read(context.Background(), false, func(_ context.Context, ep *dbEpoch) (int, error) {
		anns = ep.cat.Anns.ForTuple(oid)
		return 0, nil
	})
	return anns
}

// AnnotationCount returns the total number of stored annotations, as of
// the current epoch (0 after Close).
func (db *DB) AnnotationCount() (n int) {
	// The gate's only error here is ErrClosed, reported as the zero count.
	_ = db.read(context.Background(), false, func(_ context.Context, ep *dbEpoch) (int, error) {
		n = ep.cat.Anns.Len()
		return 0, nil
	})
	return n
}

// SummaryIndex returns the Summary-BTree on (table, instance), or nil.
func (db *DB) SummaryIndex(table, instance string) *index.SummaryBTree {
	db.flushIfDirty()
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cat.SummaryIndex(table, instance)
}

// BaselineIndex returns the baseline index on (table, instance), or nil.
func (db *DB) BaselineIndex(table, instance string) *index.Baseline {
	db.flushIfDirty()
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cat.BaselineIndex(table, instance)
}

// Classifier returns the trained model behind a classifier instance.
func (db *DB) Classifier(instance string) *bayes.Classifier {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cat.Classifier(instance)
}
