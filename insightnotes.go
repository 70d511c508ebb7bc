// Package insightnotes is the public API of a from-scratch Go
// reproduction of InsightNotes+ — "Elevating Annotation Summaries To
// First-Class Citizens In InsightNotes" (EDBT 2015). It is a
// summary-based annotation management engine embedded in a small
// relational database: raw annotations attached to tuples are mined into
// concise summary objects (classifier, snippet, and cluster summaries),
// which propagate through queries and — the paper's contribution — can
// themselves be selected, filtered, joined, and sorted on, accelerated
// by a dedicated Summary-BTree index and an extended query optimizer.
//
// A minimal session:
//
//	db := insightnotes.Open(insightnotes.Config{})
//	db.CreateTable("Birds", insightnotes.NewSchema("",
//		insightnotes.Column{Name: "id", Kind: insightnotes.KindInt},
//		insightnotes.Column{Name: "name", Kind: insightnotes.KindText}))
//	db.DefineClassifier("ClassBird1",
//		[]string{"Disease", "Other"}, training)
//	db.Exec("ALTER TABLE Birds ADD INDEXABLE ClassBird1")
//	oid, _ := db.Insert("Birds", insightnotes.Int(1), insightnotes.Text("Swan Goose"))
//	db.AddAnnotation("Birds", oid, "shows infection symptoms", nil, "alice")
//	res, _ := db.Query(`SELECT name FROM Birds r
//	    WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 0`, nil)
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-versus-measured reproduction results.
package insightnotes

import (
	"io"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/pager"
)

// DB is an InsightNotes+ database instance. See the engine methods:
// CreateTable, Insert, AddAnnotation, DefineClassifier / DefineSnippet /
// DefineCluster, Query, Exec (SELECT / ALTER TABLE / ZOOM IN), Prepare /
// QueryCached (plan-cached execution), Explain, ExplainAnalyze, Metrics,
// PlanCacheStats, and ZoomIn.
type DB = engine.DB

// Config tunes a database instance.
type Config = engine.Config

// Open creates an empty in-memory database. cfg.WALDir must be empty;
// use OpenDurable for a write-ahead-logged database.
func Open(cfg Config) *DB { return engine.New(cfg) }

// OpenDurable opens (or creates) a durable database rooted at
// cfg.WALDir: every mutation is appended to a checksummed write-ahead
// log before it is applied, commits are made durable by group commit,
// and reopening after a crash recovers exactly the committed prefix
// (ARIES-lite redo from the last checkpoint, torn log tails
// truncated). DB.Close flushes and closes the log; DB.Checkpoint
// snapshots the database and compacts the log. A Txn from DB.Begin
// groups mutations into one atomic, durable unit.
func OpenDurable(cfg Config) (*DB, error) { return engine.Open(cfg) }

// Txn is an explicit transaction handle from DB.Begin: its mutations
// are validated immediately but buffered, becoming visible, durable,
// and atomic together at Commit; Rollback discards the buffer without
// a trace (checkpointing stays available — only the reserved IDs stay
// consumed).
type Txn = engine.Txn

// Load reconstructs a database from a snapshot written by DB.Save. The
// snapshot is a logical dump (schemas, instances, trained models,
// tuples, annotations, index declarations, identifier watermarks);
// loading replays it through the engine's apply paths, re-deriving
// summaries, statistics, and indexes deterministically under the OIDs
// and annotation IDs the dump recorded. Transient storage faults during replay
// are absorbed by bounded retry with backoff (engine.SnapshotRetry).
func Load(r io.Reader) (*DB, error) { return engine.Load(r) }

// LoadWithConfig is Load with an explicit configuration (statement
// timeout, default budget, fault policy) for the reconstructed
// database.
func LoadWithConfig(r io.Reader, cfg Config) (*DB, error) { return engine.LoadWithConfig(r, cfg) }

// Options steers the optimizer per query; the zero value enables all
// optimizations. The knobs mirror the paper's ablations: Disable (no
// rewrites), NoSummaryIndex, UseBaseline, BaselineReconstruct,
// ConventionalPointers, ForceJoin ("nl"/"index"/"hash"), ForceSort
// ("mem"/"disk"). Budget attaches a per-query resource limit.
type Options = optimizer.Options

// Budget is a per-query resource-limit template: pipeline breakers
// (Sort, HashJoin, GroupBy, Distinct) charge buffered rows/bytes and
// sort-spill bytes against it. Sort degrades gracefully (spills
// earlier); hash-based operators fail fast with ErrBudgetExceeded.
// Install one per query via Options.Budget or database-wide via
// Config.Budget / DB.SetDefaultBudget.
type Budget = exec.Budget

// NewBudget builds a budget; zero fields are unlimited.
func NewBudget(maxBufferedRows, maxBufferedBytes, maxSpillBytes int64) *Budget {
	return exec.NewBudget(maxBufferedRows, maxBufferedBytes, maxSpillBytes)
}

// Stmt is a prepared statement from DB.Prepare: a parameterized SELECT
// (`?` placeholders) parsed once and re-executed with fresh parameters
// via Execute / ExecuteContext. Executions go through the engine's
// statement-hash plan cache (Config.PlanCacheSize), so repeated
// executions with recurring parameter values skip parsing, plan
// construction, and optimization; cached plans are invalidated
// automatically when DDL, index creation, or a statistics refresh bumps
// the catalog version. Stmt is safe for concurrent use.
type Stmt = engine.Stmt

// PlanCacheStats is the plan cache's counter snapshot from
// DB.PlanCacheStats (also embedded in Metrics): hits, misses,
// staleness invalidations, capacity evictions, and current size.
type PlanCacheStats = optimizer.PlanCacheStats

// ErrClosed is the sentinel every entry point reports (wrapped, test
// with errors.Is) once Close has begun; in-flight queries admitted
// before Close either complete normally or fail with it.
var ErrClosed = engine.ErrClosed

// ErrBudgetExceeded is the sentinel wrapped by every budget violation;
// match with errors.Is.
var ErrBudgetExceeded = exec.ErrBudgetExceeded

// QueryError reports a statement that failed inside execution: it
// names the failing operator and carries the optimized plan fragment.
// Context cancellation is never wrapped in a QueryError.
type QueryError = engine.QueryError

// FaultPolicy configures deterministic storage-fault injection (see
// Config.Faults and the pager package); FaultError is the typed error
// every injected fault surfaces as.
type FaultPolicy = pager.FaultPolicy

// FaultError is a single injected storage fault.
type FaultError = pager.FaultError

// Result is a query result; Rows carry data values and the propagated
// summary sets.
type Result = engine.Result

// AnalyzedPlan is the output of DB.ExplainAnalyze / ExplainAnalyzeContext:
// the executed query's result plus the optimized plan tree annotated
// with cost-model estimates and measured per-operator runtime stats
// (rows, Next calls, wall time, page/node I/O, buffering and spill).
// Its String method renders the EXPLAIN ANALYZE report.
type AnalyzedPlan = engine.AnalyzedPlan

// OpStats is one operator's measured runtime counters inside an
// AnalyzedPlan.
type OpStats = exec.OpStats

// Metrics is the engine-level telemetry snapshot returned by DB.Metrics:
// statement counts and outcomes (cancellations, budget violations,
// injected faults), a latency histogram, and cumulative page/node I/O.
type Metrics = engine.Metrics

// ZoomResult is one tuple's zoom-in answer.
type ZoomResult = engine.ZoomResult

// Value is a dynamically typed relational value.
type Value = model.Value

// Schema describes a relation's columns.
type Schema = model.Schema

// Column is one attribute definition.
type Column = model.Column

// Kind enumerates value types.
type Kind = model.Kind

// Value kinds.
const (
	KindNull  = model.KindNull
	KindInt   = model.KindInt
	KindFloat = model.KindFloat
	KindText  = model.KindText
	KindBool  = model.KindBool
)

// NewSchema builds a schema whose columns share one qualifier.
func NewSchema(qualifier string, cols ...Column) *Schema {
	return model.NewSchema(qualifier, cols...)
}

// Int builds an INT value.
func Int(i int64) Value { return model.NewInt(i) }

// Float builds a FLOAT value.
func Float(f float64) Value { return model.NewFloat(f) }

// Text builds a TEXT value.
func Text(s string) Value { return model.NewText(s) }

// Bool builds a BOOL value.
func Bool(b bool) Value { return model.NewBool(b) }

// Null builds the NULL value.
func Null() Value { return model.Null() }

// Annotation is a raw annotation record.
type Annotation = model.Annotation

// SummarySet is the set of summary objects attached to a tuple (the $
// variable).
type SummarySet = model.SummarySet

// SummaryObject is one summary object (classifier, snippet, or cluster).
type SummaryObject = model.SummaryObject
