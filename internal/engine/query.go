package engine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
)

// Result is a query's output.
type Result struct {
	// Columns are the output column names.
	Columns []string
	// Schema is the full output schema.
	Schema *model.Schema
	// Rows are the result rows; Tuple.Summaries carries the propagated
	// annotation summaries (nil under WITHOUT SUMMARIES).
	Rows []*exec.Row
	// Plan is the optimized logical plan that produced the result.
	Plan plan.Node
	// AsOfLSN is the WAL position the result reflects: every record up
	// to it is applied, none past it is. It is the pinned epoch's LSN
	// watermark, exact by construction — a mutator appends its records
	// (commit record included) before publishing the epoch that exposes
	// their effects. Zero when the database runs without a WAL.
	AsOfLSN uint64
	// CachedPlan reports that the plan came from the plan cache (always
	// false through Query/RunSelect/Exec, which present no cache key).
	CachedPlan bool
}

// Query parses, plans, optimizes, executes one SELECT statement. opts
// may be nil for default optimization. Equivalent to QueryContext with
// context.Background() (the DB statement timeout, if set, still
// applies).
func (db *DB) Query(query string, opts *optimizer.Options) (*Result, error) {
	return db.QueryContext(context.Background(), query, opts)
}

// RunSelect plans and executes an already-parsed SELECT.
func (db *DB) RunSelect(sel *sql.SelectStmt, opts *optimizer.Options) (*Result, error) {
	return db.RunSelectContext(context.Background(), sel, opts)
}

// selectStatement runs one SELECT through the read gate as a counted
// statement. key is the statement's plan-cache key, "" to plan cold.
func (db *DB) selectStatement(ctx context.Context, sel *sql.SelectStmt, key string, opts *optimizer.Options) (res *Result, err error) {
	err = db.read(ctx, true, func(ctx context.Context, ep *dbEpoch) (int, error) {
		var rerr error
		if res, _, rerr = db.runSelect(ctx, ep, sel, key, opts); rerr != nil {
			return 0, rerr
		}
		return len(res.Rows), nil
	})
	return res, err
}

// planSelect yields the optimized plan for sel in a pinned epoch's
// planner environment, with the plan cache in front of building and
// optimizing. A hit skips both: the cached skeleton's epoch-stamped
// table/index pointers are rebound to env's epoch. What misses without
// being counted or stored: an empty key (Query/RunSelect/Exec/Explain,
// which plan cold by contract), a Collector (EXPLAIN ANALYZE's
// instrumented plans are single-use) and a database with no cache. The
// alias resolver is nil on a hit.
func (db *DB) planSelect(env *optimizer.Env, sel *sql.SelectStmt, key string, o optimizer.Options) (optimized plan.Node, resolver *plan.AliasResolver, cached bool, err error) {
	cache := db.planCache
	if key == "" || o.Collector != nil {
		cache = nil
	}
	var version uint64
	if cache != nil {
		key += "\x00" + o.Fingerprint()
		version = db.catalogVersion.Load()
		if skel, ok := cache.Get(key, version); ok {
			// Rebind fails only when a leaf's table or index does not
			// resolve by name in env's epoch: a DROP raced this
			// statement, which pinned the epoch without the object but
			// read the version from before the bump. Re-plan against
			// what exists. (Inner nodes cannot fail, and a leaf kind
			// Rebind does not know fails plan's node-table test.)
			if re, rerr := optimizer.Rebind(skel, env); rerr == nil {
				return re, nil, true, nil
			}
		}
	}
	builder := &plan.Builder{Cat: env.Cat}
	root, resolver, err := builder.Build(sel)
	if err != nil {
		return nil, nil, false, err
	}
	optimized = optimizer.Optimize(root, resolver, env, o)
	cache.Put(key, version, optimized)
	return optimized, resolver, false, nil
}

// runSelect is the one SELECT pipeline: effective options, plan (through
// planSelect), compile, execute, shape the Result. The caller holds a
// pin on ep and has layered the statement timeout onto ctx. It also
// returns the alias resolver so ExplainAnalyze can re-annotate the
// optimized plan with cost-model estimates after execution. The deferred
// recover is the planning-time backstop: cost estimation and access-path
// probing may touch index pages, so injected storage faults can surface
// before the executor's own guards are in place.
func (db *DB) runSelect(ctx context.Context, ep *dbEpoch, sel *sql.SelectStmt, key string, opts *optimizer.Options) (res *Result, resolver *plan.AliasResolver, err error) {
	defer recoverInto("Planner", &err)
	o := db.effectiveOptions(opts)
	env := ep.optimizerEnv(sel.Propagate)
	optimized, resolver, cached, err := db.planSelect(env, sel, key, o)
	if err != nil {
		return nil, nil, err
	}
	it, err := optimizer.Compile(optimized, env, o)
	if err != nil {
		return nil, resolver, err
	}
	if plan.IsParallel(optimized) {
		db.metrics.parallelPlans.Add(1)
	} else {
		db.metrics.serialPlans.Add(1)
	}
	qc := exec.NewQueryCtx(ctx, db.newQueryBudget(opts), optimizer.BatchCapacity(o))
	rows, err := executeGuarded(qc, it, optimized)
	if err != nil {
		return nil, resolver, err
	}
	if !sel.Propagate {
		// Predicates may have needed summaries internally (the compiler
		// attaches them on demand); the output contract of WITHOUT
		// SUMMARIES is summary-free rows.
		for _, row := range rows {
			row.Tuple.Summaries = nil
			row.AliasSets = nil
		}
	}
	schema := it.Schema()
	cols := make([]string, schema.Len())
	for i := range cols {
		cols[i] = schema.Col(i).Name
	}
	return &Result{Columns: cols, Schema: schema, Rows: rows, Plan: optimized,
		AsOfLSN: ep.lsn, CachedPlan: cached}, resolver, nil
}

// Explain returns the optimized logical plan as text.
func (db *DB) Explain(query string, opts *optimizer.Options) (string, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return "", fmt.Errorf("engine: Explain expects SELECT")
	}
	var text string
	err = db.read(context.Background(), false, func(_ context.Context, ep *dbEpoch) (int, error) {
		optimized, _, _, perr := db.planSelect(ep.optimizerEnv(sel.Propagate), sel, "", db.effectiveOptions(opts))
		if perr == nil {
			text = plan.Explain(optimized)
		}
		return 0, perr
	})
	return text, err
}

// effectiveOptions copies the caller's optimizer options (nil = all
// defaults) and resolves engine-level defaults: a zero
// MaxParallelWorkers inherits the DB-wide cap, and a zero MaxBatchSize
// inherits the DB-wide batch capacity.
func (db *DB) effectiveOptions(opts *optimizer.Options) optimizer.Options {
	var o optimizer.Options
	if opts != nil {
		o = *opts
	}
	if o.MaxParallelWorkers == 0 {
		o.MaxParallelWorkers = db.MaxParallelWorkers()
	}
	if o.MaxBatchSize == 0 {
		o.MaxBatchSize = db.MaxBatchSize()
	}
	return o
}

// optimizerEnv builds the planner environment from the epoch's shells,
// so planning and execution resolve every access path at the pinned
// snapshot without touching the live (mutating) structures.
func (ep *dbEpoch) optimizerEnv(propagate bool) *optimizer.Env {
	return &optimizer.Env{
		Cat:         ep.cat,
		SummaryIdx:  ep.summaryIndex,
		BaselineIdx: ep.baselineIndex,
		Annotations: ep.cat.Anns.ForTuple,
		Lookup:      ep.cat.Anns.Lookup(),
		Propagate:   propagate,
	}
}

// Exec runs any statement: SELECT returns a Result; ALTER TABLE ADD
// [INDEXABLE] / DROP manages instance links; ZOOM IN returns the raw
// annotations behind qualifying summaries (as a Result of zoom rows).
// Equivalent to ExecContext with context.Background().
func (db *DB) Exec(query string) (*Result, error) {
	return db.ExecContext(context.Background(), query)
}

// ValueStrings renders a result row's data values.
func (r *Result) ValueStrings(i int) []string {
	out := make([]string, len(r.Rows[i].Tuple.Values))
	for j, v := range r.Rows[i].Tuple.Values {
		out[j] = v.String()
	}
	return out
}

// String renders the whole result as a compact table.
func (r *Result) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns, " | "))
	b.WriteByte('\n')
	for i := range r.Rows {
		b.WriteString(strings.Join(r.ValueStrings(i), " | "))
		if s := r.Rows[i].Tuple.Summaries; len(s) > 0 {
			b.WriteString("  ")
			b.WriteString(s.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
