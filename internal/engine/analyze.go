package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/pager"
	"repro/internal/sql"
)

// AnalyzedPlan is the output of EXPLAIN ANALYZE: the query's result plus
// the optimized plan tree annotated with cost-model estimates and the
// per-operator runtime stats recorded during this execution.
type AnalyzedPlan struct {
	// Result is the executed query's full output (EXPLAIN ANALYZE runs
	// the statement for real).
	Result *Result
	// Root is the annotated plan tree (estimates + actuals per node).
	Root *optimizer.AnalyzedNode
	// Wall is the end-to-end statement time: parse-to-last-row, including
	// planning.
	Wall time.Duration
	// IO is the whole-statement page/node delta on the shared accountant.
	// Under concurrent queries it may include a neighbor's traffic — the
	// accountant is engine-wide, as are the per-operator deltas.
	IO pager.Stats
}

// String renders the annotated plan tree followed by an execution
// footer, in the spirit of Postgres's EXPLAIN ANALYZE output.
func (p *AnalyzedPlan) String() string {
	footer := fmt.Sprintf("Execution: rows=%d time=%s io=%s",
		len(p.Result.Rows), p.Wall.Round(time.Microsecond), p.IO)
	if p.IO.CacheAccesses() > 0 {
		footer += " cache=" + p.IO.CacheString()
	}
	return p.Root.String() + footer + "\n"
}

// ExplainAnalyze executes one SELECT with per-operator instrumentation
// and returns the annotated plan. Equivalent to ExplainAnalyzeContext
// with context.Background().
func (db *DB) ExplainAnalyze(query string, opts *optimizer.Options) (*AnalyzedPlan, error) {
	return db.ExplainAnalyzeContext(context.Background(), query, opts)
}

// ExplainAnalyzeContext parses, plans, and EXECUTES the statement with a
// stats collector attached: every compiled operator is wrapped in a
// recorder measuring rows, Next calls, wall time, accountant I/O deltas,
// and buffering/spill charges. The plain query path pays none of this —
// recorders exist only when a collector is installed. Cancellation,
// statement timeouts, budgets, and fault isolation behave exactly as in
// QueryContext.
func (db *DB) ExplainAnalyzeContext(ctx context.Context, query string, opts *optimizer.Options) (*AnalyzedPlan, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("engine: EXPLAIN ANALYZE expects SELECT, got %T", stmt)
	}
	var o optimizer.Options
	if opts != nil {
		o = *opts
	}
	o.Collector = exec.NewStatsCollector(db.acct)

	ap := &AnalyzedPlan{}
	start := time.Now()
	err = db.read(ctx, true, func(ctx context.Context, ep *dbEpoch) (int, error) {
		io0 := db.acct.Stats()
		res, resolver, rerr := db.runSelect(ctx, ep, sel, "", &o)
		ap.IO = db.acct.Stats().Sub(io0)
		if rerr != nil {
			return 0, rerr
		}
		ap.Result = res
		ap.Root = optimizer.Annotate(res.Plan, resolver, ep.optimizerEnv(sel.Propagate), o)
		return len(res.Rows), nil
	})
	if err != nil {
		return nil, err
	}
	ap.Wall = time.Since(start)
	return ap, nil
}
