package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
)

// QueryError reports a statement that failed inside query execution —
// an operator error, a resource-budget violation, or a recovered panic.
// Op names the failing operator when known; Fragment is the optimized
// plan (EXPLAIN text) for diagnostics. Unwrap exposes the cause, so
// errors.Is(err, exec.ErrBudgetExceeded) and errors.As with
// *exec.OpError / *pager.FaultError keep working through the wrapper.
//
// Context cancellation and deadline expiry are NOT wrapped: those
// surface bare so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) hold at every layer.
type QueryError struct {
	Op       string
	Fragment string
	Err      error
}

func (e *QueryError) Error() string {
	if e.Op != "" {
		return fmt.Sprintf("engine: query failed in %s: %v", e.Op, e.Err)
	}
	return fmt.Sprintf("engine: query failed: %v", e.Err)
}

func (e *QueryError) Unwrap() error { return e.Err }

// QueryContext is Query with cancellation: the statement observes ctx
// between row batches and aborts with context.Canceled /
// context.DeadlineExceeded, releasing its pinned epoch and removing any
// spilled temp files. When ctx carries no deadline the DB's statement
// timeout (if configured) is applied.
func (db *DB) QueryContext(ctx context.Context, query string, opts *optimizer.Options) (*Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("engine: Query expects SELECT; use Exec for %T", stmt)
	}
	return db.RunSelectContext(ctx, sel, opts)
}

// RunSelectContext plans and executes an already-parsed SELECT under
// ctx (see QueryContext for semantics). It presents no plan-cache key,
// so the statement is built and optimized cold.
func (db *DB) RunSelectContext(ctx context.Context, sel *sql.SelectStmt, opts *optimizer.Options) (*Result, error) {
	return db.selectStatement(ctx, sel, "", opts)
}

// ExecContext is Exec with cancellation for the query-shaped statements
// (SELECT and ZOOM IN); DDL statements are brief and run to completion.
func (db *DB) ExecContext(ctx context.Context, query string) (*Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		return db.RunSelectContext(ctx, s, nil)
	case *sql.AlterStmt:
		if s.Add {
			if err := db.LinkInstance(s.Table, s.Instance, s.Indexable); err != nil {
				return nil, err
			}
		} else {
			if err := db.UnlinkInstance(s.Table, s.Instance); err != nil {
				return nil, err
			}
		}
		return &Result{}, nil
	case *sql.ZoomStmt:
		zooms, err := db.zoomContext(ctx, s)
		if err != nil {
			return nil, err
		}
		return zoomResult(zooms), nil
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// applyTimeout layers the DB's default statement timeout onto ctx when
// ctx has no deadline of its own; an explicit caller deadline wins.
func (db *DB) applyTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, has := ctx.Deadline(); has {
		return ctx, func() {}
	}
	d := db.StatementTimeout()
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// newQueryBudget snapshots the effective budget template (per-query
// override, else DB default) into a fresh accounting instance. Budgets
// carry usage counters, so sharing one instance across queries would
// leak charges between them.
func (db *DB) newQueryBudget(opts *optimizer.Options) *exec.Budget {
	tpl := db.defaultBudget.Load()
	if opts != nil && opts.Budget != nil {
		tpl = opts.Budget
	}
	if tpl == nil {
		return nil
	}
	return exec.NewBudget(tpl.MaxBufferedRows, tpl.MaxBufferedBytes, tpl.MaxSpillBytes)
}

// executeGuarded drives the physical plan to completion under a
// last-resort panic backstop. Operators already recover their own
// panics into *exec.OpError; this catches anything escaping that net
// (e.g. faults injected outside an operator's guarded section) so one
// poisoned query cannot take down the process or leave the DB locked.
func executeGuarded(qc *exec.QueryCtx, it exec.Operator, optimized plan.Node) (rows []*exec.Row, err error) {
	defer func() {
		if r := recover(); r != nil {
			cause, ok := r.(error)
			if !ok {
				cause = fmt.Errorf("panic: %v", r)
			}
			err = &QueryError{Fragment: plan.Explain(optimized), Err: cause}
		}
	}()
	rows, err = exec.Collect(qc, it)
	if err != nil {
		return nil, wrapQueryError(err, optimized)
	}
	return rows, nil
}

// wrapQueryError classifies an execution error: context errors pass
// through bare (callers match them with errors.Is), operator failures
// and budget violations gain the QueryError envelope naming the
// operator and the plan fragment.
func wrapQueryError(err error, optimized plan.Node) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	var oe *exec.OpError
	if errors.As(err, &oe) {
		return &QueryError{Op: oe.Op, Fragment: plan.Explain(optimized), Err: err}
	}
	var be *exec.BudgetError
	if errors.As(err, &be) {
		return &QueryError{Op: be.Op, Fragment: plan.Explain(optimized), Err: err}
	}
	return err
}

// recoverInto converts a panic escaping a non-iterator engine section
// (zoom's annotation fetches, snapshot scans) into an error; injected
// pager faults stay typed (*pager.FaultError) for errors.As.
func recoverInto(op string, err *error) {
	r := recover()
	if r == nil {
		return
	}
	cause, ok := r.(error)
	if !ok {
		cause = fmt.Errorf("panic: %v", r)
	}
	*err = &QueryError{Op: op, Err: cause}
}
