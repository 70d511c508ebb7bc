// Prepared statements: the entry points that present a plan-cache key.
//
// Prepare parses a SELECT once (with `?` placeholders); every
// ExecuteContext binds parameters into a fresh statement copy and runs
// it through the one SELECT pipeline (runSelect) with the key
// (normalized text, bound parameter literals), to which planSelect adds
// the options fingerprint before consulting the optimizer.PlanCache,
// validated against the catalog version. A hit skips building and
// optimizing entirely: the cached skeleton is rebound to the pinned
// epoch (plan.Rebind) and compiled. Binding parameter values into the
// key gives PostgreSQL-style custom plans — the optimizer's selectivity
// decisions see real constants, and each distinct constant earns its
// own cache slot.
//
// This is the one keyed path: two Prepares of the same normalized text
// share their plans. Query/RunSelect/Exec run the same pipeline with no
// key, which plans cold.
package engine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/sql"
)

// CatalogVersion returns the current catalog version (plan-cache
// entries created under an older version never hit). The catalog's own
// shape-changing methods advance it, so commits, WAL replay and
// snapshot load all do.
func (db *DB) CatalogVersion() uint64 { return db.cat.Version() }

// RefreshStatistics is the explicit statistics-refresh hook: summary
// statistics are maintained incrementally, so heavy ingest can drift
// the stats a cached plan was costed under without any DDL happening.
// Calling this bumps the catalog version, invalidating every cached
// plan so the next execution re-costs its access paths against the
// current statistics.
func (db *DB) RefreshStatistics() { db.cat.Invalidate() }

// PlanCacheStats snapshots the plan cache telemetry.
func (db *DB) PlanCacheStats() optimizer.PlanCacheStats { return db.planCache.Stats() }

// Stmt is a prepared SELECT: parsed once, executable many times with
// different parameters, concurrently. Statements remain valid across
// DDL — they hold no plan, only the parsed text; plans are looked up
// (and invalidated) per execution.
type Stmt struct {
	db      *DB
	sel     *sql.SelectStmt
	text    string // normalized statement text
	nParams int
}

// Prepare parses a SELECT statement containing `?` placeholders for
// later execution. Non-SELECT statements are rejected: DDL is brief
// and unparameterized, so preparing it buys nothing.
func (db *DB) Prepare(query string) (*Stmt, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("engine: Prepare expects SELECT, got %T", stmt)
	}
	return &Stmt{db: db, sel: sel, text: sql.Normalize(query), nParams: sql.CountPlaceholders(sel)}, nil
}

// NumParams returns the number of `?` placeholders.
func (s *Stmt) NumParams() int { return s.nParams }

// Text returns the normalized statement text.
func (s *Stmt) Text() string { return s.text }

// Execute is ExecuteContext with context.Background().
func (s *Stmt) Execute(params []model.Value, opts *optimizer.Options) (*Result, error) {
	return s.ExecuteContext(context.Background(), params, opts)
}

// ExecuteContext binds params into the prepared statement and runs it
// with its plan-cache key. Parameter count must match the placeholder
// count; values are spliced as literals, so type mismatches surface as
// the same evaluation errors the literal query would raise.
func (s *Stmt) ExecuteContext(ctx context.Context, params []model.Value, opts *optimizer.Options) (*Result, error) {
	bound, err := sql.BindSelect(s.sel, params)
	if err != nil {
		return nil, err
	}
	key := s.text
	if len(params) > 0 {
		lits := make([]string, len(params))
		for i, p := range params {
			lits[i] = p.SQLLiteral()
		}
		key += "\x00" + strings.Join(lits, "\x01")
	}
	return s.db.selectStatement(ctx, bound, key, opts)
}
