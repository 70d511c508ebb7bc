// Prepared statements and the plan-cached execution path.
//
// Prepare parses a SELECT once (with `?` placeholders); every
// ExecuteContext binds parameters into a fresh statement copy and runs
// through runSelectCached, which consults the optimizer.PlanCache
// keyed by (normalized text, bound parameter literals, options
// fingerprint) and validated against the catalog version. A hit skips
// building and optimizing entirely: the cached skeleton is rebound to
// the pinned epoch (plan.Rebind) and compiled. Binding parameter
// values into the key gives PostgreSQL-style custom plans — the
// optimizer's selectivity decisions see real constants, and each
// distinct constant earns its own cache slot.
//
// The classic Query/RunSelect/Exec paths never touch any of this, so
// the embedded API's behavior is unchanged.
package engine

import (
	"container/list"
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
)

// bumpCatalogVersion invalidates every cached plan; called from each
// catalog-shape mutation (table DDL, instance registration/links,
// index creation and drops) on its shared apply path, so live calls,
// transaction commits, and WAL replay all advance the version.
func (db *DB) bumpCatalogVersion() { db.catalogVersion.Add(1) }

// CatalogVersion returns the current catalog version (plan-cache
// entries created under an older version never hit).
func (db *DB) CatalogVersion() uint64 { return db.catalogVersion.Load() }

// RefreshStatistics is the explicit statistics-refresh hook: summary
// statistics are maintained incrementally, so heavy ingest can drift
// the stats a cached plan was costed under without any DDL happening.
// Calling this bumps the catalog version, invalidating every cached
// plan so the next execution re-costs its access paths against the
// current statistics.
func (db *DB) RefreshStatistics() { db.bumpCatalogVersion() }

// PlanCacheStats snapshots the plan cache telemetry (zero value when
// caching is disabled).
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
// through the plan-cached path. Parameter count must match the
// placeholder count; values are spliced as literals, so type mismatches
// surface as the same evaluation errors the literal query would raise.
func (s *Stmt) ExecuteContext(ctx context.Context, params []model.Value, opts *optimizer.Options) (*Result, error) {
	bound, err := sql.BindSelect(s.sel, params)
	if err != nil {
		return nil, err
	}
	db := s.db
	if db.planCache == nil || db.lockCoupledReads {
		// No cache (or the lock-coupled benchmark baseline): the classic
		// path already does exactly the right thing for a bound statement.
		return db.RunSelectContext(ctx, bound, opts)
	}
	key := s.text
	if len(params) > 0 {
		lits := make([]string, len(params))
		for i, p := range params {
			lits[i] = p.SQLLiteral()
		}
		key += "\x00" + strings.Join(lits, "\x01")
	}
	ctx, cancel := db.applyTimeout(ctx)
	defer cancel()
	start := time.Now()
	db.flushIfDirty()
	res, err := func() (*Result, error) {
		ep, pin, err := db.pinEpoch()
		if err != nil {
			return nil, err
		}
		defer db.clock.Unpin(pin)
		return db.runSelectCached(ctx, ep, bound, key, opts)
	}()
	rows := 0
	if res != nil {
		rows = len(res.Rows)
	}
	db.metrics.record(time.Since(start), rows, err)
	return res, err
}

// QueryCached is QueryCachedContext with context.Background().
func (db *DB) QueryCached(query string, params []model.Value, opts *optimizer.Options) (*Result, error) {
	return db.QueryCachedContext(context.Background(), query, params, opts)
}

// QueryCachedContext is the ad-hoc flavor of the prepared path: the
// statement cache (keyed by normalized text) supplies the parsed
// statement, so a repeated statement skips the parser as well as the
// optimizer. With caching disabled it degrades to parse-and-plan per
// call, same as QueryContext.
func (db *DB) QueryCachedContext(ctx context.Context, query string, params []model.Value, opts *optimizer.Options) (*Result, error) {
	st, err := db.cachedStmt(query)
	if err != nil {
		return nil, err
	}
	return st.ExecuteContext(ctx, params, opts)
}

// cachedStmt resolves a parsed statement through the statement cache.
func (db *DB) cachedStmt(query string) (*Stmt, error) {
	if db.stmts == nil {
		return db.Prepare(query)
	}
	norm := sql.Normalize(query)
	if st := db.stmts.get(norm); st != nil {
		return st, nil
	}
	st, err := db.Prepare(query)
	if err != nil {
		return nil, err
	}
	db.stmts.put(norm, st)
	return st, nil
}

// runSelectCached is runSelectResolved with the plan cache in front of
// the optimizer. The caller holds a pin on ep. EXPLAIN ANALYZE
// executions (opts.Collector set) bypass the cache: their instrumented
// plans are single-use by contract.
func (db *DB) runSelectCached(ctx context.Context, ep *dbEpoch, sel *sql.SelectStmt, key string, opts *optimizer.Options) (res *Result, err error) {
	defer recoverInto("Planner", &err)
	o := db.effectiveOptions(opts)
	if o.Collector != nil {
		r, _, e := db.runSelectResolved(ctx, ep, sel, opts)
		return r, e
	}
	fullKey := key + "\x00" + o.Fingerprint()
	version := db.catalogVersion.Load()
	env := ep.optimizerEnv(sel.Propagate)
	var optimized plan.Node
	cached := false
	if skel, ok := db.planCache.Get(fullKey, version); ok {
		// Rebind the skeleton's epoch-stamped table/index pointers to the
		// pinned epoch; a rebind failure (index dropped in a racing epoch
		// under an unchanged-looking key) falls back to a full re-plan.
		if re, rerr := plan.Rebind(skel, plan.RebindEnv{
			Table:         env.Cat.Table,
			SummaryIndex:  env.SummaryIdx,
			BaselineIndex: env.BaselineIdx,
		}); rerr == nil {
			optimized = re
			cached = true
		}
	}
	if optimized == nil {
		builder := &plan.Builder{Cat: ep.cat}
		root, resolver, berr := builder.Build(sel)
		if berr != nil {
			return nil, berr
		}
		optimized = optimizer.Optimize(root, resolver, env, o)
		db.planCache.Put(fullKey, version, optimized)
	}
	it, cerr := optimizer.Compile(optimized, env, o)
	if cerr != nil {
		return nil, cerr
	}
	if plan.IsParallel(optimized) {
		db.metrics.parallelPlans.Add(1)
	} else {
		db.metrics.serialPlans.Add(1)
	}
	qc := exec.NewQueryCtx(ctx, db.newQueryBudget(opts), optimizer.BatchCapacity(o))
	rows, err := executeGuarded(qc, it, optimized)
	if err != nil {
		return nil, err
	}
	if !sel.Propagate {
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
		AsOfLSN: ep.lsn, CachedPlan: cached}, nil
}

// stmtCache is a bounded LRU of parsed prepared statements keyed by
// normalized text. Entries are immutable (*Stmt is read-only after
// Prepare), so concurrent executions share them freely.
type stmtCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List
	entries map[string]*list.Element
}

type stmtEntry struct {
	key string
	st  *Stmt
}

func newStmtCache(capacity int) *stmtCache {
	if capacity <= 0 {
		return nil
	}
	return &stmtCache{cap: capacity, lru: list.New(), entries: make(map[string]*list.Element, capacity)}
}

func (c *stmtCache) get(key string) *Stmt {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*stmtEntry).st
}

func (c *stmtCache) put(key string, st *Stmt) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*stmtEntry).st = st
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*stmtEntry).key)
	}
	c.entries[key] = c.lru.PushFront(&stmtEntry{key: key, st: st})
}
