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
// Query/RunSelect/Exec run the same pipeline with no key, which plans
// cold whatever the cache size.
package engine

import (
	"container/list"
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/sql"
)

// bumpCatalogVersion invalidates every cached plan; called from the
// apply method of each catalog-shape mutation (table DDL, instance
// registration/links, index creation and drops), so commits, WAL
// replay and snapshot load all advance the version.
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

// QueryCached is QueryCachedContext with context.Background().
func (db *DB) QueryCached(query string, params []model.Value, opts *optimizer.Options) (*Result, error) {
	return db.QueryCachedContext(context.Background(), query, params, opts)
}

// QueryCachedContext is the ad-hoc flavor of the prepared path: the
// statement cache (keyed by normalized text) supplies the parsed
// statement, so a repeated statement skips the parser as well as the
// optimizer. With no cache it parses and plans per call, same as
// QueryContext.
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
