// Package server is the HTTP/JSON front-end over the embedded engine:
// connection sessions with parameterized prepared statements
// (PREPARE/EXECUTE over the engine's plan-cached path), per-tenant
// admission control (slot semaphore + bounded wait queue shedding load
// with typed 429 errors), and a /metrics endpoint exposing the engine
// snapshot, plan-cache counters, and per-tenant admission telemetry.
//
// The server is a plain http.Handler; cmd/insightnotesd wraps it in an
// http.Server. Close drains in-flight requests before returning, so a
// caller can Close the server and then the DB without racing statements
// against engine shutdown.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/optimizer"
)

// Config assembles a Server.
type Config struct {
	// DB is the engine instance to serve; required. Enable
	// engine.Config.PlanCacheSize to give prepared statements a plan
	// cache — the server works either way.
	DB *engine.DB
	// SessionTimeout expires idle sessions; default 5 minutes.
	SessionTimeout time.Duration
	// SessionSweepInterval is the expiry janitor's period; default
	// SessionTimeout/4.
	SessionSweepInterval time.Duration
	// DefaultTenant is the admission policy for tenants without an
	// explicit entry in Tenants. Zero value = unlimited.
	DefaultTenant TenantConfig
	// Tenants maps tenant names to their admission policies.
	Tenants map[string]TenantConfig
}

// Server is the HTTP front-end. Create with New, serve via ServeHTTP
// (it is an http.Handler), stop with Close.
type Server struct {
	db        *engine.DB
	sessions  *sessionTable
	admission *admission
	mux       *http.ServeMux

	// drainMu orders admission against Close: ServeHTTP checks closed and
	// joins inflight under its shared side, Close flips closed under the
	// exclusive side, so no inflight.Add can run concurrently with the
	// Wait that follows (a WaitGroup forbids an Add from zero racing Wait).
	drainMu  sync.RWMutex
	closed   bool
	inflight sync.WaitGroup
	requests atomic.Int64
}

// New builds a Server over cfg.DB.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("server: Config.DB is required")
	}
	if cfg.SessionTimeout <= 0 {
		cfg.SessionTimeout = 5 * time.Minute
	}
	if cfg.SessionSweepInterval <= 0 {
		cfg.SessionSweepInterval = cfg.SessionTimeout / 4
	}
	s := &Server{
		db:        cfg.DB,
		sessions:  newSessionTable(cfg.SessionTimeout, cfg.SessionSweepInterval),
		admission: newAdmission(cfg.DefaultTenant, cfg.Tenants),
		mux:       http.NewServeMux(),
	}
	s.routes()
	return s, nil
}

// Close stops accepting requests, drains the in-flight ones, and stops
// the session janitor. It does not close the DB — the owner does that
// after Close returns, so every admitted statement ran against an open
// engine.
func (s *Server) Close() {
	s.drainMu.Lock()
	was := s.closed
	s.closed = true
	s.drainMu.Unlock()
	if was {
		return
	}
	s.inflight.Wait()
	s.sessions.close()
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	s.mux.HandleFunc("POST /v1/sessions/{id}/prepare", s.handlePrepare)
	s.mux.HandleFunc("POST /v1/sessions/{id}/execute", s.handleExecute)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}/statements/{stmt}", s.handleCloseStmt)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/exec", s.handleExec)
	s.mux.HandleFunc("POST /v1/annotations", s.handleAnnotate)
}

// ServeHTTP gates every request: shed after Close, count in-flight for
// the drain, and convert handler panics into typed 500s instead of
// hijacking the connection.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.drainMu.RLock()
	if s.closed {
		s.drainMu.RUnlock()
		writeError(w, errorf(http.StatusServiceUnavailable, CodeDBClosed, "server shutting down"))
		return
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()
	defer s.inflight.Done()
	s.requests.Add(1)
	defer func() {
		if rec := recover(); rec != nil {
			writeError(w, errorf(http.StatusInternalServerError, CodeInternal, "panic: %v", rec))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// decodeBody decodes a JSON request body into dst with json.Number
// preserved (so integer parameters stay integers). Malformed JSON, or
// anything but whitespace after the value, is a typed invalid_request.
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.UseNumber()
	if err := dec.Decode(dst); err != nil {
		return errorf(http.StatusBadRequest, CodeInvalidRequest, "decoding request body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errorf(http.StatusBadRequest, CodeInvalidRequest, "request body has data after the JSON value")
	}
	return nil
}

// paramValues maps JSON parameters onto engine values: numbers split
// into INT/FLOAT by their literal form, strings are TEXT, booleans
// BOOL, null NULL. Anything else (arrays, objects) is invalid_request.
func paramValues(in []any) ([]model.Value, error) {
	out := make([]model.Value, len(in))
	for i, p := range in {
		switch v := p.(type) {
		case nil:
			out[i] = model.Null()
		case bool:
			out[i] = model.NewBool(v)
		case string:
			out[i] = model.NewText(v)
		case json.Number:
			if !strings.ContainsAny(v.String(), ".eE") {
				n, err := v.Int64()
				if err != nil {
					return nil, errorf(http.StatusBadRequest, CodeInvalidRequest,
						"param %d: integer out of range: %s", i, v)
				}
				out[i] = model.NewInt(n)
				continue
			}
			f, err := v.Float64()
			if err != nil {
				return nil, errorf(http.StatusBadRequest, CodeInvalidRequest,
					"param %d: bad number: %s", i, v)
			}
			out[i] = model.NewFloat(f)
		default:
			return nil, errorf(http.StatusBadRequest, CodeInvalidRequest,
				"param %d: unsupported type %T (want number, string, bool, or null)", i, p)
		}
	}
	return out, nil
}

// jsonValue maps an engine value back onto JSON; a float JSON cannot
// carry (an overflow to ±Inf, NaN) is null, like a division by zero.
func jsonValue(v model.Value) any {
	switch v.Kind {
	case model.KindInt:
		return v.Int
	case model.KindFloat:
		if math.IsInf(v.Float, 0) || math.IsNaN(v.Float) {
			return nil
		}
		return v.Float
	case model.KindText:
		return v.Text
	case model.KindBool:
		return v.Bool
	default:
		return nil
	}
}

// resultPayload is the wire form of an engine Result.
type resultPayload struct {
	Columns    []string `json:"columns"`
	Rows       [][]any  `json:"rows"`
	RowCount   int      `json:"row_count"`
	Summaries  []string `json:"summaries,omitempty"`
	CachedPlan bool     `json:"cached_plan"`
	AsOfLSN    uint64   `json:"as_of_lsn,omitempty"`
}

func toPayload(res *engine.Result) *resultPayload {
	p := &resultPayload{
		Columns:    res.Columns,
		Rows:       make([][]any, len(res.Rows)),
		RowCount:   len(res.Rows),
		CachedPlan: res.CachedPlan,
		AsOfLSN:    res.AsOfLSN,
	}
	if p.Columns == nil {
		p.Columns = []string{}
	}
	anySummaries := false
	summaries := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		vals := make([]any, len(row.Tuple.Values))
		for j, v := range row.Tuple.Values {
			vals[j] = jsonValue(v)
		}
		p.Rows[i] = vals
		if set := row.Tuple.Summaries; len(set) > 0 {
			summaries[i] = set.String()
			anySummaries = true
		}
	}
	if anySummaries {
		p.Summaries = summaries
	}
	return p
}

// admit runs the tenant's admission gate and layers its statement
// timeout onto ctx. The returned done func releases the slot and
// cancels the timeout; non-nil iff err is nil.
func (s *Server) admit(ctx context.Context, tenant string) (context.Context, func(), *TenantConfig, error) {
	g := s.admission.gate(tenant)
	release, err := g.enter(ctx)
	if err != nil {
		return ctx, nil, nil, err
	}
	cancel := func() {}
	if g.cfg.StatementTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, g.cfg.StatementTimeout)
	}
	cfg := g.cfg
	return ctx, func() { cancel(); release() }, &cfg, nil
}

func tenantOptions(tc *TenantConfig) *optimizer.Options {
	if tc == nil || tc.Budget == nil {
		return nil
	}
	return &optimizer.Options{Budget: tc.Budget}
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Tenant string `json:"tenant"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	sess := s.sessions.create(req.Tenant)
	writeJSON(w, http.StatusCreated, map[string]string{
		"session_id": sess.id,
		"tenant":     sess.tenant,
	})
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	if err := s.sessions.delete(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "closed"})
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req struct {
		SQL string `json:"sql"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeError(w, errorf(http.StatusBadRequest, CodeInvalidRequest, "missing sql"))
		return
	}
	st, err := s.db.Prepare(req.SQL)
	if err != nil {
		writeError(w, errorf(http.StatusBadRequest, CodeParseError, "%v", err))
		return
	}
	id := sess.addStmt(st)
	writeJSON(w, http.StatusCreated, map[string]any{
		"stmt_id":    id,
		"num_params": st.NumParams(),
		"text":       st.Text(),
	})
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req struct {
		StmtID string  `json:"stmt_id"`
		Params []any   `json:"params"`
		Batch  [][]any `json:"batch"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	st, err := sess.stmt(req.StmtID)
	if err != nil {
		writeError(w, err)
		return
	}
	batch, err := paramBatch(req.Params, req.Batch, st.NumParams())
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, done, tc, err := s.admit(r.Context(), sess.tenant)
	if err != nil {
		writeError(w, err)
		return
	}
	defer done()
	opts := tenantOptions(tc)
	if req.Batch == nil {
		res, err := st.ExecuteContext(ctx, batch[0], opts)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, toPayload(res))
		return
	}
	// Batch form: the parameter sets run sequentially under one
	// admission slot; the whole batch fails on the first error, so a
	// client never has to pick results apart from failures.
	results := make([]*resultPayload, len(batch))
	for i, params := range batch {
		res, err := st.ExecuteContext(ctx, params, opts)
		if err != nil {
			writeError(w, errorf(classify(err).Status, classify(err).Code,
				"batch entry %d: %v", i, err))
			return
		}
		results[i] = toPayload(res)
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

// paramBatch normalizes the single/batch parameter forms into a list
// of bound parameter sets, arity-checked against the statement. A
// request may carry "params" (one execution) or "batch" (many), not
// both.
func paramBatch(single []any, batch [][]any, want int) ([][]model.Value, error) {
	if batch != nil && single != nil {
		return nil, errorf(http.StatusBadRequest, CodeInvalidRequest,
			"params and batch are mutually exclusive")
	}
	if batch == nil {
		batch = [][]any{single}
	}
	if len(batch) == 0 {
		return nil, errorf(http.StatusBadRequest, CodeInvalidRequest, "empty batch")
	}
	out := make([][]model.Value, len(batch))
	for i, raw := range batch {
		params, err := paramValues(raw)
		if err != nil {
			return nil, err
		}
		if len(params) != want {
			return nil, errorf(http.StatusBadRequest, CodeInvalidRequest,
				"batch entry %d: statement wants %d parameter(s), got %d", i, want, len(params))
		}
		out[i] = params
	}
	return out, nil
}

func (s *Server) handleCloseStmt(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if err := sess.closeStmt(r.PathValue("stmt")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "closed"})
}

// handleQuery is the ad-hoc SELECT path: no session required, the
// statement cache keyed by normalized text supplies the parsed form,
// and the plan cache works exactly as for prepared statements.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Tenant string `json:"tenant"`
		SQL    string `json:"sql"`
		Params []any  `json:"params"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	params, err := paramValues(req.Params)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, done, tc, err := s.admit(r.Context(), req.Tenant)
	if err != nil {
		writeError(w, err)
		return
	}
	defer done()
	res, err := s.db.QueryCachedContext(ctx, req.SQL, params, tenantOptions(tc))
	if err != nil {
		writeError(w, classifySQL(err))
		return
	}
	writeJSON(w, http.StatusOK, toPayload(res))
}

// handleExec runs non-parameterized statements (DDL, ZOOM IN, plain
// SELECT) through the classic Exec path.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Tenant string `json:"tenant"`
		SQL    string `json:"sql"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	ctx, done, _, err := s.admit(r.Context(), req.Tenant)
	if err != nil {
		writeError(w, err)
		return
	}
	defer done()
	res, err := s.db.ExecContext(ctx, req.SQL)
	if err != nil {
		writeError(w, classifySQL(err))
		return
	}
	writeJSON(w, http.StatusOK, toPayload(res))
}

// classifySQL upgrades parse failures to the parse_error code; the sql
// package prefixes its errors uniformly.
func classifySQL(err error) error {
	if strings.HasPrefix(err.Error(), "sql:") {
		return errorf(http.StatusBadRequest, CodeParseError, "%v", err)
	}
	return err
}

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Tenant  string   `json:"tenant"`
		Table   string   `json:"table"`
		OID     int64    `json:"oid"`
		Text    string   `json:"text"`
		Columns []string `json:"columns"`
		Author  string   `json:"author"`
		// Items is the batch form: many annotations in one request (one
		// admission slot), pairing naturally with the engine's batched
		// net-delta ingest. Mutually exclusive with oid/text.
		Items []struct {
			OID  int64  `json:"oid"`
			Text string `json:"text"`
		} `json:"items"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	single := req.Text != ""
	if req.Table == "" || (single == (len(req.Items) > 0)) {
		writeError(w, errorf(http.StatusBadRequest, CodeInvalidRequest,
			"table plus either text or items is required"))
		return
	}
	_, done, _, err := s.admit(r.Context(), req.Tenant)
	if err != nil {
		writeError(w, err)
		return
	}
	defer done()
	if single {
		ann, err := s.db.AddAnnotation(req.Table, req.OID, req.Text, req.Columns, req.Author)
		if err != nil {
			writeError(w, annotateError(err, "%v", err))
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{"annotation_id": ann.ID})
		return
	}
	// The batch is one transaction: all of it or none, one commit wait.
	tx := s.db.Begin()
	defer tx.Rollback() // a no-op once committed
	ids := make([]int64, len(req.Items))
	for i, item := range req.Items {
		ann, err := tx.AddAnnotation(req.Table, item.OID, item.Text, req.Columns, req.Author)
		if err != nil {
			writeError(w, annotateError(err, "item %d: %v", i, err))
			return
		}
		ids[i] = ann.ID
	}
	if err := tx.Commit(); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"annotation_ids": ids})
}

// metricsPayload is the /metrics document: the engine snapshot (plan
// cache and catalog version included when enabled) plus the server's
// own session and per-tenant admission telemetry.
type metricsPayload struct {
	Engine  engine.Metrics         `json:"engine"`
	Server  serverStats            `json:"server"`
	Tenants map[string]TenantStats `json:"tenants"`
}

type serverStats struct {
	Requests        int64 `json:"requests"`
	OpenSessions    int   `json:"open_sessions"`
	ExpiredSessions int64 `json:"expired_sessions"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, metricsPayload{
		Engine: s.db.Metrics(),
		Server: serverStats{
			Requests:        s.requests.Load(),
			OpenSessions:    s.sessions.count(),
			ExpiredSessions: s.sessions.expired.Load(),
		},
		Tenants: s.admission.snapshot(),
	})
}
