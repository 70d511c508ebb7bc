package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/workload"
)

// fig23Window is the per-cell measurement window (after warmup).
const fig23Window = 400 * time.Millisecond

// fig23Warmup lets every connection run a few batches before the timed
// window, so TCP setup and plan-cache cold misses are excluded.
const fig23Warmup = 100 * time.Millisecond

// fig23Birds sizes the served table.
const fig23Birds = 192

// fig23Batch is the statements-per-request batch size: each HTTP
// request carries this many parameter sets (reads) or annotations
// (ingest), the standard executemany shape, so the wire cost is
// amortized and the measured axis is statement throughput.
const fig23Batch = 16

// fig23Conns is the concurrency axis.
var fig23Conns = []int{8, 16, 32, 64}

// fig23Query is the read statement: two summary predicates, a data
// predicate, and a summary sort — several optimizer rewrites' worth of
// planning, which a plan-cache hit skips — with a selective leading
// constant.
const fig23Query = `SELECT id, common_name FROM Birds r
	WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = ?
	  AND r.$.getSummaryObject('ClassBird1').getLabelValue('Behavior') >= 1
	  AND r.wingspan_cm > 0
	ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Anatomy') DESC LIMIT 5`

// fig23Setup builds the served database — batched ingest on, summary
// index built — and the HTTP front-end over it with per-tenant
// admission sized to never be the bottleneck.
func fig23Setup() (*httptest.Server, *server.Server, *engine.DB, error) {
	ds, err := workload.Build(workload.Config{
		Seed:                  23,
		Birds:                 fig23Birds,
		AvgAnnotationsPerBird: 4,
		SkipSynonyms:          true,
		Engine:                engine.Config{IngestFlushOps: 64},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	db := ds.DB
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		return nil, nil, nil, err
	}
	srv, err := server.New(server.Config{
		DB: db,
		DefaultTenant: server.TenantConfig{
			MaxConcurrent: 256,
			QueueDepth:    1024,
			QueueWait:     5 * time.Second,
		},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return httptest.NewServer(srv), srv, db, nil
}

// fig23Client is one connection's protocol state.
type fig23Client struct {
	base   string
	client *http.Client
	sid    string
	stmtID string
}

func (c *fig23Client) post(path string, payload any, out any) error {
	b, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	resp, err := c.client.Post(c.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e struct {
			Error struct{ Code, Message string }
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("%s: %d %s %s", path, resp.StatusCode, e.Error.Code, e.Error.Message)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// open creates the session and prepares the read statement.
func (c *fig23Client) open() error {
	var sess struct {
		SessionID string `json:"session_id"`
	}
	if err := c.post("/v1/sessions", map[string]any{"tenant": "bench"}, &sess); err != nil {
		return err
	}
	c.sid = sess.SessionID
	var st struct {
		StmtID string `json:"stmt_id"`
	}
	if err := c.post("/v1/sessions/"+c.sid+"/prepare", map[string]any{"sql": fig23Query}, &st); err != nil {
		return err
	}
	c.stmtID = st.StmtID
	return nil
}

// readBatch executes fig23Batch parameter sets through the prepared
// statement; constants rotate through a selective range so several
// plans stay live in the cache.
func (c *fig23Client) readBatch(round int) error {
	batch := make([][]any, fig23Batch)
	for i := range batch {
		batch[i] = []any{(round+i)%3 + 4}
	}
	return c.post("/v1/sessions/"+c.sid+"/execute",
		map[string]any{"stmt_id": c.stmtID, "batch": batch}, nil)
}

// ingestBatch posts fig23Batch annotations in one request.
func (c *fig23Client) ingestBatch(conn, round int) error {
	items := make([]map[string]any, fig23Batch)
	for i := range items {
		items[i] = map[string]any{
			"oid":  int64((conn*fig23Batch+round+i)%fig23Birds + 1),
			"text": "the bird shows unusual migratory behavior this season",
		}
	}
	return c.post("/v1/annotations", map[string]any{
		"table": "Birds", "author": "bench", "items": items,
	}, nil)
}

// fig23Cell drives conns concurrent HTTP connections, each with its own
// session and prepared statement: per cycle, 3 read batches then 1
// ingest batch — 75% summary reads, 25% annotation ingest by statement
// count. Returns statements completed in the timed window.
func fig23Cell(ts *httptest.Server, conns int) (int64, error) {
	transport := &http.Transport{MaxIdleConns: conns * 2, MaxIdleConnsPerHost: conns * 2}
	defer transport.CloseIdleConnections()
	httpClient := &http.Client{Transport: transport}

	var completed atomic.Int64
	var timing atomic.Bool
	stop := make(chan struct{})
	errCh := make(chan error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &fig23Client{base: ts.URL, client: httpClient}
			if err := cl.open(); err != nil {
				errCh <- err
				return
			}
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if round%4 == 3 {
					err = cl.ingestBatch(c, round)
				} else {
					err = cl.readBatch(round)
				}
				if err != nil {
					errCh <- err
					return
				}
				if timing.Load() {
					completed.Add(fig23Batch)
				}
			}
		}(c)
	}
	time.Sleep(fig23Warmup)
	timing.Store(true)
	time.Sleep(fig23Window)
	close(stop)
	wg.Wait()
	close(errCh)
	for e := range errCh {
		return 0, e
	}
	return completed.Load(), nil
}

// Fig23ServerQPS measures the HTTP front-end's concurrent statement
// throughput (an extension beyond the paper, which is single-user):
// N connections each hold a session with a prepared summary-read
// statement and mix MVCC summary reads (75%, parameterized, batch
// executed) with batched annotation ingest (25%); a plan-cache hit
// skips straight to rebinding the cached skeleton against the pinned
// epoch.
func Fig23ServerQPS(h *Harness) (*Table, error) {
	t := &Table{
		Figure: "Figure 23 (extension)",
		Title: fmt.Sprintf("HTTP front-end: statement throughput vs connections, 75%% prepared summary reads + 25%% batched ingest, %d-statement batches, %v window",
			fig23Batch, fig23Window),
		Headers: []string{"connections", "stmts/s", "hit rate"},
	}
	for _, conns := range fig23Conns {
		ts, srv, db, err := fig23Setup()
		if err != nil {
			return nil, err
		}
		n, err := fig23Cell(ts, conns)
		ts.Close()
		srv.Close()
		hitRate := db.PlanCacheStats().HitRate()
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(conns),
			fmt.Sprintf("%.0f", float64(n)/fig23Window.Seconds()),
			fmt.Sprintf("%.1f%%", 100*hitRate))
	}
	t.AddNote("per-tenant admission control was sized above the offered load here; its shedding behavior is covered by the server tests, not this figure")
	return t, nil
}
