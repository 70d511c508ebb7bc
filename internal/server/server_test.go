package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/workload"
)

// newTestServer builds a small bird workload with the plan cache on and
// serves it via httptest.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *engine.DB) {
	t.Helper()
	ds, err := workload.Build(workload.Config{
		Birds:                 20,
		AvgAnnotationsPerBird: 4,
		SkipSynonyms:          true,
		PlanCacheSize:         64,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.DB = ds.DB
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, ds.DB
}

// call posts body (marshaled) and decodes the JSON response.
func call(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: non-JSON response (status %d): %v", method, url, resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

// errCode extracts the typed error code from a response body.
func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("response carries no error object: %v", body)
	}
	code, _ := e["code"].(string)
	return code
}

func TestSessionPrepareExecute(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	status, body := call(t, "POST", ts.URL+"/v1/sessions", map[string]any{"tenant": "acme"})
	if status != http.StatusCreated {
		t.Fatalf("create session: %d %v", status, body)
	}
	sid := body["session_id"].(string)

	status, body = call(t, "POST", ts.URL+"/v1/sessions/"+sid+"/prepare",
		map[string]any{"sql": "SELECT id FROM Birds WHERE id = ?"})
	if status != http.StatusCreated {
		t.Fatalf("prepare: %d %v", status, body)
	}
	stmtID := body["stmt_id"].(string)
	if body["num_params"].(float64) != 1 {
		t.Fatalf("num_params = %v", body["num_params"])
	}

	status, body = call(t, "POST", ts.URL+"/v1/sessions/"+sid+"/execute",
		map[string]any{"stmt_id": stmtID, "params": []any{3}})
	if status != http.StatusOK {
		t.Fatalf("execute: %d %v", status, body)
	}
	if body["row_count"].(float64) != 1 {
		t.Fatalf("row_count = %v", body["row_count"])
	}
	rows := body["rows"].([]any)
	if rows[0].([]any)[0].(float64) != 3 {
		t.Fatalf("rows = %v", rows)
	}

	// Second execution with the same constant hits the plan cache.
	status, body = call(t, "POST", ts.URL+"/v1/sessions/"+sid+"/execute",
		map[string]any{"stmt_id": stmtID, "params": []any{3}})
	if status != http.StatusOK || body["cached_plan"] != true {
		t.Fatalf("repeat execute: %d cached=%v", status, body["cached_plan"])
	}

	// Close the statement, then the session.
	if status, body = call(t, "DELETE", ts.URL+"/v1/sessions/"+sid+"/statements/"+stmtID, nil); status != http.StatusOK {
		t.Fatalf("close stmt: %d %v", status, body)
	}
	if status, body = call(t, "POST", ts.URL+"/v1/sessions/"+sid+"/execute",
		map[string]any{"stmt_id": stmtID, "params": []any{3}}); status != http.StatusNotFound || errCode(t, body) != CodeUnknownStatement {
		t.Fatalf("closed stmt: %d %v", status, body)
	}
	if status, _ = call(t, "DELETE", ts.URL+"/v1/sessions/"+sid, nil); status != http.StatusOK {
		t.Fatalf("delete session: %d", status)
	}
	if status, body = call(t, "DELETE", ts.URL+"/v1/sessions/"+sid, nil); status != http.StatusNotFound || errCode(t, body) != CodeUnknownSession {
		t.Fatalf("double delete: %d %v", status, body)
	}
}

func TestAdHocQueryAnnotateAndMetrics(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	q := map[string]any{
		"sql":    `SELECT id FROM Birds r WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= ?`,
		"params": []any{1},
	}
	for i := 0; i < 3; i++ {
		if status, body := call(t, "POST", ts.URL+"/v1/query", q); status != http.StatusOK {
			t.Fatalf("query %d: %d %v", i, status, body)
		}
	}
	status, body := call(t, "POST", ts.URL+"/v1/annotations", map[string]any{
		"table": "Birds", "oid": 1, "text": "shows infection and disease symptoms", "author": "alice",
	})
	if status != http.StatusCreated {
		t.Fatalf("annotate: %d %v", status, body)
	}
	status, body = call(t, "GET", ts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	eng := body["engine"].(map[string]any)
	pc, ok := eng["PlanCache"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing PlanCache: %v", eng)
	}
	if pc["hits"].(float64) < 2 {
		t.Fatalf("plan cache hits = %v, want >= 2", pc["hits"])
	}
	tenants := body["tenants"].(map[string]any)
	def, ok := tenants["default"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing default tenant: %v", tenants)
	}
	if def["admitted"].(float64) < 4 {
		t.Fatalf("default tenant admitted = %v, want >= 4", def["admitted"])
	}
}

// TestAnnotationBatchIsOneTransaction: the items form commits as a unit
// — a rejected item leaves nothing of the batch behind, and an accepted
// batch waits for one WAL commit, not one per item.
func TestAnnotationBatchIsOneTransaction(t *testing.T) {
	db, err := engine.Open(engine.Config{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("Birds", model.NewSchema("", model.Column{Name: "id", Kind: model.KindInt})); err != nil {
		t.Fatal(err)
	}
	var items []map[string]any
	for i := 0; i < 8; i++ {
		oid, err := db.Insert("Birds", model.NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, map[string]any{"oid": oid, "text": fmt.Sprintf("note %d", i)})
	}
	srv, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
		db.Close()
	}()

	bad := append(append([]map[string]any{}, items[:2]...), map[string]any{"oid": 1 << 40, "text": "orphan"})
	status, body := call(t, "POST", ts.URL+"/v1/annotations", map[string]any{"table": "Birds", "items": bad})
	if status != http.StatusBadRequest || errCode(t, body) != CodeInvalidRequest {
		t.Fatalf("batch with a missing OID: %d %v", status, body)
	}
	if n := db.AnnotationCount(); n != 0 {
		t.Fatalf("rejected batch left %d annotations behind", n)
	}

	commits := db.Metrics().WAL.Commits
	status, body = call(t, "POST", ts.URL+"/v1/annotations", map[string]any{"table": "Birds", "items": items})
	if status != http.StatusCreated || len(body["annotation_ids"].([]any)) != 8 {
		t.Fatalf("batch of 8: %d %v", status, body)
	}
	if got := db.Metrics().WAL.Commits - commits; got != 1 {
		t.Errorf("batch of 8 waited for %d WAL commits, want 1", got)
	}
	if n := db.AnnotationCount(); n != 8 {
		t.Errorf("AnnotationCount = %d after a batch of 8", n)
	}
}

func TestMalformedRequestsAreTypedErrors(t *testing.T) {
	_, ts, db := newTestServer(t, Config{})

	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("malformed JSON produced a non-JSON response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || errCode(t, out) != CodeInvalidRequest {
		t.Fatalf("malformed JSON: %d %v", resp.StatusCode, out)
	}

	// A well-formed value followed by anything but whitespace.
	resp, err = http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"sql":"SELECT id FROM Birds"} trailing garbage`))
	if err != nil {
		t.Fatal(err)
	}
	out = nil
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("trailing bytes produced a non-JSON response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || errCode(t, out) != CodeInvalidRequest {
		t.Fatalf("trailing bytes: %d %v", resp.StatusCode, out)
	}

	// Malformed SQL, ad-hoc and prepared.
	if status, body := call(t, "POST", ts.URL+"/v1/query",
		map[string]any{"sql": "SELEC id FRM Birds"}); status != http.StatusBadRequest || errCode(t, body) != CodeParseError {
		t.Fatalf("bad SQL query: %d %v", status, body)
	}
	_, body := call(t, "POST", ts.URL+"/v1/sessions", map[string]any{})
	sid := body["session_id"].(string)
	if status, body := call(t, "POST", ts.URL+"/v1/sessions/"+sid+"/prepare",
		map[string]any{"sql": "SELECT FROM WHERE"}); status != http.StatusBadRequest || errCode(t, body) != CodeParseError {
		t.Fatalf("bad SQL prepare: %d %v", status, body)
	}
	// Preparing DDL is a parse-level rejection too.
	if status, body := call(t, "POST", ts.URL+"/v1/sessions/"+sid+"/prepare",
		map[string]any{"sql": "ALTER TABLE Birds ADD ClassBird1"}); status != http.StatusBadRequest || errCode(t, body) != CodeParseError {
		t.Fatalf("prepare DDL: %d %v", status, body)
	}

	// Unknown session.
	if status, body := call(t, "POST", ts.URL+"/v1/sessions/nope/execute",
		map[string]any{"stmt_id": "stmt-1"}); status != http.StatusNotFound || errCode(t, body) != CodeUnknownSession {
		t.Fatalf("unknown session: %d %v", status, body)
	}

	// Parameter arity and type errors.
	_, body = call(t, "POST", ts.URL+"/v1/sessions/"+sid+"/prepare",
		map[string]any{"sql": "SELECT id FROM Birds WHERE id = ?"})
	stmtID := body["stmt_id"].(string)
	if status, body := call(t, "POST", ts.URL+"/v1/sessions/"+sid+"/execute",
		map[string]any{"stmt_id": stmtID, "params": []any{}}); status != http.StatusBadRequest || errCode(t, body) != CodeInvalidRequest {
		t.Fatalf("arity mismatch: %d %v", status, body)
	}
	if status, body := call(t, "POST", ts.URL+"/v1/sessions/"+sid+"/execute",
		map[string]any{"stmt_id": stmtID, "params": []any{[]any{1, 2}}}); status != http.StatusBadRequest || errCode(t, body) != CodeInvalidRequest {
		t.Fatalf("array param: %d %v", status, body)
	}
	// Type mismatch inside evaluation: a text param compared to an INT
	// column is an execution error, reported typed — never a 500.
	status, body := call(t, "POST", ts.URL+"/v1/sessions/"+sid+"/execute",
		map[string]any{"stmt_id": stmtID, "params": []any{"not-a-number"}})
	if status != http.StatusBadRequest || errCode(t, body) != CodeQueryFailed {
		t.Fatalf("type mismatch: %d %v", status, body)
	}

	// An annotation naming a missing tuple is the client's fault; the
	// same request against a closed database is shutdown, not a bad
	// request, on both the single and the batch path.
	single := map[string]any{"table": "Birds", "oid": 1, "text": "after close"}
	batch := map[string]any{"table": "Birds", "items": []any{map[string]any{"oid": 1, "text": "after close"}}}
	if status, body := call(t, "POST", ts.URL+"/v1/annotations",
		map[string]any{"table": "Birds", "oid": 1 << 40, "text": "orphan"}); status != http.StatusBadRequest || errCode(t, body) != CodeInvalidRequest {
		t.Fatalf("annotate a missing tuple: %d %v", status, body)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]any{"single": single, "batch": batch} {
		if status, body := call(t, "POST", ts.URL+"/v1/annotations", req); status != http.StatusServiceUnavailable || errCode(t, body) != CodeDBClosed {
			t.Fatalf("%s annotate after db.Close: %d %v", name, status, body)
		}
	}
}

// TestUnencodableValuesNeverAnswerEmpty200: a float that overflowed to
// +Inf is rendered as JSON null, and a payload encoding/json refuses is
// a typed internal 500 — the status line is not written before the body
// is known to encode.
func TestUnencodableValuesNeverAnswerEmpty200(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	status, body := call(t, "POST", ts.URL+"/v1/query", map[string]any{
		"sql": "SELECT weight_g * ? * ? FROM Birds LIMIT 1", "params": []any{1e308, 1e308}})
	if status != http.StatusOK {
		t.Fatalf("overflowing product: %d %v", status, body)
	}
	if rows := body["rows"].([]any); len(rows) != 1 || rows[0].([]any)[0] != nil {
		t.Fatalf("overflowing product must render as null: %v", body["rows"])
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"v": math.Inf(1)})
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("unencodable payload: status %d, body %q: %v", rec.Code, rec.Body, err)
	}
	if rec.Code != http.StatusInternalServerError || errCode(t, out) != CodeInternal {
		t.Fatalf("unencodable payload: %d %v", rec.Code, out)
	}
}

func TestSessionExpiry(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{
		SessionTimeout:       50 * time.Millisecond,
		SessionSweepInterval: 10 * time.Millisecond,
	})
	_, body := call(t, "POST", ts.URL+"/v1/sessions", map[string]any{})
	sid := body["session_id"].(string)
	if status, _ := call(t, "POST", ts.URL+"/v1/sessions/"+sid+"/prepare",
		map[string]any{"sql": "SELECT id FROM Birds"}); status != http.StatusCreated {
		t.Fatalf("prepare on fresh session: %d", status)
	}
	time.Sleep(150 * time.Millisecond)
	status, body := call(t, "POST", ts.URL+"/v1/sessions/"+sid+"/prepare",
		map[string]any{"sql": "SELECT id FROM Birds"})
	if status != http.StatusNotFound || errCode(t, body) != CodeUnknownSession {
		t.Fatalf("expired session: %d %v", status, body)
	}
	status, body = call(t, "GET", ts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatal("metrics after expiry")
	}
	srv := body["server"].(map[string]any)
	if srv["expired_sessions"].(float64) < 1 {
		t.Fatalf("expired_sessions = %v, want >= 1", srv["expired_sessions"])
	}
}

// TestAdmissionShedsLoad drives a 1-slot tenant with a held statement
// and verifies the queue bounds and typed 429s.
func TestAdmissionShedsLoad(t *testing.T) {
	srv, _, _ := newTestServer(t, Config{
		Tenants: map[string]TenantConfig{
			"tiny": {MaxConcurrent: 1, QueueDepth: 1, QueueWait: 30 * time.Millisecond},
		},
	})
	g := srv.admission.gate("tiny")
	release, err := g.enter(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	// Slot busy, queue empty: the next arrival queues, then times out.
	start := time.Now()
	if _, err := g.enter(t.Context()); err == nil {
		t.Fatal("second enter admitted with the slot held")
	} else if ae := classify(err); ae.Code != CodeQueueTimeout {
		t.Fatalf("queued enter: code %s, want %s", ae.Code, CodeQueueTimeout)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("queue timeout fired before QueueWait")
	}
	// Queue full: a burst is shed immediately with admission_rejected.
	var wg sync.WaitGroup
	var rejected atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.enter(t.Context()); err != nil {
				if classify(err).Code == CodeAdmissionRejected {
					rejected.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if rejected.Load() == 0 {
		t.Fatal("no arrival was shed with a full queue")
	}
	release()
	// Slot free again: admission resumes.
	rel2, err := g.enter(t.Context())
	if err != nil {
		t.Fatalf("enter after release: %v", err)
	}
	rel2()
	st := g.stats()
	if st.Rejected == 0 || st.QueueTimeouts == 0 {
		t.Fatalf("stats = %+v, want rejections and queue timeouts", st)
	}
}

// TestAdmissionOverHTTP exercises the same shedding through the full
// HTTP stack with slow-ish statements from many clients.
func TestAdmissionOverHTTP(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{
		Tenants: map[string]TenantConfig{
			"burst": {MaxConcurrent: 2, QueueDepth: 2, QueueWait: 20 * time.Millisecond},
		},
	})
	q := map[string]any{
		"tenant": "burst",
		"sql": `SELECT r.id, s.id FROM Birds r, Birds s
		        WHERE r.family = s.family`,
	}
	var wg sync.WaitGroup
	var ok429, ok200 atomic.Int64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body := call(t, "POST", ts.URL+"/v1/query", q)
			switch status {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				code := errCode(t, body)
				if code != CodeAdmissionRejected && code != CodeQueueTimeout {
					t.Errorf("429 with code %s", code)
				}
				ok429.Add(1)
			default:
				t.Errorf("unexpected status %d: %v", status, body)
			}
		}()
	}
	wg.Wait()
	if ok200.Load() == 0 {
		t.Fatal("no statement succeeded")
	}
	t.Logf("succeeded=%d shed=%d", ok200.Load(), ok429.Load())
}

// TestCloseDrainsInFlight is the server-side TestCloseUnderLoad: Close
// must wait for admitted statements and every later request must get a
// typed 503, never a panic or a torn response.
func TestCloseDrainsInFlight(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{})
	var wg sync.WaitGroup
	var served, shed atomic.Int64
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				status, body := call(t, "POST", ts.URL+"/v1/query", map[string]any{
					"sql":    "SELECT id FROM Birds WHERE id = ?",
					"params": []any{g%10 + 1},
				})
				switch status {
				case http.StatusOK:
					served.Add(1)
				case http.StatusServiceUnavailable:
					if errCode(t, body) != CodeDBClosed {
						t.Errorf("503 code %v", body)
					}
					shed.Add(1)
					return
				default:
					t.Errorf("status %d: %v", status, body)
					return
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no statement served before Close")
	}
	// The server is drained: a fresh request gets the typed 503.
	status, body := call(t, "GET", ts.URL+"/healthz", nil)
	if status != http.StatusServiceUnavailable || errCode(t, body) != CodeDBClosed {
		t.Fatalf("post-Close request: %d %v", status, body)
	}
}

func TestParamValueMapping(t *testing.T) {
	vals, err := paramValues([]any{json.Number("42"), json.Number("2.5"), "text", true, nil})
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{"INT", "FLOAT", "TEXT", "BOOL", "NULL"}
	for i, want := range kinds {
		if got := fmt.Sprint(vals[i].Kind); got != want {
			t.Errorf("param %d: kind %s, want %s", i, got, want)
		}
	}
	if vals[0].Int != 42 || vals[1].Float != 2.5 || vals[2].Text != "text" || vals[3].Bool != true {
		t.Errorf("values mis-mapped: %v", vals)
	}
	if _, err := paramValues([]any{map[string]any{}}); err == nil {
		t.Fatal("object param accepted")
	}
	// Scientific notation and big integers stay numeric.
	v, err := paramValues([]any{json.Number("1e3")})
	if err != nil || v[0].Kind.String() != "FLOAT" {
		t.Fatalf("1e3: %v %v", v, err)
	}
}
