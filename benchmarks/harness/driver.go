package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// epoch is the zero of every span's clock.
var epoch = time.Now()

func sinceEpoch() int64 { return int64(time.Since(epoch)) }

// opHeader carries the op id of a traced request to the middleware.
const opHeader = "X-Bench-Op"

// middleware is the timing wrapper around server.Server: for requests
// that carry an op id it records when the handler was entered and
// left, so http.roundtrip and server.handler come from the same
// execution. Requests without the header pass straight through.
type middleware struct {
	next http.Handler
	mu   sync.Mutex
	seen map[int][2]int64
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := r.Header.Get(opHeader)
	if h == "" {
		m.next.ServeHTTP(w, r)
		return
	}
	start := sinceEpoch()
	m.next.ServeHTTP(w, r)
	end := sinceEpoch()
	if id, err := strconv.Atoi(h); err == nil {
		m.mu.Lock()
		if m.seen == nil {
			m.seen = make(map[int][2]int64)
		}
		m.seen[id] = [2]int64{start, end}
		m.mu.Unlock()
	}
}

// take returns and forgets the handler interval of an op.
func (m *middleware) take(id int) (start, end int64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	iv, ok := m.seen[id]
	delete(m.seen, id)
	return iv[0], iv[1], ok
}

// expectation is the precomputed reference result of one (shape,
// constant) pair.
type expectation struct {
	rows map[string]int // multiset of canonical rows (CheckSet), or the un-LIMITed result (CheckTopK)
	n    int            // rows the response must hold
	keys []string       // CheckTopK: the sort key of each row, in order
}

var limitRE = regexp.MustCompile(`(?i)\s+LIMIT\s+(\d+)`)

// keyOf extracts one column of a canonical row as JSON text.
func keyOf(row string, col int) (string, error) {
	var cols []json.RawMessage
	if err := json.Unmarshal([]byte(row[:strings.IndexByte(row, 0)]), &cols); err != nil {
		return "", err
	}
	if col >= len(cols) {
		return "", fmt.Errorf("row has %d columns, key is column %d", len(cols), col)
	}
	return string(cols[col]), nil
}

// Expect computes the reference result of every (shape, constant) of a
// read-only workload through the reference plan. A CheckTopK statement
// runs without its LIMIT: the rows are the ones that qualify, and the
// sort keys of the first LIMIT of them the sequence a response must show.
func Expect(ctx context.Context, t *Target, w *Workload) ([][]expectation, error) {
	out := make([][]expectation, len(w.Shapes))
	for i := range w.Shapes {
		sh := &w.Shapes[i]
		out[i] = make([]expectation, len(sh.Params))
		for c, params := range sh.Params {
			text := sh.Inline(params)
			limit := -1
			if sh.Check == CheckTopK {
				m := limitRE.FindStringSubmatch(text)
				if m == nil {
					return nil, fmt.Errorf("%s: a top-k statement needs a LIMIT", sh.Name)
				}
				limit, _ = strconv.Atoi(m[1]) // the pattern admits digits only
				text = limitRE.ReplaceAllString(text, "")
			}
			rows, err := t.Reference(ctx, text)
			if err != nil {
				return nil, fmt.Errorf("reference for %s: %w", sh.Name, err)
			}
			e := expectation{n: len(rows), rows: make(map[string]int)}
			if limit >= 0 && e.n > limit {
				e.n = limit
			}
			for j, r := range rows {
				e.rows[r]++
				if limit >= 0 && j < e.n {
					k, err := keyOf(r, sh.KeyCol)
					if err != nil {
						return nil, err
					}
					e.keys = append(e.keys, k)
				}
			}
			out[i][c] = e
		}
	}
	return out, nil
}

// payload is what the harness reads of a result document.
type payload struct {
	Rows      []json.RawMessage `json:"rows"`
	Summaries []string          `json:"summaries"`
}

func (p *payload) row(i int) string {
	s := string(p.Rows[i]) + "\x00"
	if i < len(p.Summaries) {
		s += p.Summaries[i]
	}
	return s
}

// check compares a response body with the expectation.
func (e *expectation) check(sh *Shape, body []byte) error {
	var p payload
	if err := json.Unmarshal(body, &p); err != nil {
		return err
	}
	if len(p.Rows) != e.n {
		return fmt.Errorf("%s: %d rows, want %d", sh.Name, len(p.Rows), e.n)
	}
	if sh.Check == CheckTopK {
		for i := range p.Rows {
			r := p.row(i)
			if e.rows[r] == 0 {
				return fmt.Errorf("%s: row %d %q does not qualify", sh.Name, i, r)
			}
			if k, err := keyOf(r, sh.KeyCol); err != nil || k != e.keys[i] {
				return fmt.Errorf("%s: row %d has sort key %s, want %s", sh.Name, i, k, e.keys[i])
			}
		}
		return nil
	}
	seen := make(map[string]int, len(p.Rows))
	for i := range p.Rows {
		r := p.row(i)
		seen[r]++
		if seen[r] > e.rows[r] {
			return fmt.Errorf("%s: row %q returned %d times, want %d", sh.Name, r, seen[r], e.rows[r])
		}
	}
	return nil
}

// client is one closed-loop caller: one keep-alive connection, one
// session, one prepared statement per shape.
type client struct {
	base    string
	hc      *http.Client
	session string
	stmts   []string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. It returns the
// client-side round trip from just before the request is written to
// just after the last byte of the body is read.
func (c *client) do(path string, body []byte, opID int) (status int, resp []byte, start, end int64, err error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if opID >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(opID))
	}
	start = sinceEpoch()
	r, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, start, sinceEpoch(), err
	}
	resp, err = io.ReadAll(r.Body)
	end = sinceEpoch()
	r.Body.Close()
	return r.StatusCode, resp, start, end, err
}

// open creates the session and prepares every shape.
func (c *client) open(w *Workload) error {
	call := func(path string, in, out any) error {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		status, resp, _, _, err := c.do(path, b, -1)
		if err != nil {
			return err
		}
		if status >= 300 {
			return fmt.Errorf("POST %s: %d %s", path, status, resp)
		}
		return json.Unmarshal(resp, out)
	}
	var sess struct {
		ID string `json:"session_id"`
	}
	if err := call("/v1/sessions", map[string]string{"tenant": "default"}, &sess); err != nil {
		return err
	}
	c.session = sess.ID
	if w.Adhoc {
		return nil
	}
	for i := range w.Shapes {
		var st struct {
			ID string `json:"stmt_id"`
		}
		if err := call("/v1/sessions/"+c.session+"/prepare", map[string]string{"sql": w.Shapes[i].SQL}, &st); err != nil {
			return err
		}
		c.stmts = append(c.stmts, st.ID)
	}
	return nil
}

// request builds the path and body of an op.
func (c *client) request(t *Target, w *Workload, op Op) (string, []byte, error) {
	switch {
	case op.Write:
		b, err := json.Marshal(map[string]any{"table": "Birds", "oid": t.BirdOID(op.Bird), "text": op.Text, "author": "bench"})
		return "/v1/annotations", b, err
	case w.Adhoc:
		sh := &w.Shapes[op.Shape]
		b, err := json.Marshal(map[string]string{"sql": sh.Inline(sh.Params[op.Const])})
		return "/v1/exec", b, err
	default:
		b, err := json.Marshal(map[string]any{"stmt_id": c.stmts[op.Shape], "params": w.Shapes[op.Shape].Params[op.Const]})
		return "/v1/sessions/" + c.session + "/execute", b, err
	}
}

// PassConfig says how one pass over a target is driven.
type PassConfig struct {
	Seed    int64
	Clients int
	// Ops > 0 runs that many ops in all, split evenly; Duration > 0 ends
	// the pass when it has elapsed. With both, whichever comes first.
	Ops      int
	Duration time.Duration
	// Stream distinguishes the op streams of the passes of one run.
	Stream int
}

// PassResult is what one pass measured.
type PassResult struct {
	Ops, Failed int
	Wall        time.Duration
	Samples     []opSample // every op's client-side round trip
	RespBytes   int64
	Added       map[int]int // bird → acknowledged annotations (replays included)
	AckedBytes  int64       // text bytes of acknowledged annotations
	Texts       []string    // a sample of the annotation texts written
	Hash        uint64      // of every client's op sequence
	FirstError  string

	// Traced passes only.
	Spans                      []Span             // the first TracedOps ops
	Self, Dur                  map[string][]int64 // per span name, one entry per op that has it
	Stats                      []readStats
	TracedNs, UntracedNs       int64
	TracedCount, UntracedCount int
	// Replayed top-level calls against the handler time they are laid
	// out in, and the ops in which a replay did not fit and was clamped.
	ReplayNs, HandlerNs int64
	Clamped             int
}

// opSample is one op as its client saw it.
type opSample struct {
	EndNs int64 // when the response was read, since the pass began
	Dur   time.Duration
	Write bool
}

type clientResult struct {
	ops, failed int
	samples     []opSample
	respBytes   int64
	added       map[int]int
	ackedBytes  int64
	texts       []string
	hash        uint64
	firstError  string
	end         time.Time
}

// pass is what the clients of one pass share.
type pass struct {
	t      *Target
	w      *Workload
	expect [][]expectation
	rp     *replayer
	res    *PassResult
}

// RunPass drives the workload's ops at the target, closed loop: every
// client sends its next request when the previous response is read.
// expect is nil when results cannot be precomputed (the data changes).
// With a replayer the pass is traced (1 client): every op is replayed
// against the layers after its response, and spans are recorded — except
// for every other rotation of the shapes, which is sent without the
// trace header for trace.overhead_ratio.
func RunPass(ctx context.Context, t *Target, w *Workload, expect [][]expectation, cfg PassConfig, rp *replayer) (*PassResult, error) {
	clients := make([]*client, cfg.Clients)
	for i := range clients {
		clients[i] = newClient(t.URL)
		defer clients[i].close()
		if err := clients[i].open(w); err != nil {
			return nil, err
		}
	}
	res := &PassResult{Added: map[int]int{}, Self: map[string][]int64{}, Dur: map[string][]int64{}}
	ps := &pass{t: t, w: w, expect: expect, rp: rp, res: res}
	results := make([]clientResult, cfg.Clients)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	passStart := sinceEpoch()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			cr := &results[i]
			cr.added = map[int]int{}
			stream := newOpStream(w, cfg.Seed+int64(cfg.Stream)*104729, i, t.cfg.Birds)
			quota := cfg.Ops / cfg.Clients
			if i < cfg.Ops%cfg.Clients {
				quota++
			}
			for n := 0; ; n++ {
				if stop.Load() || ctx.Err() != nil {
					break
				}
				if cfg.Ops > 0 && n >= quota {
					break
				}
				if cfg.Duration > 0 && !time.Now().Before(deadline) {
					break
				}
				op := stream.next()
				opID := -1
				if rp != nil && (n/len(w.Shapes))%2 == 0 {
					opID = n
				}
				err := ps.runOp(ctx, c, cr, op, opID)
				cr.ops++
				if err != nil {
					cr.failed++
					if cr.firstError == "" {
						cr.firstError = err.Error()
					}
					if cr.failed > 100 && cr.failed*2 > cr.ops {
						stop.Store(true) // nothing works; do not spin
					}
				}
			}
			cr.hash = stream.hash
			cr.end = time.Now()
		}(i, c)
	}
	wg.Wait()
	end := start
	for i := range results {
		cr := &results[i]
		if cr.end.After(end) {
			end = cr.end
		}
		res.Ops += cr.ops
		res.Failed += cr.failed
		for _, sm := range cr.samples {
			sm.EndNs -= passStart
			res.Samples = append(res.Samples, sm)
		}
		res.RespBytes += cr.respBytes
		res.AckedBytes += cr.ackedBytes
		for b, n := range cr.added {
			res.Added[b] += n
		}
		res.Texts = append(res.Texts, cr.texts...)
		res.Hash = res.Hash*1099511628211 ^ cr.hash
		if res.FirstError == "" {
			res.FirstError = cr.firstError
		}
	}
	res.Wall = end.Sub(start)
	return res, nil
}

// runOp sends one op, times it, checks the response and — in a traced
// pass — replays it against the layers. Only the single client of a
// traced pass touches res directly.
func (ps *pass) runOp(ctx context.Context, c *client, cr *clientResult, op Op, opID int) error {
	w, res, rp := ps.w, ps.res, ps.rp
	path, body, err := c.request(ps.t, w, op)
	if err != nil {
		return err
	}
	status, resp, start, end, err := c.do(path, body, opID)
	cr.samples = append(cr.samples, opSample{EndNs: end, Dur: time.Duration(end - start), Write: op.Write})
	cr.respBytes += int64(len(resp))
	if err != nil {
		return err
	}
	if status >= 300 {
		return fmt.Errorf("%s: status %d: %.200s", path, status, resp)
	}
	if op.Write {
		cr.added[op.Bird]++
		cr.ackedBytes += int64(len(op.Text))
		if len(cr.texts) < 256 {
			cr.texts = append(cr.texts, op.Text)
		}
	} else if ps.expect != nil {
		if err := ps.expect[op.Shape][op.Const].check(&w.Shapes[op.Shape], resp); err != nil {
			return err
		}
	} else {
		var p payload
		if err := json.Unmarshal(resp, &p); err != nil {
			return err
		}
	}
	if rp == nil {
		return nil
	}
	if opID < 0 {
		// The untraced ops of a traced pass are replayed as well, and the
		// replay thrown away, so that traced and untraced requests meet
		// the same caches and trace.overhead_ratio compares only the
		// header and the middleware's bookkeeping.
		res.UntracedNs += end - start
		res.UntracedCount++
		if op.Write {
			if _, err := rp.Write(op); err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			cr.added[op.Bird]++
			cr.ackedBytes += int64(len(op.Text))
			return nil
		}
		_, _, err := rp.Read(ctx, op)
		return err
	}
	res.TracedNs += end - start
	res.TracedCount++
	return ps.replay(ctx, cr, op, opID, start, end)
}

// replay builds the op's span tree: the measured round trip and handler
// interval, and below the handler the replayed layers.
func (ps *pass) replay(ctx context.Context, cr *clientResult, op Op, opID int, start, end int64) error {
	res, rp := ps.res, ps.rp
	spans := []Span{{Name: SpanRoundtrip, OpID: opID, StartNs: start, EndNs: end}}
	hs, he, ok := ps.t.mw.take(opID)
	if !ok {
		return fmt.Errorf("op %d: the middleware saw no request", opID)
	}
	// The handler returns before the client has read the response; a
	// clock read on either side can still order them the other way by a
	// few nanoseconds.
	if hs < start {
		hs = start
	}
	if he > end {
		he = end
	}
	spans = append(spans, Span{Name: SpanHandler, OpID: opID, Parent: SpanRoundtrip, StartNs: hs, EndNs: he})
	var tree *spanNode
	var err error
	if op.Write {
		tree, err = rp.Write(op)
		if err == nil {
			cr.added[op.Bird]++ // the replay stored a second annotation
			cr.ackedBytes += int64(len(op.Text))
		}
	} else {
		var rs readStats
		tree, rs, err = rp.Read(ctx, op)
		if err == nil {
			res.Stats = append(res.Stats, rs)
		}
	}
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	// The metrics take every duration as it was measured; only the layout
	// written to the trace file is fitted into the parent.
	self := map[string]int64{SpanRoundtrip: (end - start) - (he - hs)}
	dur := map[string]int64{SpanRoundtrip: end - start, SpanHandler: he - hs}
	self[SpanHandler] = max((he-hs)-int64(tree.Dur), 0)
	tree.measured(self, dur)
	for name, ns := range self {
		res.Self[name] = append(res.Self[name], ns)
	}
	for name, ns := range dur {
		res.Dur[name] = append(res.Dur[name], ns)
	}
	res.HandlerNs += he - hs
	res.ReplayNs += int64(tree.Dur)

	spans, clamped := place(spans, opID, SpanHandler, tree, hs, he-hs)
	if clamped {
		res.Clamped++
	}
	if !nested(spans) {
		return fmt.Errorf("op %d: a span leaves its parent", opID)
	}
	if res.TracedCount <= ps.w.TracedOps {
		res.Spans = append(res.Spans, spans...)
	}
	return nil
}
