package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// RunConfig is one run of one workload: the arguments of the command.
type RunConfig struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	// Birds scales the dataset (default 10,000).
	Birds int
	// Spec is the path of BENCHMARK.json, which declares the workloads and
	// every metric with its unit (default: in the working directory).
	Spec string
	// Dir is the scratch directory (WAL, copies); OutDir receives
	// <workload>.json and <workload>.trace.json when not empty.
	Dir, OutDir string

	// For the tests only; the command has no flag for them. Ops > 0 runs
	// that many ops per pass instead of Seconds (counts then repeat
	// exactly), Clients > 0 overrides the workload's client count.
	Ops, Clients int
}

// DefaultBirds is the dataset size of the fixed conditions.
const DefaultBirds = 10000

// warmUpCap ends the warm-up of a workload whose ops are slow; a timed
// run (not -ops) never warms up for longer.
const warmUpCap = 1500 * time.Millisecond

// Environment is recorded in every result file.
type Environment struct {
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	OS     string `json:"os"`
	Arch   string `json:"arch"`
	Commit string `json:"commit"`
}

// Result is what a run reports and what <workload>.json holds.
type Result struct {
	Workload    string      `json:"workload"`
	Why         string      `json:"why"`
	Seed        int64       `json:"seed"`
	Seconds     int         `json:"seconds"`
	Ops         int         `json:"ops,omitempty"`
	Trace       bool        `json:"trace"`
	Clients     int         `json:"clients"`
	Loop        string      `json:"loop"`
	Environment Environment `json:"environment"`
	Conditions  Conditions  `json:"conditions"`
	Correct     bool        `json:"correct"`
	Attempted   int         `json:"attempted"`
	Failed      int         `json:"failed"`
	FirstError  string      `json:"first_error,omitempty"`
	OpHash      string      `json:"op_sequence_hash"`
	// SliceOps is the ops completed in each whole second of the measured
	// pass: a diagnostic of how even the run was, not a metric.
	SliceOps []int             `json:"ops_by_second,omitempty"`
	Metrics  map[string]Metric `json:"metrics"`
	Counters *Counters         `json:"counters,omitempty"`
}

// TraceFile is what <workload>.trace.json holds.
type TraceFile struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Environment Environment `json:"environment"`
	// Measured spans come from the served execution, replayed ones from
	// the same input run against the layer's public function afterwards.
	Measured []string `json:"measured_spans"`
	Replayed []string `json:"replayed_spans"`
	Spans    []Span   `json:"spans"`
}

func environment() Environment {
	return Environment{NProc: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, Commit: headCommit()}
}

// headCommit reads the checked-out commit from .git in the working
// directory, without running git; a checkout that is not a repository
// reports "unknown".
func headCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, ok := strings.CutSuffix(line, " "+ref); ok {
				return hash
			}
		}
	}
	return "unknown"
}

// prepared is a target that is set up: loaded, served, reference rows
// computed, sessions and caches warm.
type prepared struct {
	t      *Target
	expect [][]expectation
	added  map[int]int // annotations acknowledged so far, by bird
	failed int
	ops    int
	first  string
}

func (p *prepared) absorb(r *PassResult) {
	p.ops += r.Ops
	p.failed += r.Failed
	for b, n := range r.Added {
		p.added[b] += n
	}
	if p.first == "" {
		p.first = r.FirstError
	}
}

// setUp builds the seeded dataset and the indexes, starts the server,
// draws the constants, computes the reference rows and runs the untimed
// warm-up; all of it is setup_s.
func setUp(ctx context.Context, w *Workload, cfg RunConfig, clients int) (*prepared, time.Duration, error) {
	t0 := time.Now()
	tc := w.Target
	tc.Seed, tc.Birds, tc.Dir = cfg.Seed, cfg.Birds, cfg.Dir
	t, err := OpenTarget(tc)
	if err != nil {
		return nil, 0, err
	}
	p := &prepared{t: t, added: map[int]int{}}
	w.Instantiate(cfg.Seed, cfg.Birds)
	if w.WriteShare == 0 {
		if p.expect, err = Expect(ctx, t, w); err != nil {
			t.Close()
			return nil, 0, err
		}
	}
	// Warm-up: every (shape, constant) about four times over, so sessions
	// are open, statements prepared, and plan cache and pool warm.
	warm := 0
	for i := range w.Shapes {
		warm += 4 * len(w.Shapes[i].Params)
	}
	if cfg.Ops > 0 && warm > cfg.Ops/4 {
		warm = cfg.Ops / 4
	}
	r, err := RunPass(ctx, t, w, p.expect, PassConfig{Seed: cfg.Seed, Clients: clients, Ops: warm, Duration: warmUpCap, Stream: 1}, nil)
	if err != nil {
		t.Close()
		return nil, 0, err
	}
	p.absorb(r)
	return p, time.Since(t0), nil
}

// Run executes one run of one workload and reports its metrics: the
// end-to-end metrics with tracing off, the per-layer metrics with
// tracing on.
func Run(ctx context.Context, cfg RunConfig) (*Result, error) {
	if cfg.Spec == "" {
		cfg.Spec = "BENCHMARK.json"
	}
	var spec Spec
	if err := LoadJSON(cfg.Spec, &spec); err != nil {
		return nil, err
	}
	w := WorkloadByName(cfg.Workload)
	why := spec.why(cfg.Workload)
	if w == nil || why == "" {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Birds <= 0 {
		cfg.Birds = DefaultBirds
	}
	clients := w.Clients
	if cfg.Clients > 0 {
		clients = cfg.Clients
	}
	if n := runtime.NumCPU(); clients > n {
		clients = n
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}

	// One set-up per run: the process's peak memory is then that of one
	// loaded database being served, and the run's seconds go to the window.
	p, setup, err := setUp(ctx, w, cfg, clients)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer p.t.Close()

	res := &Result{
		Workload: w.Name, Why: why, Seed: cfg.Seed, Seconds: cfg.Seconds, Ops: cfg.Ops, Trace: cfg.Trace,
		Clients: clients, Loop: "closed", Environment: environment(), Conditions: p.t.Conditions(),
		Metrics: map[string]Metric{},
	}
	declared := spec.EndToEnd
	if cfg.Trace {
		declared = spec.PerLayer
	}
	units := map[string]string{}
	for _, d := range declared {
		units[d.Name] = d.Unit
	}
	var undeclared []string
	put := func(name string, v float64, samples int) {
		unit, ok := units[name]
		if !ok {
			undeclared = append(undeclared, name)
		}
		res.Metrics[name] = Metric{Value: v, Unit: unit, Samples: samples}
	}

	// The measured pass: the workload's clients, tracing off. A traced
	// run gives it half the time and the traced pass the other half.
	window := time.Duration(cfg.Seconds) * time.Second
	if cfg.Ops > 0 {
		window = 0
	}
	if cfg.Trace {
		window /= 2
	}
	var sampler *walSampler
	if w.WriteShare > 0 {
		sampler = p.t.StartWALSampler()
		defer sampler.Stop()
	}
	c0, err := p.t.Counters()
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	a, err := RunPass(ctx, p.t, w, p.expect, PassConfig{Seed: cfg.Seed, Clients: clients, Ops: cfg.Ops, Duration: window, Stream: 2}, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	c1, err := p.t.Counters()
	if err != nil {
		return nil, err
	}
	if sampler != nil {
		sampler.Stop()
	}
	p.absorb(a)
	delta := c1.Sub(c0)
	res.Counters = &delta
	res.OpHash = fmt.Sprintf("%016x", a.Hash)
	res.SliceOps = opsBySecond(a)

	var recoveryS float64
	var replayed int64
	if w.WriteShare > 0 {
		var bad int
		if bad, recoveryS, replayed, err = p.t.EndChecks(ctx, p.added); err != nil {
			return nil, err
		}
		p.failed += bad
		p.ops += bad
		if bad > 0 && p.first == "" {
			p.first = fmt.Sprintf("%d end checks failed", bad)
		}
	}

	if !cfg.Trace {
		all := durations(a.Samples, false)
		all = append(all, durations(a.Samples, true)...)
		put("setup_s", setup.Seconds(), 1)
		put("ops_per_s", float64(a.Ops)/a.Wall.Seconds(), a.Ops)
		put("p50_ms", quantileMs(all, 0.50), len(all))
		put("p95_ms", quantileMs(all, 0.95), len(all))
		put("rss_peak_mb", rssPeakMB(), 0)
		put("allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(a.Ops), a.Ops)
	} else {
		b, probes, err := tracedPass(ctx, p, w, cfg, window)
		if err != nil {
			return nil, err
		}
		perLayer(put, p.t, a, b, delta, probes, sampler, &m0, &m1)
		put("engine.recovery_s", recoveryS, 0)
		put("wal.replayed_records", float64(replayed), 0)
		if cfg.OutDir != "" {
			tf := TraceFile{Workload: w.Name, Seed: cfg.Seed, Environment: res.Environment,
				Measured: []string{SpanRoundtrip, SpanHandler}, Replayed: ReplayedSpans, Spans: b.Spans}
			if err := writeJSON(filepath.Join(cfg.OutDir, w.Name+".trace.json"), tf, false); err != nil {
				return nil, err
			}
		}
	}
	if len(undeclared) > 0 || len(res.Metrics) != len(declared) {
		return nil, fmt.Errorf("%s declares %d metrics for this run, %d were measured (not declared: %v)",
			cfg.Spec, len(declared), len(res.Metrics), undeclared)
	}
	res.Attempted, res.Failed, res.FirstError = p.ops, p.failed, p.first
	res.Correct = p.failed == 0
	if cfg.OutDir != "" {
		name := w.Name + ".json"
		if cfg.Trace {
			name = w.Name + ".layers.json"
		}
		if err := writeJSON(filepath.Join(cfg.OutDir, name), res, true); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tracedPass runs the second pass of a traced run — one client, the
// same seed, replays after every op — and the standalone probes.
func tracedPass(ctx context.Context, p *prepared, w *Workload, cfg RunConfig, window time.Duration) (*PassResult, Probes, error) {
	rp, err := p.t.NewReplayer(w)
	if err != nil {
		return nil, Probes{}, err
	}
	defer rp.Close()
	b, err := RunPass(ctx, p.t, w, p.expect, PassConfig{Seed: cfg.Seed, Clients: 1, Ops: cfg.Ops, Duration: window, Stream: 2}, rp)
	if err != nil {
		return nil, Probes{}, err
	}
	p.absorb(b)
	texts := b.Texts
	if len(texts) == 0 {
		// Read-only workloads write nothing; the miners are timed on
		// texts drawn as the loader draws them.
		rng := rand.New(rand.NewSource(cfg.Seed))
		for i := 0; i < 256; i++ {
			texts = append(texts, AnnotationText(rng))
		}
	}
	probes, err := p.t.Probe(ctx, w, texts)
	return b, probes, err
}

// perLayer derives the per-layer metrics: counters and latencies from
// the measured pass a, span times from the traced pass b, and the
// standalone probes.
func perLayer(put func(string, float64, int), t *Target, a, b *PassResult, c Counters, pr Probes, s *walSampler, m0, m1 *runtime.MemStats) {
	ops := float64(a.Ops)
	rd, wr := durations(a.Samples, false), durations(a.Samples, true)
	writes := float64(len(wr))
	all := append(append([]time.Duration(nil), rd...), wr...)
	put("http.read_p50_ms", quantileMs(rd, 0.50), len(rd))
	put("http.read_p95_ms", quantileMs(rd, 0.95), len(rd))
	put("http.write_p50_ms", quantileMs(wr, 0.50), len(wr))
	put("http.write_p95_ms", quantileMs(wr, 0.95), len(wr))
	put("server.roundtrip_p99_ms", quantileMs(all, 0.99), len(all))
	put("server.response_bytes_per_op", ratio(float64(a.RespBytes), ops), a.Ops)
	put("server.admission_rejected", float64(c.AdmissionRejected), 0)

	selfUs := func(metric, span string) {
		put(metric, medianInt64(b.Self[span])/1e3, len(b.Self[span]))
	}
	durUs := func(metric, span string) {
		put(metric, medianInt64(b.Dur[span])/1e3, len(b.Dur[span]))
	}
	selfUs("server.net_us", SpanRoundtrip)
	selfUs("server.self_us", SpanHandler)
	selfUs("sql.parse_us", "sql.parse")
	selfUs("sql.bind_us", "sql.bind")
	selfUs("optimizer.cached_plan_us", "optimizer.cached_plan")
	selfUs("optimizer.cold_plan_us", "optimizer.cold_plan")
	durUs("engine.execute_us", "engine.execute")
	durUs("engine.add_annotation_us", "engine.add_annotation")
	durUs("exec.drain_us", "exec.drain")
	for _, op := range []string{"seqscan", "indexscan", "filter", "project", "sort", "join", "groupby", "gather", "other"} {
		selfUs("exec."+op+"_self_us", "exec."+op)
	}
	selfUs("index.search_us", "index.search")
	selfUs("wal.append_us", "wal.append")
	selfUs("wal.commit_wait_us", "wal.commit_wait")

	var examined, returned, hits, nodes, searches float64
	est := 1.0
	for _, rs := range b.Stats {
		examined += float64(rs.RowsExamined)
		returned += float64(rs.RowsOut)
		if rs.IndexNodes > 0 || rs.IndexHits > 0 {
			searches++
			hits += float64(rs.IndexHits)
			nodes += float64(rs.IndexNodes)
		}
		if rs.EstRatio > est {
			est = rs.EstRatio
		}
	}
	put("exec.rows_examined_per_row_returned", ratio(examined, returned), len(b.Stats))
	put("optimizer.est_vs_actual_max_ratio", est, len(b.Stats))
	put("index.hits_per_search", ratio(hits, searches), int(searches))
	put("btree.nodes_per_search", ratio(nodes, searches), int(searches))

	g := t.Gauges()
	put("btree.height", float64(g.BTreeHeight), 0)
	put("pager.frames", float64(g.PoolFrames), 0)
	put("heap.pages_total", float64(t.pagesTotal), 0)
	put("heap.pages_per_op", ratio(float64(c.PageReads+c.PageWrites), ops), a.Ops)
	put("pager.hit_ratio", ratio(float64(c.CacheHits), float64(c.CacheHits+c.CacheMisses)), 0)
	put("pager.phys_reads_per_op", ratio(float64(c.PhysReads), ops), a.Ops)
	put("pager.evictions_per_op", ratio(float64(c.Evictions), ops), a.Ops)
	put("pager.prefetched_per_op", ratio(float64(c.Prefetched), ops), a.Ops)
	put("pager.miss_us", pr.MissUs, 0)

	put("optimizer.plancache_hit_ratio", ratio(float64(c.PlanHits), float64(c.PlanHits+c.PlanMisses)), 0)
	put("optimizer.plancache_invalidations", float64(c.PlanInvalidations), 0)
	put("engine.ingest_ops_per_flush", ratio(float64(c.IngestFlushedOps), float64(c.IngestFlushes)), 0)
	put("engine.ingest_flushes_per_write", ratio(float64(c.IngestFlushes), writes), 0)
	put("index.update_ops_per_annotation", ratio(float64(c.IndexUpdates), writes), 0)
	put("mvcc.epochs_published", float64(c.Epochs), 0)

	put("wal.fsyncs_per_commit", ratio(float64(c.Fsyncs), float64(c.Commits)), 0)
	put("wal.group_commit_batch_size", ratio(float64(c.Commits), float64(c.CommitBatches)), 0)
	put("wal.checkpoints", float64(c.Checkpoints), 0)
	put("wal.checkpoint_s", pr.CheckpointS, 0)
	var logBytes, ckptBytes float64
	if s != nil {
		logBytes, ckptBytes = float64(s.LogBytes), float64(s.CkptBytes)
	}
	put("wal.bytes_per_annotation", ratio(logBytes, writes), len(wr))
	put("wal.bytes_per_user_byte", ratio(logBytes+ckptBytes, float64(a.AckedBytes)), len(wr))

	put("sql.normalize_us", pr.NormalizeUs, 0)
	put("model.merge_us_per_object", pr.MergeUsPerObject, 0)
	put("model.project_us_per_object", pr.ProjectUsPerObject, 0)
	put("mvcc.pin_unpin_ns", pr.PinUnpinNs, 0)
	put("mvcc.publish_us", pr.PublishUs, 0)
	put("mining.bayes_classify_us", pr.ClassifyUs, 0)
	put("mining.lsa_summarize_us", pr.LSAUs, 0)
	put("mining.clustream_insert_us", pr.CluStreamUs, 0)

	put("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), 0)
	put("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, 0)
	put("runtime.heap_bytes_per_op", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), ops), a.Ops)

	traced := ratio(float64(b.TracedCount), float64(b.TracedNs))
	untraced := ratio(float64(b.UntracedCount), float64(b.UntracedNs))
	put("trace.overhead_ratio", ratio(traced, untraced), b.TracedCount)
	put("trace.replay_coverage", ratio(float64(b.ReplayNs), float64(b.HandlerNs)), b.TracedCount)
	put("trace.clamped_ops", float64(b.Clamped), b.TracedCount)
}

func writeJSON(path string, v any, indent bool) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b []byte
	var err error
	if indent {
		b, err = json.MarshalIndent(v, "", "  ")
	} else {
		b, err = json.Marshal(v)
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
