// target.go is the only file of the benchmark that touches the engine
// and server packages. Everything the harness knows about the system
// under test — how to configure it, load it, serve it, ask it for
// counters, and call one layer's public function directly — is here,
// so a PR that deletes an engine path edits this file and nothing else.
//
// Only the engine.Config fields ROADMAP item 3 keeps are used: PageCap,
// BufferPoolPages, WALDir, GroupCommitWindow, CheckpointEveryN,
// IngestFlushOps, PlanCacheSize, MaxBatchSize, MaxParallelWorkers.
package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/mining/bayes"
	"repro/internal/mining/clustream"
	"repro/internal/mining/lsa"
	"repro/internal/model"
	"repro/internal/mvcc"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Fixed conditions. They are recorded in every result file; the engine
// configuration is always passed explicitly, never taken from defaults.
const (
	pageCap           = 64
	planCacheSize     = 256
	maxBatchSize      = 1024
	ingestFlushOps    = 64
	groupCommitWindow = time.Millisecond
	avgAnnotations    = 10
	longFraction      = 0.03
	synonymsPerBird   = 3
	loadTxnBirds      = 100 // birds per bulk-load transaction
	// Admission as cmd/insightnotesd defaults it.
	admitSlots = 64
	admitQueue = 128
	admitWait  = time.Second
)

// maxParallelWorkers is min(nproc, 4), the served configuration.
func maxParallelWorkers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// TargetConfig is what a workload asks of the system under test.
type TargetConfig struct {
	// Seed generates the dataset: the birds' values and every annotation.
	Seed  int64
	Birds int
	// Synonyms adds the Synonyms table (3 per bird, data index on
	// bird_id) for the join shapes of analytic_scan.
	Synonyms bool
	// PoolFraction > 0 bounds the buffer pool to that share of the pages
	// a resident build of the same dataset holds.
	PoolFraction float64
	// Durable opens the database with a WAL under Dir, links a Cluster
	// instance as well, and checkpoints every CheckpointEveryN commits.
	Durable          bool
	CheckpointEveryN int
	// GCPercent > 0 is the GOGC the serving process runs with; 0 leaves the
	// runtime's default of 100.
	GCPercent int
	// Dir is a scratch directory inside the checkout (WAL, copies).
	Dir string
}

// Conditions is the record of the fixed conditions of one run.
type Conditions struct {
	Birds              int     `json:"birds"`
	Annotations        int     `json:"annotations"`
	PageCap            int     `json:"page_cap"`
	PlanCacheSize      int     `json:"plan_cache_size"`
	MaxBatchSize       int     `json:"max_batch_size"`
	MaxParallelWorkers int     `json:"max_parallel_workers"`
	IngestFlushOps     int     `json:"ingest_flush_ops"`
	GCPercent          int     `json:"gc_percent"`
	BufferPoolPages    int     `json:"buffer_pool_pages"`
	PagesTotal         int64   `json:"pages_total"`
	GroupCommitMs      float64 `json:"group_commit_window_ms"`
	CheckpointEveryN   int     `json:"checkpoint_every_n"`
	Admission          string  `json:"admission"`
}

// Target is a loaded database served on a loopback TCP listener.
type Target struct {
	cfg    TargetConfig
	engCfg engine.Config
	DB     *engine.DB
	srv    *server.Server
	httpd  *http.Server
	served chan struct{}
	URL    string
	mw     *middleware
	// gcBefore is the process's GOGC before a TargetConfig.GCPercent
	// replaced it; Close puts it back.
	gcBefore int

	// Ground truth kept by the loader: annotations per bird id
	// (1-based index) and their total.
	annsPerBird []int
	birdOIDs    []int64
	preloadAnns int
	pagesTotal  int64
}

func (c TargetConfig) engineConfig(poolPages int) engine.Config {
	ec := engine.Config{
		PageCap:            pageCap,
		BufferPoolPages:    poolPages,
		PlanCacheSize:      planCacheSize,
		MaxBatchSize:       maxBatchSize,
		MaxParallelWorkers: maxParallelWorkers(),
		IngestFlushOps:     ingestFlushOps,
	}
	if c.Durable {
		ec.WALDir = filepath.Join(c.Dir, "wal")
		ec.GroupCommitWindow = groupCommitWindow
		ec.CheckpointEveryN = c.CheckpointEveryN
	}
	return ec
}

// OpenTarget builds the dataset, creates the indexes and starts serving
// it.
func OpenTarget(cfg TargetConfig) (*Target, error) {
	poolPages := 0
	if cfg.PoolFraction > 0 {
		poolPages = int(float64(residentPages(cfg.Birds, cfg.Synonyms)) * cfg.PoolFraction)
	}
	t := &Target{cfg: cfg, engCfg: cfg.engineConfig(poolPages)}
	if cfg.GCPercent > 0 {
		t.gcBefore = debug.SetGCPercent(cfg.GCPercent)
	}
	if cfg.Durable {
		if err := os.RemoveAll(t.engCfg.WALDir); err != nil {
			return nil, err
		}
	}
	db, err := engine.Open(t.engCfg)
	if err != nil {
		return nil, err
	}
	t.DB = db
	if err := t.load(); err != nil {
		db.Close()
		return nil, err
	}
	if err := t.serve(); err != nil {
		db.Close()
		return nil, err
	}
	return t, nil
}

// residentPages is the number of pages the pool would have to hold for
// the dataset to be resident: rows ÷ PageCap per heap file (Birds, its
// summary storage, the annotations) plus the index nodes. It is
// computed, not measured, so that pool_lookup can size its pool before
// loading; Conditions records the measured count next to it.
func residentPages(birds int, synonyms bool) int {
	pages := 2 * ((birds + pageCap - 1) / pageCap) // Birds rows, summary storage
	pages += (birds*avgAnnotations + pageCap - 1) / pageCap
	// The Summary-BTree: 4 labels per bird, order 64.
	pages += (4*birds)/(pageCap/2) + 1
	if synonyms {
		pages += 2 * (synonymsPerBird*birds + pageCap - 1) / pageCap
	}
	return pages
}

func (t *Target) load() error {
	db, cfg := t.DB, t.cfg
	if _, err := db.CreateTable("Birds", workload.BirdsSchema()); err != nil {
		return err
	}
	if err := db.DefineClassifier("ClassBird1", workload.Categories, workload.TrainingSet()); err != nil {
		return err
	}
	if err := db.DefineSnippet("TextSummary1", 1000, 400); err != nil {
		return err
	}
	links := []string{"ClassBird1", "TextSummary1"}
	if cfg.Durable {
		// All three of the paper's summary types are maintained on the
		// ingest path.
		if err := db.DefineCluster("ClusterBird1", 4); err != nil {
			return err
		}
		links = append(links, "ClusterBird1")
	}
	for _, inst := range links {
		if err := db.LinkInstance("Birds", inst, false); err != nil {
			return err
		}
	}
	if cfg.Synonyms {
		if _, err := db.CreateTable("Synonyms", workload.SynonymsSchema()); err != nil {
			return err
		}
		if err := db.LinkInstance("Synonyms", "TextSummary1", false); err != nil {
			return err
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	t.annsPerBird = make([]int, cfg.Birds+1)
	t.birdOIDs = make([]int64, cfg.Birds+1)
	synID := int64(0)
	for lo := 1; lo <= cfg.Birds; lo += loadTxnBirds {
		hi := lo + loadTxnBirds - 1
		if hi > cfg.Birds {
			hi = cfg.Birds
		}
		tx := db.Begin()
		for i := lo; i <= hi; i++ {
			oid, err := tx.Insert("Birds", birdValues(rng, i)...)
			if err != nil {
				tx.Rollback()
				return err
			}
			n := avgAnnotations/2 + rng.Intn(avgAnnotations+1)
			for a := 0; a < n; a++ {
				if _, err := tx.AddAnnotation("Birds", oid, AnnotationText(rng), nil, "loader"); err != nil {
					tx.Rollback()
					return err
				}
			}
			t.annsPerBird[i] = n
			t.birdOIDs[i] = oid
			t.preloadAnns += n
			if cfg.Synonyms {
				for s := 0; s < synonymsPerBird; s++ {
					synID++
					if _, err := tx.Insert("Synonyms", model.NewInt(synID), model.NewInt(int64(i)),
						model.NewText(fmt.Sprintf("synonym-%d-%d", i, s))); err != nil {
						tx.Rollback()
						return err
					}
				}
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		return err
	}
	if cfg.Synonyms {
		if err := db.CreateDataIndex("Synonyms", "bird_id"); err != nil {
			return err
		}
	}
	t.pagesTotal = t.countPages()
	return nil
}

// countPages counts, at the end of set-up, the heap pages of every
// table, the pages of the annotation file (which has no page counter:
// annotations ÷ PageCap) and the nodes of the Summary-BTree.
func (t *Target) countPages() int64 {
	n := int64((t.DB.AnnotationCount() + pageCap - 1) / pageCap)
	for _, name := range []string{"Birds", "Synonyms"} {
		tb, err := t.DB.Table(name)
		if err != nil {
			continue
		}
		n += int64(tb.Data.Pages() + tb.SummaryStorage.Pages())
	}
	if idx := t.DB.SummaryIndex("Birds", "ClassBird1"); idx != nil {
		n += int64(idx.Tree().Nodes())
	}
	return n
}

var (
	genera   = []string{"Anser", "Corvus", "Larus", "Falco", "Turdus", "Parus", "Anas", "Ardea"}
	families = []string{"Anatidae", "Corvidae", "Laridae", "Falconidae", "Turdidae", "Paridae", "Ardeidae"}
	habitats = []string{"wetland", "forest", "coastal", "grassland", "urban", "alpine"}
	regions  = []string{"Palearctic", "Nearctic", "Neotropic", "Afrotropic", "Indomalaya", "Australasia"}
	statuses = []string{"LC", "NT", "VU", "EN", "CR"}
)

// workloadLabels are the ClassBird1 labels statements draw from.
var workloadLabels = workload.Categories

func birdValues(rng *rand.Rand, i int) []model.Value {
	genus := genera[rng.Intn(len(genera))]
	return []model.Value{
		model.NewInt(int64(i)),
		model.NewText(fmt.Sprintf("%s synthetica%03d", genus, i%997)),
		model.NewText(fmt.Sprintf("bird %05d", i)),
		model.NewText(genus),
		model.NewText(families[rng.Intn(len(families))]),
		model.NewText(habitats[rng.Intn(len(habitats))]),
		model.NewText(regions[rng.Intn(len(regions))]),
		model.NewInt(int64(30 + rng.Intn(250))),
		model.NewInt(int64(15 + rng.Intn(12000))),
		model.NewText(statuses[rng.Intn(len(statuses))]),
		model.NewText("a synthetic bird generated for the InsightNotes+ reproduction"),
		model.NewInt(int64(rng.Intn(5) + 1)),
	}
}

// labelWeights are the shares of the categories among the annotations,
// in the order of workloadLabels, as the generator of internal/workload
// weighs them.
var labelWeights = []float64{0.15, 0.25, 0.35, 0.25}

// AnnotationText draws one annotation as the generator of
// internal/workload does: a weighted category, 3% long enough to be
// LSA-summarized.
func AnnotationText(rng *rand.Rand) string {
	label, r := workloadLabels[len(workloadLabels)-1], rng.Float64()
	for i, w := range labelWeights {
		if r < w {
			label = workloadLabels[i]
			break
		}
		r -= w
	}
	return workload.AnnotationText(rng, label, rng.Float64() < longFraction)
}

func (t *Target) serve() error {
	srv, err := server.New(server.Config{
		DB: t.DB,
		DefaultTenant: server.TenantConfig{
			MaxConcurrent: admitSlots,
			QueueDepth:    admitQueue,
			QueueWait:     admitWait,
		},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	t.srv = srv
	t.mw = &middleware{next: srv}
	t.httpd = &http.Server{Handler: t.mw}
	t.served = make(chan struct{})
	t.URL = "http://" + ln.Addr().String()
	go func() {
		defer close(t.served)
		_ = t.httpd.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return nil
}

// Close stops the listener, drains the server, closes the database and
// waits for the serving goroutine.
func (t *Target) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.httpd.Shutdown(ctx)
	<-t.served
	t.srv.Close()
	if cerr := t.DB.Close(); err == nil {
		err = cerr
	}
	if t.cfg.GCPercent > 0 {
		debug.SetGCPercent(t.gcBefore)
	}
	return err
}

// Conditions reports the fixed conditions this target runs under.
func (t *Target) Conditions() Conditions {
	return Conditions{
		Birds:              t.cfg.Birds,
		Annotations:        t.preloadAnns,
		PageCap:            t.engCfg.PageCap,
		PlanCacheSize:      t.engCfg.PlanCacheSize,
		MaxBatchSize:       t.engCfg.MaxBatchSize,
		MaxParallelWorkers: t.engCfg.MaxParallelWorkers,
		IngestFlushOps:     t.engCfg.IngestFlushOps,
		GCPercent:          max(t.cfg.GCPercent, 100),
		BufferPoolPages:    t.engCfg.BufferPoolPages,
		PagesTotal:         t.pagesTotal,
		GroupCommitMs:      float64(t.engCfg.GroupCommitWindow) / float64(time.Millisecond),
		CheckpointEveryN:   t.engCfg.CheckpointEveryN,
		Admission:          fmt.Sprintf("%d slots / %d queue / %s wait", admitSlots, admitQueue, admitWait),
	}
}

// ---- reference rows ----

// refOptions is the different plan expected rows are computed through:
// no Summary-BTree, row mode, serial.
var refOptions = &optimizer.Options{NoSummaryIndex: true, MaxBatchSize: 1, MaxParallelWorkers: 1}

// Reference runs a statement through the reference plan and returns its
// rows in the canonical form responses are compared in: the JSON array
// of the row's values, a NUL, and the row's propagated summaries.
func (t *Target) Reference(ctx context.Context, sqlText string) ([]string, error) {
	res, err := t.DB.QueryContext(ctx, sqlText, refOptions)
	if err != nil {
		return nil, err
	}
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		vals := make([]any, len(row.Tuple.Values))
		for j, v := range row.Tuple.Values {
			switch v.Kind {
			case model.KindInt:
				vals[j] = v.Int
			case model.KindFloat:
				vals[j] = v.Float
			case model.KindText:
				vals[j] = v.Text
			case model.KindBool:
				vals[j] = v.Bool
			}
		}
		b, err := json.Marshal(vals)
		if err != nil {
			return nil, err
		}
		rows[i] = string(b) + "\x00"
		if set := row.Tuple.Summaries; len(set) > 0 {
			rows[i] += set.String()
		}
	}
	return rows, nil
}

func toValues(params []any) []model.Value {
	out := make([]model.Value, len(params))
	for i, p := range params {
		switch v := p.(type) {
		case int:
			out[i] = model.NewInt(int64(v))
		case string:
			out[i] = model.NewText(v)
		}
	}
	return out
}

// ---- counters ----

// Counters is a snapshot of the public counters of every layer; passes
// report the difference of two snapshots.
type Counters struct {
	PageReads, PageWrites, NodeReads                         int64
	PhysReads, PhysWrites, CacheHits, CacheMisses, Evictions int64
	Prefetched                                               int64
	WALAppends, Fsyncs, Commits, CommitBatches, Checkpoints  int64
	IngestBuffered, IngestFlushes, IngestFlushedOps          int64
	PlanHits, PlanMisses, PlanInvalidations                  int64
	IndexUpdates, Epochs                                     int64
	AdmissionRejected                                        int64
}

// Counters reads DB.Metrics(), the accountant's clock, the Summary-BTree
// update counter and GET /metrics.
func (t *Target) Counters() (Counters, error) {
	m := t.DB.Metrics()
	c := Counters{
		PageReads: m.IO.PageReads, PageWrites: m.IO.PageWrites, NodeReads: m.IO.NodeReads,
		PhysReads: m.IO.PhysReads, PhysWrites: m.IO.PhysWrites,
		CacheHits: m.IO.CacheHits, CacheMisses: m.IO.CacheMisses,
		Evictions: m.IO.Evictions, Prefetched: m.IO.Prefetched,
		Epochs: int64(t.DB.Accountant().Clock().Cur()),
	}
	if w := m.WAL; w != nil {
		c.WALAppends, c.Fsyncs, c.Commits = w.WALAppends, w.Fsyncs, w.Commits
		c.CommitBatches, c.Checkpoints = w.GroupCommitBatches, w.Checkpoints
	}
	if g := m.Ingest; g != nil {
		c.IngestBuffered, c.IngestFlushes, c.IngestFlushedOps = g.BufferedOps, g.Flushes, g.FlushedOps
	}
	if p := m.PlanCache; p != nil {
		c.PlanHits, c.PlanMisses, c.PlanInvalidations = p.Hits, p.Misses, p.Invalidations
	}
	if idx := t.DB.SummaryIndex("Birds", "ClassBird1"); idx != nil {
		c.IndexUpdates = idx.UpdateOps()
	}
	resp, err := http.Get(t.URL + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	var doc struct {
		Tenants map[string]struct {
			Rejected      int64 `json:"rejected"`
			QueueTimeouts int64 `json:"queue_timeouts"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return c, fmt.Errorf("GET /metrics: %w", err)
	}
	for _, tn := range doc.Tenants {
		c.AdmissionRejected += tn.Rejected + tn.QueueTimeouts
	}
	return c, nil
}

// Sub returns c − o, field by field (every field is an int64).
func (c Counters) Sub(o Counters) Counters {
	cv, ov := reflect.ValueOf(&c).Elem(), reflect.ValueOf(o)
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetInt(cv.Field(i).Int() - ov.Field(i).Int())
	}
	return c
}

// Gauges are the sizes that are read once, after a pass.
type Gauges struct {
	BTreeHeight int
	PoolFrames  int
}

func (t *Target) Gauges() Gauges {
	var g Gauges
	if idx := t.DB.SummaryIndex("Birds", "ClassBird1"); idx != nil {
		g.BTreeHeight = idx.Tree().Height()
	}
	if p := t.DB.BufferPool(); p != nil {
		g.PoolFrames = p.Stats().Frames
	}
	return g
}

// BirdOID maps a 1-based bird number to its OID.
func (t *Target) BirdOID(bird int) int64 { return t.birdOIDs[bird] }

// ---- replays: one op's input against each layer's public function ----

// replayer holds what the replays need besides the database: the
// harness's own parsed statements, its own plan cache, and a standalone
// log for the wal spans.
type replayer struct {
	t     *Target
	w     *Workload
	sels  []*sql.SelectStmt
	stmts []*engine.Stmt
	cache *optimizer.PlanCache
	opts  optimizer.Options
	log   *wal.Log
}

// NewReplayer prepares the replays of a workload's shapes.
func (t *Target) NewReplayer(w *Workload) (*replayer, error) {
	r := &replayer{t: t, w: w, cache: optimizer.NewPlanCache(planCacheSize),
		opts: optimizer.Options{MaxParallelWorkers: maxParallelWorkers(), MaxBatchSize: maxBatchSize}}
	for i := range w.Shapes {
		st, err := sql.Parse(w.Shapes[i].SQL)
		if err != nil {
			return nil, err
		}
		r.sels = append(r.sels, st.(*sql.SelectStmt))
		ps, err := t.DB.Prepare(w.Shapes[i].SQL)
		if err != nil {
			return nil, err
		}
		r.stmts = append(r.stmts, ps)
	}
	if t.cfg.Durable {
		l, err := wal.Open(filepath.Join(t.cfg.Dir, "probe.wal"), wal.Options{GroupCommitWindow: groupCommitWindow})
		if err != nil {
			return nil, err
		}
		r.log = l
	}
	return r, nil
}

func (r *replayer) Close() {
	if r.log != nil {
		r.log.Close()
	}
}

// env is the optimizer environment over the live structures. The traced
// pass has one client and replays between requests, so the live state
// is the state the served execution saw.
func (r *replayer) env(propagate bool) *optimizer.Env {
	db := r.t.DB
	return &optimizer.Env{
		Cat:         db.Catalog(),
		SummaryIdx:  db.SummaryIndex,
		BaselineIdx: db.BaselineIndex,
		Annotations: db.Catalog().Anns.ForTuple,
		Lookup:      db.Catalog().Anns.Lookup(),
		Propagate:   propagate,
	}
}

func elapsed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func timed(name string, fn func()) *spanNode {
	return &spanNode{Name: name, Dur: elapsed(fn)}
}

var indexOps = map[string]index.CmpOp{"=": index.OpEq, ">": index.OpGt, ">=": index.OpGe}

// readStats is what a read replay counts besides time.
type readStats struct {
	IndexHits, IndexNodes int64 // index.search: RIDs found, B-Tree nodes read
	RowsExamined, RowsOut int64 // leaf operator rows, root rows
	EstRatio              float64
}

// Read replays one read op: engine.execute as the handler calls it,
// then each layer below it on the same input.
func (r *replayer) Read(ctx context.Context, op Op) (*spanNode, readStats, error) {
	sh := &r.w.Shapes[op.Shape]
	params := sh.Params[op.Const]
	text := sh.Inline(params)
	db := r.t.DB
	var err error
	var rs readStats

	vals := toValues(params)
	root := &spanNode{Name: "engine.execute"}
	if r.w.Adhoc {
		root.Dur = elapsed(func() { _, err = db.ExecContext(ctx, text) })
	} else {
		root.Dur = elapsed(func() { _, err = r.stmts[op.Shape].ExecuteContext(ctx, vals, nil) })
	}
	if err != nil {
		return nil, rs, err
	}

	var sel *sql.SelectStmt
	if r.w.Adhoc {
		root.Children = append(root.Children, timed("sql.parse", func() {
			var st sql.Statement
			st, err = sql.Parse(text)
			if err == nil {
				sel = st.(*sql.SelectStmt)
			}
		}))
	} else {
		root.Children = append(root.Children, timed("sql.bind", func() {
			sel, err = sql.BindSelect(r.sels[op.Shape], vals)
		}))
	}
	if err != nil {
		return nil, rs, err
	}

	env := r.env(sel.Propagate)
	build := func() (plan.Node, error) {
		b := &plan.Builder{Cat: env.Cat}
		n, resolver, err := b.Build(sel)
		if err != nil {
			return nil, err
		}
		return optimizer.Optimize(n, resolver, env, r.opts), nil
	}
	if r.w.Adhoc {
		root.Children = append(root.Children, timed("optimizer.cold_plan", func() {
			var n plan.Node
			if n, err = build(); err == nil {
				_, err = optimizer.Compile(n, env, r.opts)
			}
		}))
	} else {
		key := fmt.Sprintf("%d\x00%d", op.Shape, op.Const)
		version := db.CatalogVersion()
		if _, ok := r.cache.Get(key, version); !ok {
			n, err := build()
			if err != nil {
				return nil, rs, err
			}
			r.cache.Put(key, version, n)
		}
		root.Children = append(root.Children, timed("optimizer.cached_plan", func() {
			skel, _ := r.cache.Get(key, version)
			var n plan.Node
			if n, err = optimizer.Rebind(skel, env); err == nil {
				_, err = optimizer.Compile(n, env, r.opts)
			}
		}))
	}
	if err != nil {
		return nil, rs, err
	}

	ap, err := db.ExplainAnalyzeContext(ctx, text, nil)
	if err != nil {
		return nil, rs, err
	}
	drain := &spanNode{Name: "exec.drain"}
	var search *spanNode
	if sh.IndexOp != "" {
		if idx := db.SummaryIndex("Birds", "ClassBird1"); idx != nil {
			label, c := params[sh.IndexLabel].(string), params[sh.IndexParam].(int)
			n0 := db.Accountant().Stats().NodeReads
			search = timed("index.search", func() { rs.IndexHits = int64(len(idx.Search(label, indexOps[sh.IndexOp], c))) })
			rs.IndexNodes = db.Accountant().Stats().NodeReads - n0
		}
	}
	rs.EstRatio = 1
	drain.Children = opTree(ap.Root, search, &rs)
	for _, c := range drain.Children {
		drain.Dur += c.Dur
	}
	rs.RowsOut = int64(len(ap.Result.Rows))
	root.Children = append(root.Children, drain)
	return root, rs, nil
}

// opSpanName maps a physical operator onto the per-layer metric names.
func opSpanName(op string) string {
	switch {
	case op == "SeqScan":
		return "exec.seqscan"
	case strings.HasSuffix(op, "IndexScan"):
		return "exec.indexscan"
	case op == "Filter" || op == "SummarySelect" || op == "SummaryFilter":
		return "exec.filter"
	case op == "Project" || op == "SummaryProject":
		return "exec.project"
	case strings.HasSuffix(op, "Sort"):
		return "exec.sort"
	case strings.HasSuffix(op, "Join"):
		return "exec.join"
	case strings.HasSuffix(op, "GroupBy"):
		return "exec.groupby"
	case op == "Gather":
		return "exec.gather"
	default:
		return "exec.other" // Limit, Distinct
	}
}

// opTree turns the annotated plan into nested spans (inclusive wall time
// per operator, as EXPLAIN ANALYZE records it). Nodes the compiler
// collapsed have no stats; their children stand in for them.
func opTree(a *optimizer.AnalyzedNode, search *spanNode, rs *readStats) []*spanNode {
	var kids []*spanNode
	for _, c := range a.Children {
		kids = append(kids, opTree(c, search, rs)...)
	}
	if a.Stats == nil {
		return kids
	}
	n := &spanNode{Name: opSpanName(a.Stats.Name), Dur: a.Stats.Wall(), Children: kids}
	if len(a.Children) == 0 {
		rs.RowsExamined += a.Stats.Rows
		if n.Name == "exec.indexscan" && search != nil {
			n.Children = append(n.Children, search)
		}
	}
	est, act := a.Est.Rows+1, float64(a.Stats.Rows)+1
	if ratio := est / act; ratio > rs.EstRatio {
		rs.EstRatio = ratio
	} else if 1/ratio > rs.EstRatio {
		rs.EstRatio = 1 / ratio
	}
	return []*spanNode{n}
}

// Write replays one write op: AddAnnotation as the handler calls it
// (a second annotation on the same bird, counted by the caller), and
// the log append and group-commit wait of a record of the same size on
// a standalone log.
func (r *replayer) Write(op Op) (*spanNode, error) {
	var err error
	root := timed("engine.add_annotation", func() {
		_, err = r.t.DB.AddAnnotation("Birds", r.t.BirdOID(op.Bird), op.Text, nil, "replay")
	})
	if err != nil || r.log == nil {
		return root, err
	}
	payload := make([]byte, len(op.Text)+64)
	var lsn uint64
	root.Children = append(root.Children,
		timed("wal.append", func() { lsn, err = r.log.Append(wal.Type(1), 1, payload) }))
	if err != nil {
		return root, err
	}
	root.Children = append(root.Children,
		timed("wal.commit_wait", func() { err = r.log.Commit(lsn) }))
	return root, err
}

// ---- standalone probes ----

func medianDur(d []time.Duration) float64 {
	v := make([]int64, len(d))
	for i := range d {
		v[i] = int64(d[i])
	}
	return medianInt64(v)
}

// Probes are the layers timed on their own, outside any request.
type Probes struct {
	NormalizeUs                          float64
	MergeUsPerObject, ProjectUsPerObject float64
	PinUnpinNs, PublishUs                float64
	ClassifyUs, LSAUs, CluStreamUs       float64
	MissUs                               float64
	CheckpointS                          float64
}

// Probe times sql.Normalize on the workload's statements, model merge
// and project on stored summary sets, a standalone mvcc.Clock, the
// three miners on texts (the run's own annotation texts), and — with a
// pool — one statement cold against warm.
func (t *Target) Probe(ctx context.Context, w *Workload, texts []string) (Probes, error) {
	var p Probes
	var d []time.Duration
	for i := range w.Shapes {
		text := w.Shapes[i].Inline(w.Shapes[i].Params[0])
		for k := 0; k < 50; k++ {
			d = append(d, elapsed(func() { sql.Normalize(text) }))
		}
	}
	p.NormalizeUs = medianDur(d) / 1e3

	birds, err := t.DB.Table("Birds")
	if err != nil {
		return p, err
	}
	lookup := t.DB.Catalog().Anns.Lookup()
	var sets []model.SummarySet
	for b := 1; b <= t.cfg.Birds && len(sets) < 200; b += 1 + t.cfg.Birds/200 {
		if s := birds.GetSummaries(t.BirdOID(b)); len(s) > 0 {
			sets = append(sets, s)
		}
	}
	var merge, project []time.Duration
	for i := 1; i < len(sets); i++ {
		a, b := sets[i-1], sets[i]
		merge = append(merge, elapsed(func() { model.MergeSets(a, b, lookup) })/time.Duration(len(a)))
		project = append(project, elapsed(func() { model.ProjectSummaries(a, model.KeepAll, lookup) })/time.Duration(len(a)))
	}
	p.MergeUsPerObject = medianDur(merge) / 1e3
	p.ProjectUsPerObject = medianDur(project) / 1e3

	clock := mvcc.New()
	clock.Publish(0)
	t0 := time.Now()
	const pins = 20000
	for i := 0; i < pins; i++ {
		_, s := clock.Pin()
		clock.Unpin(s)
	}
	p.PinUnpinNs = float64(time.Since(t0)) / pins
	d = d[:0]
	for i := 0; i < 2000; i++ {
		d = append(d, elapsed(func() { clock.Publish(i) }))
	}
	p.PublishUs = medianDur(d) / 1e3

	clf := t.DB.Classifier("ClassBird1")
	if clf == nil {
		clf = bayes.New(workload.Categories...)
	}
	summarizer := lsa.DefaultSummarizer()
	clusterer := clustream.New(clustream.Config{MaxClusters: 4})
	var classify, summarize, cluster []time.Duration
	for i, text := range texts {
		classify = append(classify, elapsed(func() { clf.Classify(text) }))
		cluster = append(cluster, elapsed(func() { clusterer.Insert(int64(i), text, float64(i)) }))
		if len(text) > 1000 {
			summarize = append(summarize, elapsed(func() { summarizer.Summarize(text) }))
		}
	}
	p.ClassifyUs = medianDur(classify) / 1e3
	p.CluStreamUs = medianDur(cluster) / 1e3
	p.LSAUs = medianDur(summarize) / 1e3

	if pool := t.DB.BufferPool(); pool != nil {
		sh := &w.Shapes[len(w.Shapes)-1]
		text := sh.Inline(sh.Params[0])
		var per []time.Duration
		for k := 0; k < 5; k++ {
			pool.EvictAll()
			m0 := t.DB.Accountant().Stats().CacheMisses
			cold := elapsed(func() { _, err = t.DB.QueryContext(ctx, text, nil) })
			misses := t.DB.Accountant().Stats().CacheMisses - m0
			if err != nil {
				return p, err
			}
			warm := elapsed(func() { _, err = t.DB.QueryContext(ctx, text, nil) })
			if err != nil {
				return p, err
			}
			if misses > 0 && cold > warm {
				per = append(per, (cold-warm)/time.Duration(misses))
			}
		}
		p.MissUs = medianDur(per) / 1e3
	}
	if t.cfg.Durable {
		t0 := time.Now()
		if _, err := t.DB.Checkpoint(); err != nil {
			return p, err
		}
		p.CheckpointS = time.Since(t0).Seconds()
	}
	return p, nil
}

// ---- durable state: bytes written, end checks, recovery ----

// walSampler adds up what the log and the checkpoints write, from
// outside: the growth of wal.log between samples (a checkpoint
// compacts it, so shrinking is not counted) and the size of every new
// checkpoint.snap.
type walSampler struct {
	dir        string
	stop, done chan struct{}
	once       sync.Once
	LogBytes   int64
	CkptBytes  int64
}

func (t *Target) StartWALSampler() *walSampler {
	s := &walSampler{dir: t.engCfg.WALDir, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var lastLog int64 = -1
		var lastCkpt os.FileInfo
		sample := func() {
			if fi, err := os.Stat(filepath.Join(s.dir, "wal.log")); err == nil {
				if lastLog >= 0 && fi.Size() > lastLog {
					s.LogBytes += fi.Size() - lastLog
				}
				lastLog = fi.Size()
			}
			if fi, err := os.Stat(filepath.Join(s.dir, "checkpoint.snap")); err == nil {
				if lastCkpt != nil && !os.SameFile(fi, lastCkpt) {
					s.CkptBytes += fi.Size()
				}
				lastCkpt = fi
			}
		}
		sample()
		for {
			select {
			case <-s.stop:
				sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return s
}

// Stop ends the sampler and waits for it; stopping twice is harmless.
func (s *walSampler) Stop() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// EndChecks verifies the durable workload's end state. added maps bird
// number → annotations acknowledged for it since set-up. It returns
// the number of mismatches found, the time engine.Open took to recover
// a copy of the directory made without Close, and the records that
// recovery replayed.
func (t *Target) EndChecks(ctx context.Context, added map[int]int) (mismatches int, recoveryS float64, replayed int64, err error) {
	total := t.preloadAnns
	for _, n := range added {
		total += n
	}
	if got := t.DB.AnnotationCount(); got != total {
		mismatches++
		fmt.Fprintf(os.Stderr, "end check: %d annotations, want %d (preload %d + acknowledged)\n", got, total, t.preloadAnns)
	}

	// Label counts of sampled birds sum to their annotation counts: no
	// annotation is classified twice or lost between buffer and flush.
	sample := make([]int, 0, 200)
	for b := range added {
		if len(sample) < 150 {
			sample = append(sample, b)
		}
	}
	for b := 1; b <= t.cfg.Birds && len(sample) < 200; b += 1 + t.cfg.Birds/50 {
		sample = append(sample, b)
	}
	for _, b := range sample {
		q := fmt.Sprintf("SELECT %s('Disease'), %s('Anatomy'), %s('Behavior'), %s('Other') FROM Birds r WHERE r.id = %d",
			classCall, classCall, classCall, classCall, b)
		res, qerr := t.DB.QueryContext(ctx, q, nil)
		if qerr != nil {
			return mismatches, 0, 0, qerr
		}
		sum := int64(0)
		if len(res.Rows) == 1 {
			for _, v := range res.Rows[0].Tuple.Values {
				sum += v.Int
			}
		}
		if want := int64(t.annsPerBird[b] + added[b]); sum != want {
			mismatches++
			fmt.Fprintf(os.Stderr, "end check: bird %d label counts sum to %d, want %d\n", b, sum, want)
		}
	}

	// Recovery: copy the directory as a crash would leave it, reopen.
	copyDir := filepath.Join(t.cfg.Dir, "wal-copy")
	if err := os.RemoveAll(copyDir); err != nil {
		return mismatches, 0, 0, err
	}
	defer os.RemoveAll(copyDir)
	if err := copyTree(t.engCfg.WALDir, copyDir); err != nil {
		return mismatches, 0, 0, err
	}
	cfg := t.engCfg
	cfg.WALDir = copyDir
	t0 := time.Now()
	db2, err := engine.Open(cfg)
	if err != nil {
		return mismatches, 0, 0, fmt.Errorf("recovering copy: %w", err)
	}
	recoveryS = time.Since(t0).Seconds()
	defer db2.Close()
	if w := db2.Metrics().WAL; w != nil {
		replayed = w.RecoveryReplayedRecords
	}
	if got := db2.AnnotationCount(); got != total {
		mismatches++
		fmt.Fprintf(os.Stderr, "recovery check: %d annotations, want %d\n", got, total)
	}
	for b, n := range added {
		if got, want := len(db2.Annotations(t.BirdOID(b))), t.annsPerBird[b]+n; got != want {
			mismatches++
			fmt.Fprintf(os.Stderr, "recovery check: bird %d holds %d annotations, want %d\n", b, got, want)
		}
	}
	return mismatches, recoveryS, replayed, nil
}

func copyTree(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue // a checkpoint's temp file, renamed away
			}
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
