package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/wal"
)

// tableSummaryState is one table's complete derived state: everything
// the net-delta machinery is allowed to defer and must eventually make
// identical to eager maintenance.
type tableSummaryState struct {
	ColAttachedAnns int
	Stats           map[string]string
	Summaries       map[int64]map[string][]model.Rep
	SummaryIdx      []string
	BaselineIdx     map[int64]string
}

// summaryState deep-dumps the derived state of every table — summary
// objects, per-instance statistics, column-attachment counters, and both
// index schemes' contents — after forcing any pending net deltas out.
// Two databases that ran equivalent workloads must produce DeepEqual
// dumps regardless of maintenance mode.
func summaryState(t *testing.T, db *DB) map[string]*tableSummaryState {
	t.Helper()
	db.FlushIngest()
	out := map[string]*tableSummaryState{}
	for _, name := range db.cat.TableNames() {
		tbl, err := db.cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		ts := &tableSummaryState{
			ColAttachedAnns: tbl.ColAttachedAnns,
			Stats:           map[string]string{},
			Summaries:       map[int64]map[string][]model.Rep{},
			BaselineIdx:     map[int64]string{},
		}
		var oids []int64
		tbl.Scan(func(_ heap.RID, tuple *model.Tuple) bool {
			oids = append(oids, tuple.OID)
			return true
		})
		for _, si := range tbl.Instances {
			ts.Stats[si.Name] = tbl.Stats(si.Name).String()
			if idx := db.SummaryIndex(name, si.Name); idx != nil {
				idx.Tree().ScanAll(func(k string, v int64) bool {
					ts.SummaryIdx = append(ts.SummaryIdx, fmt.Sprintf("%s@%d", k, v))
					return true
				})
			}
			if bIdx := db.BaselineIndex(name, si.Name); bIdx != nil {
				for _, oid := range oids {
					if obj, ok := bIdx.ReconstructObject(oid); ok {
						s := ""
						for _, r := range obj.Reps {
							s += fmt.Sprintf("%s=%d;", r.Label, r.Count)
						}
						ts.BaselineIdx[oid] = s
					}
				}
			}
		}
		for _, oid := range oids {
			m := map[string][]model.Rep{}
			for _, obj := range tbl.GetSummaries(oid) {
				m[obj.InstanceID] = obj.Reps
			}
			ts.Summaries[oid] = m
		}
		out[name] = ts
	}
	return out
}

// ingestWorkload drives a mixed annotation lifecycle — bulk ingest,
// multi-tuple attachments, a transaction, deletes of shared annotations,
// a tuple delete, index builds, and a buffered tail — under the given
// engine configuration.
func ingestWorkload(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, oids := testDBWithConfig(t, 12, cfg)
	shared := mustAnnotate(t, db, oids[0], annText("Disease", 50))
	if err := db.AttachAnnotation("Birds", oids[1], shared.ID); err != nil {
		t.Fatal(err)
	}
	if err := db.AttachAnnotation("Birds", oids[2], shared.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAnnotation("Birds", oids[3], annText("Other", 51), []string{"name"}, "tester"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.AddAnnotation("Birds", oids[4], annText("Anatomy", 52), nil, "txer"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("Birds",
		model.NewInt(100), model.NewText("Bird100"), model.NewText("Corvidae")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	victim := mustAnnotate(t, db, oids[5], annText("Behavior", 53))
	if err := db.DeleteAnnotation("Birds", victim.ID); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteAnnotation("Birds", shared.ID); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteTuple("Birds", oids[11]); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateBaselineIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	// A tail that stays buffered in batched mode until the comparison
	// forces it out.
	for i := 0; i < 4; i++ {
		mustAnnotate(t, db, oids[i], annText("Disease", 60+i))
	}
	return db
}

// One routine, any threshold: flushing after every operation (threshold
// 0 or 1, a one-annotation delta each time) and flushing net deltas of
// several operations (5, 64) converge to exactly the same state —
// summary objects, stats, counters, both index schemes, and query
// results included — and every classifier object equals the
// per-annotation reference fold of ingest_oracle_test.go.
func TestIngestPerOpNetDeltaIdentity(t *testing.T) {
	const q = `SELECT name FROM Birds r
		WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 2`
	var want map[string]*tableSummaryState
	var wantRows string
	for _, every := range []int{0, 1, 5, 64} {
		db := ingestWorkload(t, Config{PageCap: 16, IngestFlushOps: every})
		checkClassifiersAgainstOracle(t, db)
		got := summaryState(t, db)
		res, err := db.Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want, wantRows = got, res.String()
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("threshold %d: summary state diverges from threshold 0:\n got: %+v\nwant: %+v", every, got, want)
		}
		if res.String() != wantRows {
			t.Errorf("threshold %d: query results diverge:\n%s\nthreshold 0:\n%s", every, res, wantRows)
		}

		// Every operation went through the buffer and was flushed; only a
		// threshold above 1 amortizes flushes over operations.
		im := db.Metrics().Ingest
		if im == nil || im.BufferedOps == 0 || im.FlushedOps != im.BufferedOps || im.PendingOps != 0 {
			t.Fatalf("threshold %d: flush accounting: %+v", every, im)
		}
		if perOp := every <= 1; perOp != (im.Flushes == im.FlushedOps) {
			t.Errorf("threshold %d: %d flushes for %d ops", every, im.Flushes, im.FlushedOps)
		}
	}

	// Ancestor labels of a hierarchical instance, through the same routine.
	for _, every := range []int{0, 64} {
		db, oid := hierDBWithConfig(t, Config{PageCap: 16, IngestFlushOps: every})
		for _, text := range []string{
			"a bacterial infection with fever was confirmed",
			"ticks and a worm parasite were found",
			"photo uploaded of the bird",
		} {
			if _, err := db.AddAnnotation("T", oid, text, nil, "tester"); err != nil {
				t.Fatal(err)
			}
		}
		checkClassifiersAgainstOracle(t, db)
	}
}

// Every flush trigger: the ops threshold, the read path, DB.FlushIngest,
// and transaction commit. Reads must always see their own buffered
// writes.
func TestIngestFlushTriggers(t *testing.T) {
	db, oids := testDBWithConfig(t, 3, Config{PageCap: 16, IngestFlushOps: 100})
	db.FlushIngest() // drain the setup tail

	// Below the threshold nothing flushes...
	for i := 0; i < 3; i++ {
		mustAnnotate(t, db, oids[0], annText("Disease", i))
	}
	if im := db.Metrics().Ingest; im.PendingOps != 3 {
		t.Fatalf("pending after 3 buffered adds = %d, want 3", im.PendingOps)
	}
	// ...but a query flushes on demand and sees the writes: bird 1 now
	// has 1+3 disease annotations.
	res, err := db.Query(`SELECT name FROM Birds r
		WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 4`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("read-triggered flush: rows = %d, want 1\n%s", len(res.Rows), res)
	}
	if im := db.Metrics().Ingest; im.PendingOps != 0 {
		t.Errorf("pending after read = %d, want 0", im.PendingOps)
	}

	// Explicit flush.
	mustAnnotate(t, db, oids[1], annText("Anatomy", 10))
	db.FlushIngest()
	if im := db.Metrics().Ingest; im.PendingOps != 0 {
		t.Errorf("pending after FlushIngest = %d, want 0", im.PendingOps)
	}

	// Transaction commit flushes the batch it applied.
	tx := db.Begin()
	if _, err := tx.AddAnnotation("Birds", oids[2], annText("Behavior", 11), nil, "txer"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if im := db.Metrics().Ingest; im.PendingOps != 0 {
		t.Errorf("pending after commit = %d, want 0", im.PendingOps)
	}

	// The annotation accessors are read paths too.
	mustAnnotate(t, db, oids[0], annText("Other", 12))
	db.Annotations(oids[0])
	if im := db.Metrics().Ingest; im.PendingOps != 0 {
		t.Errorf("pending after Annotations() = %d, want 0", im.PendingOps)
	}

	// The ops threshold flushes without any read.
	db2, oids2 := testDBWithConfig(t, 1, Config{PageCap: 16, IngestFlushOps: 2})
	db2.FlushIngest()
	f0 := db2.Metrics().Ingest.Flushes
	mustAnnotate(t, db2, oids2[0], annText("Disease", 20))
	mustAnnotate(t, db2, oids2[0], annText("Disease", 21))
	if im := db2.Metrics().Ingest; im.PendingOps != 0 || im.Flushes != f0+1 {
		t.Errorf("threshold flush: pending=%d flushes=%d, want 0 and %d", im.PendingOps, im.Flushes, f0+1)
	}
}

// TestReadGateSeesBufferedAnnotation: an annotation still sitting in the
// net-delta buffer must be flushed, published and visible through every
// entry point behind the read gate — EXPLAIN and EXPLAIN ANALYZE
// included — not only through the ones a query usually takes.
func TestReadGateSeesBufferedAnnotation(t *testing.T) {
	db, oids := testDBWithConfig(t, 3, Config{PageCap: 16, IngestFlushOps: 1 << 20, PlanCacheSize: 8})
	db.FlushIngest()
	const q = `SELECT id FROM Birds r WHERE r.id = 1`
	// inSummary reports whether a SELECT's first row carries the annotation
	// in its classifier summary.
	inSummary := func(id int64) func(*Result, error) (bool, error) {
		return func(res *Result, err error) (bool, error) {
			if err != nil || len(res.Rows) != 1 {
				return false, fmt.Errorf("rows=%v err=%v", res, err)
			}
			for _, r := range res.Rows[0].Tuple.Summaries.Get("ClassBird1").Reps {
				if r.HasElement(id) {
					return true, nil
				}
			}
			return false, nil
		}
	}
	for _, gate := range []struct {
		name string
		sees func(id int64) (bool, error)
	}{
		{"Query", func(id int64) (bool, error) { return inSummary(id)(db.Query(q, nil)) }},
		{"Exec", func(id int64) (bool, error) { return inSummary(id)(db.Exec(q)) }},
		{"Stmt.Execute", func(id int64) (bool, error) {
			st, err := db.Prepare(`SELECT id FROM Birds r WHERE r.id = ?`)
			if err != nil {
				return false, err
			}
			return inSummary(id)(st.Execute([]model.Value{model.NewInt(1)}, nil))
		}},
		{"QueryCached", func(id int64) (bool, error) { return inSummary(id)(db.QueryCached(q, nil, nil)) }},
		{"ExplainAnalyze", func(id int64) (bool, error) {
			ap, err := db.ExplainAnalyze(q, nil)
			if err != nil {
				return false, err
			}
			return inSummary(id)(ap.Result, nil)
		}},
		{"Explain", func(int64) (bool, error) {
			// A plan shows no annotation; the flush the gate forced is
			// checked below, like everyone else's.
			_, err := db.Explain(q, nil)
			return true, err
		}},
		{"ZoomIn", func(id int64) (bool, error) {
			zooms, err := db.ZoomIn("Birds", "ClassBird1", "", "id = 1")
			if err != nil || len(zooms) != 1 {
				return false, fmt.Errorf("zooms=%d err=%v", len(zooms), err)
			}
			for _, a := range zooms[0].Annotations {
				if a.ID == id {
					return true, nil
				}
			}
			return false, nil
		}},
		{"Annotations", func(id int64) (bool, error) {
			for _, a := range db.Annotations(oids[0]) {
				if a.ID == id {
					return true, nil
				}
			}
			return false, nil
		}},
		{"AnnotationCount", func(int64) (bool, error) {
			// The pinned epoch's count has caught up with the live store's.
			return db.AnnotationCount() == db.cat.Anns.Len(), nil
		}},
	} {
		ann := mustAnnotate(t, db, oids[0], annText("Disease", 30))
		if im := db.Metrics().Ingest; im.PendingOps != 1 {
			t.Fatalf("%s: pending before the read = %d, want 1", gate.name, im.PendingOps)
		}
		flushes := db.Metrics().Ingest.Flushes
		ok, err := gate.sees(ann.ID)
		if err != nil {
			t.Fatalf("%s: %v", gate.name, err)
		}
		if !ok {
			t.Errorf("%s does not see the buffered annotation %d", gate.name, ann.ID)
		}
		if im := db.Metrics().Ingest; im.PendingOps != 0 || im.Flushes != flushes+1 {
			t.Errorf("%s: pending=%d flushes=%d after the read, want 0 and %d",
				gate.name, im.PendingOps, im.Flushes, flushes+1)
		}
	}
}

// The interval flush loop drains an idle buffer without any read or further
// write.
func TestIngestIntervalFlush(t *testing.T) {
	db, oids := testDBWithConfig(t, 1, Config{
		PageCap: 16, IngestFlushOps: 1 << 30, IngestFlushInterval: 5 * time.Millisecond,
	})
	t.Cleanup(func() { db.Close() })
	db.FlushIngest()
	mustAnnotate(t, db, oids[0], annText("Disease", 1))
	deadline := time.Now().Add(10 * time.Second)
	for db.Metrics().Ingest.PendingOps != 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval flush loop never drained the buffer")
		}
		time.Sleep(time.Millisecond)
	}
	if got := diseaseCount(t, db, oids[0]); got != 2 {
		t.Errorf("disease after interval flush = %d, want 2", got)
	}
}

// A checkpoint must flush pending deltas first, and the checkpointed
// state must recover with the flushed summaries intact.
func TestCheckpointFlushesIngest(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{WALDir: dir, PageCap: 16, IngestFlushOps: 100}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schema := model.NewSchema("",
		model.Column{Name: "id", Kind: model.KindInt},
		model.Column{Name: "name", Kind: model.KindText},
	)
	if _, err := db.CreateTable("Birds", schema); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineClassifier("ClassBird1",
		[]string{"Disease", "Anatomy", "Behavior", "Other"}, birdTraining); err != nil {
		t.Fatal(err)
	}
	if err := db.LinkInstance("Birds", "ClassBird1", true); err != nil {
		t.Fatal(err)
	}
	oid, err := db.Insert("Birds", model.NewInt(1), model.NewText("Bird001"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.AddAnnotation("Birds", oid, annText("Disease", i), nil, "tester"); err != nil {
			t.Fatal(err)
		}
	}
	if im := db.Metrics().Ingest; im.PendingOps != 3 {
		t.Fatalf("pending before checkpoint = %d, want 3", im.PendingOps)
	}
	ok, err := db.Checkpoint()
	if err != nil || !ok {
		t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
	}
	if im := db.Metrics().Ingest; im.PendingOps != 0 {
		t.Errorf("pending after checkpoint = %d, want 0", im.PendingOps)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rdb, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if got := labelCount(t, rdb, "Birds", oid, "Disease"); got != 3 {
		t.Errorf("disease after checkpoint recovery = %d, want 3", got)
	}
}

// Deferring maintenance must not change durability: the WAL stream of a
// batched run is byte-identical to the eager run's, and a crash at any
// record boundary recovers — under the batched config — to exactly the
// eager committed-prefix oracle, derived state included. Flush
// boundaries are a subset of these cuts, so a crash between buffering
// and flushing is covered: replay re-buffers and re-flushes.
func TestIngestWALStreamAndRecovery(t *testing.T) {
	base := t.TempDir()
	eagerDir := filepath.Join(base, "eager")
	batchDir := filepath.Join(base, "batch")
	edb, err := Open(Config{WALDir: eagerDir, PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	tortureWorkload(t, edb)
	bdb, err := Open(Config{WALDir: batchDir, PageCap: 16, IngestFlushOps: 3})
	if err != nil {
		t.Fatal(err)
	}
	tortureWorkload(t, bdb)
	if got, want := summaryState(t, bdb), summaryState(t, edb); !reflect.DeepEqual(got, want) {
		t.Errorf("live batched summary state diverges from eager:\n got: %+v\nwant: %+v", got, want)
	}
	if err := edb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bdb.Close(); err != nil {
		t.Fatal(err)
	}

	batchLog, err := os.ReadFile(filepath.Join(batchDir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	eres, err := wal.Recover(filepath.Join(eagerDir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	res, err := wal.Recover(filepath.Join(batchDir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(eres.Records) != len(res.Records) {
		t.Fatalf("record counts differ: eager %d, batched %d — deferred maintenance must not change the log",
			len(eres.Records), len(res.Records))
	}
	for i := range res.Records {
		e, b := eres.Records[i], res.Records[i]
		if e.Type != b.Type || e.TxID != b.TxID || e.LSN != b.LSN {
			t.Fatalf("record %d differs: eager type=%d tx=%d lsn=%d, batched type=%d tx=%d lsn=%d",
				i, e.Type, e.TxID, e.LSN, b.Type, b.TxID, b.LSN)
		}
		// DefineInstance payloads gob-encode the classifier's training
		// maps, whose encoding order is nondeterministic — two eager runs
		// differ the same way. Every other payload must be byte-equal.
		if e.Type != recDefineInstance && !bytes.Equal(e.Payload, b.Payload) {
			t.Fatalf("record %d (type %d) payload differs between eager and batched runs", i, e.Type)
		}
	}
	recoverAt := func(name string, cutLen int64, wantRecords int) {
		dir := filepath.Join(base, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walFile), batchLog[:cutLen], 0o644); err != nil {
			t.Fatal(err)
		}
		rdb, err := Open(Config{WALDir: dir, PageCap: 16, IngestFlushOps: 3})
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", name, err)
		}
		defer rdb.Close()
		odb := oracleCommittedPrefix(t, res.Records[:wantRecords])
		if got, want := logicalState(t, rdb), logicalState(t, odb); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recovered logical state diverges from eager oracle (%d records)", name, wantRecords)
		}
		if got, want := summaryState(t, rdb), summaryState(t, odb); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recovered summary state diverges from eager oracle (%d records)\n got: %+v\nwant: %+v",
				name, wantRecords, got, want)
		}
	}
	recoverAt("cut-0", 0, 0)
	for i := range res.Records {
		end := res.End
		if i+1 < len(res.Offsets) {
			end = res.Offsets[i+1]
		}
		recoverAt(fmt.Sprintf("cut-%d", i+1), end, i+1)
	}
}

// TestIngestConcurrentStress races batched writers against epoch
// readers, explicit flushes, and checkpoints — the `make ingest-stress`
// leg, run under -race.
func TestIngestConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{
		WALDir: dir, PageCap: 16,
		IngestFlushOps: 8, IngestFlushInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := model.NewSchema("",
		model.Column{Name: "id", Kind: model.KindInt},
		model.Column{Name: "name", Kind: model.KindText},
	)
	if _, err := db.CreateTable("Birds", schema); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineClassifier("ClassBird1",
		[]string{"Disease", "Anatomy", "Behavior", "Other"}, birdTraining); err != nil {
		t.Fatal(err)
	}
	if err := db.LinkInstance("Birds", "ClassBird1", true); err != nil {
		t.Fatal(err)
	}
	var oids []int64
	for i := 0; i < 8; i++ {
		oid, err := db.Insert("Birds", model.NewInt(int64(i)), model.NewText(fmt.Sprintf("Bird%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}

	const writers, perWriter = 4, 50
	stop := make(chan struct{})
	var aux sync.WaitGroup
	for r := 0; r < 2; r++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Query(`SELECT name FROM Birds r
					WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 1`, nil); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				db.Annotations(oids[0])
			}
		}()
	}
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			db.FlushIngest()
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				oid := oids[(w+i)%len(oids)]
				if _, err := db.AddAnnotation("Birds", oid, annText("Disease", i), nil, "stress"); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	db.FlushIngest()

	tbl, _ := db.Table("Birds")
	total := 0
	for _, oid := range oids {
		anns := db.Annotations(oid)
		total += len(anns)
		obj := tbl.GetSummaries(oid).Get("ClassBird1")
		if obj == nil {
			if len(anns) > 0 {
				t.Errorf("tuple %d has %d annotations but no summary object", oid, len(anns))
			}
			continue
		}
		if obj.TotalCount() != len(anns) {
			t.Errorf("tuple %d: summary covers %d annotations, store has %d", oid, obj.TotalCount(), len(anns))
		}
	}
	if total != writers*perWriter {
		t.Errorf("total annotations = %d, want %d", total, writers*perWriter)
	}
}

// The attach/delete/re-attach lifecycle behaves identically flushed per
// operation, flushed as net deltas, and through WAL recovery.
func TestAttachDeleteReattachLifecycle(t *testing.T) {
	churn := func(db *DB, oids []int64) error {
		ann, err := db.AddAnnotation("Birds", oids[0], annText("Disease", 80), []string{"name"}, "tester")
		if err != nil {
			return err
		}
		if err := db.AttachAnnotation("Birds", oids[1], ann.ID); err != nil {
			return err
		}
		if err := db.AttachAnnotation("Birds", oids[1], ann.ID); err != nil { // duplicate: no-op
			return err
		}
		if err := db.DeleteAnnotation("Birds", ann.ID); err != nil {
			return err
		}
		ann2, err := db.AddAnnotation("Birds", oids[0], annText("Disease", 81), nil, "tester")
		if err != nil {
			return err
		}
		if err := db.AttachAnnotation("Birds", oids[1], ann2.ID); err != nil {
			return err
		}
		if err := db.DeleteAnnotation("Birds", ann2.ID); err != nil {
			return err
		}
		ann3, err := db.AddAnnotation("Birds", oids[1], annText("Anatomy", 82), nil, "tester")
		if err != nil {
			return err
		}
		return db.AttachAnnotation("Birds", oids[0], ann3.ID)
	}

	eager, eagerOids := testDB(t, 2)
	if err := churn(eager, eagerOids); err != nil {
		t.Fatal(err)
	}
	batched, batchedOids := testDBWithConfig(t, 2, Config{PageCap: 16, IngestFlushOps: 2})
	if err := churn(batched, batchedOids); err != nil {
		t.Fatal(err)
	}
	want := summaryState(t, eager)
	if got := summaryState(t, batched); !reflect.DeepEqual(got, want) {
		t.Errorf("batched lifecycle diverges from eager:\n got: %+v\nwant: %+v", got, want)
	}

	// Same lifecycle against a durable batched database, recovered from
	// its log after an unflushed tail.
	dir := t.TempDir()
	cfg := Config{WALDir: dir, PageCap: 16, IngestFlushOps: 2}
	wdb, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schema := model.NewSchema("",
		model.Column{Name: "id", Kind: model.KindInt},
		model.Column{Name: "name", Kind: model.KindText},
		model.Column{Name: "family", Kind: model.KindText},
	)
	if _, err := wdb.CreateTable("Birds", schema); err != nil {
		t.Fatal(err)
	}
	if err := wdb.DefineClassifier("ClassBird1",
		[]string{"Disease", "Anatomy", "Behavior", "Other"}, birdTraining); err != nil {
		t.Fatal(err)
	}
	if err := wdb.DefineSnippet("TextSummary1", 200, 80); err != nil {
		t.Fatal(err)
	}
	if err := wdb.LinkInstance("Birds", "ClassBird1", false); err != nil {
		t.Fatal(err)
	}
	if err := wdb.LinkInstance("Birds", "TextSummary1", false); err != nil {
		t.Fatal(err)
	}
	families := []string{"Anatidae", "Corvidae", "Laridae"}
	var walOids []int64
	for i := 1; i <= 2; i++ {
		oid, err := wdb.Insert("Birds",
			model.NewInt(int64(i)), model.NewText(fmt.Sprintf("Bird%03d", i)), model.NewText(families[i%3]))
		if err != nil {
			t.Fatal(err)
		}
		walOids = append(walOids, oid)
		for d := 0; d < i%5; d++ {
			if _, err := wdb.AddAnnotation("Birds", oid, annText("Disease", d), nil, "tester"); err != nil {
				t.Fatal(err)
			}
		}
		for a := 0; a < i%3; a++ {
			if _, err := wdb.AddAnnotation("Birds", oid, annText("Anatomy", a), nil, "tester"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := wdb.AddAnnotation("Birds", oid, annText("Behavior", 0), nil, "tester"); err != nil {
			t.Fatal(err)
		}
	}
	if err := churn(wdb, walOids); err != nil {
		t.Fatal(err)
	}
	if err := wdb.Close(); err != nil {
		t.Fatal(err)
	}
	rdb, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if got := summaryState(t, rdb); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered lifecycle diverges from eager:\n got: %+v\nwant: %+v", got, want)
	}
}
