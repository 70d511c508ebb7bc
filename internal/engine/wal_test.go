package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/wal"
)

// mutator is the DML surface *DB (auto-commit) and *Txn (buffered until
// Commit) share.
type mutator interface {
	Insert(table string, values ...model.Value) (int64, error)
	AddAnnotation(table string, oid int64, text string, columns []string, author string) (*model.Annotation, error)
	AttachAnnotation(table string, oid, annID int64) error
	DeleteAnnotation(table string, annID int64) error
	DeleteTuple(table string, oid int64) error
}

// tortureIDs collects the identifiers earlier steps were assigned, in
// call order, so later steps can address them.
type tortureIDs struct{ oids, anns []int64 }

// tortureStep is one call of the torture workload: DDL, which has no
// transactional form and runs against the DB, or DML against a mutator.
// txn says how the workload as issued runs a DML step: 0 as an
// auto-commit, 'c' inside its committed transaction, 'r' inside its
// rolled-back one.
type tortureStep struct {
	ddl func(db *DB) error
	dml func(m mutator, ids *tortureIDs) error
	txn byte
}

func insertBird(i int, family string, txn byte) tortureStep {
	return tortureStep{txn: txn, dml: func(m mutator, ids *tortureIDs) error {
		oid, err := m.Insert("Birds",
			model.NewInt(int64(i)), model.NewText(fmt.Sprintf("Bird%03d", i)), model.NewText(family))
		ids.oids = append(ids.oids, oid)
		return err
	}}
}

// annotateBird annotates the tuple the workload's oid-th insert made.
func annotateBird(oid int, label string, i int, columns []string, author string, txn byte) tortureStep {
	return tortureStep{txn: txn, dml: func(m mutator, ids *tortureIDs) error {
		ann, err := m.AddAnnotation("Birds", ids.oids[oid], annText(label, i), columns, author)
		if err == nil {
			ids.anns = append(ids.anns, ann.ID)
		}
		return err
	}}
}

func attach(table string, oid, ann int, txn byte) tortureStep {
	return tortureStep{txn: txn, dml: func(m mutator, ids *tortureIDs) error {
		return m.AttachAnnotation(table, ids.oids[oid], ids.anns[ann])
	}}
}

// tortureSteps is a deterministic mixed mutation sequence through the
// public API: DDL, inserts, annotations (auto-commit and explicit
// transactions), a rolled-back transaction, deletes, index builds and
// drops, and a second table with a cross-table attachment.
func tortureSteps() []tortureStep {
	ddl := func(f func(db *DB) error) tortureStep { return tortureStep{ddl: f} }
	steps := []tortureStep{
		ddl(func(db *DB) error {
			_, err := db.CreateTable("Birds", model.NewSchema("",
				model.Column{Name: "id", Kind: model.KindInt},
				model.Column{Name: "name", Kind: model.KindText},
				model.Column{Name: "family", Kind: model.KindText},
			))
			return err
		}),
		ddl(func(db *DB) error {
			return db.DefineClassifier("ClassBird1",
				[]string{"Disease", "Anatomy", "Behavior", "Other"}, birdTraining)
		}),
		ddl(func(db *DB) error { return db.DefineSnippet("TextSummary1", 200, 80) }),
		ddl(func(db *DB) error { return db.LinkInstance("Birds", "ClassBird1", true) }),
		ddl(func(db *DB) error { return db.LinkInstance("Birds", "TextSummary1", false) }),
	}
	for i := 1; i <= 5; i++ { // oids[0..4], anns[0..4]
		steps = append(steps, insertBird(i, "Anatidae", 0), annotateBird(i-1, "Disease", i, nil, "tester", 0))
	}
	return append(steps,
		ddl(func(db *DB) error { return db.CreateSummaryIndex("Birds", "ClassBird1") }),
		ddl(func(db *DB) error { return db.CreateDataIndex("Birds", "id") }),

		// Explicit transaction, committed: its records become durable as
		// one unit when the commit record is forced.
		insertBird(6, "Corvidae", 'c'),                  // oids[5]
		annotateBird(5, "Anatomy", 6, nil, "txer", 'c'), // anns[5]
		attach("Birds", 0, 5, 'c'),

		// Explicit transaction, rolled back: its operations were buffered
		// and never reach the log or the live state — only the IDs it
		// reserved stay consumed (the later adds log past the gap).
		insertBird(7, "Laridae", 'r'),                    // oids[6]
		annotateBird(1, "Behavior", 7, nil, "txer", 'r'), // anns[6]

		annotateBird(2, "Other", 8, []string{"name"}, "tester", 0), // anns[7]
		tortureStep{dml: func(m mutator, ids *tortureIDs) error { return m.DeleteAnnotation("Birds", ids.anns[3]) }},
		tortureStep{dml: func(m mutator, ids *tortureIDs) error { return m.DeleteTuple("Birds", ids.oids[4]) }},
		ddl(func(db *DB) error { return db.CreateBaselineIndex("Birds", "ClassBird1") }),
		ddl(func(db *DB) error { db.DropSummaryIndex("Birds", "ClassBird1"); return nil }),
		ddl(func(db *DB) error { return db.UnlinkInstance("Birds", "TextSummary1") }),

		// Second table plus a cross-table attachment of an existing
		// annotation.
		ddl(func(db *DB) error {
			_, err := db.CreateTable("Spots", model.NewSchema("", model.Column{Name: "place", Kind: model.KindText}))
			return err
		}),
		tortureStep{dml: func(m mutator, ids *tortureIDs) error { // oids[7]
			oid, err := m.Insert("Spots", model.NewText("lakeshore"))
			ids.oids = append(ids.oids, oid)
			return err
		}},
		attach("Spots", 7, 0, 0),
	)
}

// Routes a step list can be issued by. As issued, each DML step runs the
// way its txn mark says. The other two exist for the route-equivalence
// test: every DML step an auto-commit, or every maximal run of DML steps
// between two DDL statements inside one transaction. The rolled-back
// steps stay a rolled-back transaction on every route — the ID gaps they
// leave are part of the state.
const (
	routeAsIssued = iota
	routeAuto
	routeTxn
)

// runTorture issues steps against db by the given route.
func runTorture(t *testing.T, db *DB, steps []tortureStep, route int) {
	t.Helper()
	var ids tortureIDs
	var tx *Txn
	var open byte // txn mark of the open transaction, 0 when none is
	end := func() {
		if open == 'c' {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		} else if open == 'r' {
			tx.Rollback()
		}
		open = 0
	}
	for i, st := range steps {
		if st.ddl != nil {
			end()
			if err := st.ddl(db); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			continue
		}
		want := st.txn
		if route == routeAuto && want == 'c' {
			want = 0
		} else if route == routeTxn && want == 0 {
			want = 'c'
		}
		if want != open {
			end()
			if open = want; open != 0 {
				tx = db.Begin()
			}
		}
		var m mutator = db
		if open != 0 {
			m = tx
		}
		if err := st.dml(m, &ids); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	end()
}

// tortureWorkload is the logged history the boundary-kill matrix replays
// prefixes of.
func tortureWorkload(t *testing.T, db *DB) {
	t.Helper()
	runTorture(t, db, tortureSteps(), routeAsIssued)
}

// logicalState captures a DB's complete logical content for differential
// comparison (single-threaded tests; no lock needed).
func logicalState(t *testing.T, db *DB) *snapshot {
	t.Helper()
	snap, err := db.buildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// oracleCommittedPrefix builds the ground-truth state for a log prefix:
// a fresh in-memory database with exactly the committed records redone,
// in order — the state recovery must reproduce for a crash at that
// boundary.
func oracleCommittedPrefix(t *testing.T, recs []wal.Record) *DB {
	t.Helper()
	odb := New(Config{PageCap: 16})
	committed := map[uint64]bool{}
	for _, r := range recs {
		if r.Type == recCommit {
			committed[r.TxID] = true
		}
	}
	for _, r := range recs {
		if r.Type == recCommit || !committed[r.TxID] {
			continue
		}
		if err := odb.replayRecord(r); err != nil {
			t.Fatalf("oracle replay of lsn %d: %v", r.LSN, err)
		}
	}
	return odb
}

// TestRecoveryTortureEveryBoundary is the kill-at-every-boundary matrix:
// the mixed workload runs once against a durable database, then for
// every record boundary — and for a torn cut inside every record — the
// log prefix is copied to a fresh directory and recovered, and the
// result is compared structurally against the committed-prefix oracle.
func TestRecoveryTortureEveryBoundary(t *testing.T) {
	base := t.TempDir()
	live := filepath.Join(base, "live")
	db, err := Open(Config{WALDir: live, PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Record every epoch publication's LSN watermark: each one is an
	// extra kill point below (publishHook runs under the exclusive lock,
	// so the slice needs no further synchronization).
	var publishLSNs []uint64
	db.publishHook = func(lsn uint64) { publishLSNs = append(publishLSNs, lsn) }
	tortureWorkload(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	logPath := filepath.Join(live, walFile)
	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wal.Recover(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || len(res.Records) == 0 {
		t.Fatalf("clean shutdown produced torn=%v records=%d", res.Torn, len(res.Records))
	}
	t.Logf("torture log: %d records, %d bytes", len(res.Records), len(logBytes))

	recoverAt := func(name string, cutLen int64, wantRecords int) {
		dir := filepath.Join(base, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walFile), logBytes[:cutLen], 0o644); err != nil {
			t.Fatal(err)
		}
		rdb, err := Open(Config{WALDir: dir, PageCap: 16})
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", name, err)
		}
		defer rdb.Close()
		odb := oracleCommittedPrefix(t, res.Records[:wantRecords])
		got, want := logicalState(t, rdb), logicalState(t, odb)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recovered state diverges from committed-prefix oracle (%d records)\n got: %+v\nwant: %+v",
				name, wantRecords, got, want)
		}
	}

	// Crash exactly after each record (including the empty log), and
	// crash mid-record: the torn tail must be truncated and the state
	// must match the previous boundary.
	recoverAt("cut-0", 0, 0)
	for i := range res.Records {
		end := res.End
		if i+1 < len(res.Offsets) {
			end = res.Offsets[i+1]
		}
		recoverAt(fmt.Sprintf("cut-%d", i+1), end, i+1)
		mid := res.Offsets[i] + (end-res.Offsets[i])/2
		recoverAt(fmt.Sprintf("torn-%d", i+1), mid, i)
	}

	// Kill at every epoch publication: an epoch's LSN watermark must sit
	// exactly on a commit-record boundary (records — commit included —
	// are appended before the epoch publishes), and a crash at that
	// instant must recover exactly the state the epoch exposed. A
	// watermark inside a transaction's record run, or past the appended
	// log, would surface here as a missing record or a diverged state.
	lsnIndex := make(map[uint64]int, len(res.Records))
	for i, r := range res.Records {
		lsnIndex[r.LSN] = i
	}
	seen := map[uint64]bool{}
	published := 0
	for _, lsn := range publishLSNs {
		if lsn == 0 || seen[lsn] {
			continue // pre-WAL epoch, or a no-op republish at the same watermark
		}
		seen[lsn] = true
		i, ok := lsnIndex[lsn]
		if !ok {
			t.Errorf("published epoch watermark %d matches no log record", lsn)
			continue
		}
		if res.Records[i].Type != recCommit {
			t.Errorf("published epoch watermark %d is record type %d, want a commit record", lsn, res.Records[i].Type)
		}
		end := res.End
		if i+1 < len(res.Offsets) {
			end = res.Offsets[i+1]
		}
		recoverAt(fmt.Sprintf("publish-%d", lsn), end, i+1)
		published++
	}
	if published == 0 {
		t.Error("workload published no epochs with a WAL watermark")
	}
}

// TestReopenDurability is the basic end-to-end loop: mutate, close,
// reopen, and find the committed state again — twice, so recovery's own
// output recovers.
func TestReopenDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{WALDir: dir, PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	tortureWorkload(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var want *snapshot
	for round := 1; round <= 2; round++ {
		rdb, err := Open(Config{WALDir: dir, PageCap: 16})
		if err != nil {
			t.Fatalf("reopen %d: %v", round, err)
		}
		got := logicalState(t, rdb)
		if want == nil {
			want = got
			if n := len(got.Tables); n != 2 {
				t.Fatalf("reopen %d: %d tables, want 2", round, n)
			}
			// The rolled-back insert (Bird007) must not have survived.
			for _, st := range got.Tables {
				if st.Name != "Birds" {
					continue
				}
				for _, tu := range st.Tuples {
					if tu.Values[1].Text == "Bird007" {
						t.Errorf("rolled-back tuple survived recovery")
					}
				}
			}
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("reopen %d: state changed across a no-op restart", round)
		}
		if m := rdb.Metrics().WAL; m == nil {
			t.Errorf("reopen %d: durable database reports no WAL metrics", round)
		} else if m.RecoveryReplayedRecords == 0 {
			t.Errorf("reopen %d: expected replayed records, got 0", round)
		}
		if err := rdb.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointBoundsRecovery verifies checkpoints do their one job:
// after a checkpoint, recovery replays only the records logged since it,
// and the recovered state still matches the live state exactly.
func TestCheckpointBoundsRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{WALDir: dir, PageCap: 16, CheckpointEveryN: 5})
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
	if err := db.LinkInstance("Birds", "ClassBird1", false); err != nil {
		t.Fatal(err)
	}
	total := 40
	for i := 1; i <= total; i++ {
		oid, err := db.Insert("Birds", model.NewInt(int64(i)), model.NewText(fmt.Sprintf("Bird%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddAnnotation("Birds", oid, annText("Disease", i), nil, "tester"); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics().WAL
	if m == nil || m.Checkpoints == 0 {
		t.Fatalf("expected automatic checkpoints, metrics=%+v", m)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointFile)); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	want := logicalState(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	rdb, err := Open(Config{WALDir: dir, PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if got := logicalState(t, rdb); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state diverges from pre-shutdown state")
	}
	rm := rdb.Metrics().WAL
	if rm == nil {
		t.Fatal("no WAL metrics after reopen")
	}
	// 2 ops per loop iteration; the checkpoint threshold is 5 logged
	// operations, so recovery must replay a bounded tail, not the 80+
	// record history.
	if rm.RecoveryReplayedRecords > 20 {
		t.Errorf("checkpoint did not bound recovery: replayed %d records", rm.RecoveryReplayedRecords)
	}
	// An explicit checkpoint right after recovery must succeed and reset
	// the replay debt to zero for the next open.
	if ok, err := rdb.Checkpoint(); err != nil || !ok {
		t.Fatalf("explicit checkpoint after recovery: ok=%v err=%v", ok, err)
	}
}

// TestWALGroupCommitRaceStress hammers a durable database with 16
// concurrent committers (mixed auto-commit and explicit transactions)
// and concurrent readers under a group-commit window, then recovers and
// checks the log reproduced the exact final state. Run with -race.
func TestWALGroupCommitRaceStress(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{WALDir: dir, PageCap: 16, GroupCommitWindow: 200 * time.Microsecond})
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
	const workers = 16
	const perWorker = 20
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := int64(w*perWorker + i)
				name := fmt.Sprintf("W%02d-%03d", w, i)
				if w%2 == 0 {
					oid, err := db.Insert("Birds", model.NewInt(id), model.NewText(name))
					if err != nil {
						errCh <- err
						return
					}
					if _, err := db.AddAnnotation("Birds", oid, annText("Behavior", i), nil, name); err != nil {
						errCh <- err
						return
					}
				} else {
					tx := db.Begin()
					oid, err := tx.Insert("Birds", model.NewInt(id), model.NewText(name))
					if err != nil {
						errCh <- err
						return
					}
					if _, err := tx.AddAnnotation("Birds", oid, annText("Anatomy", i), nil, name); err != nil {
						errCh <- err
						return
					}
					if err := tx.Commit(); err != nil {
						errCh <- err
						return
					}
				}
				if i%5 == 0 {
					if _, err := db.Query("SELECT name FROM Birds WITHOUT SUMMARIES", nil); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	m := db.Metrics().WAL
	if m == nil {
		t.Fatal("no WAL metrics")
	}
	if m.Fsyncs >= m.Commits && m.Commits > workers {
		t.Logf("group commit produced no amortization: fsyncs=%d commits=%d", m.Fsyncs, m.Commits)
	}
	want := logicalState(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	rdb, err := Open(Config{WALDir: dir, PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if got := logicalState(t, rdb); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state diverges after concurrent commit stress")
	}
	tbl, err := rdb.Table("Birds")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != workers*perWorker {
		t.Errorf("recovered %d tuples, want %d", tbl.Len(), workers*perWorker)
	}
	if n := rdb.AnnotationCount(); n != workers*perWorker {
		t.Errorf("recovered %d annotations, want %d", n, workers*perWorker)
	}
}

// TestReadersNotBlockedByCommitWait verifies the group-commit wait
// happens outside the database lock: while a committer sits in its
// durability wait, a query must proceed and report the exact LSN horizon
// it observed.
func TestReadersNotBlockedByCommitWait(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{
		WALDir:            dir,
		PageCap:           16,
		GroupCommitWindow: 150 * time.Millisecond,
		WALSyncDelay:      20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := model.NewSchema("", model.Column{Name: "name", Kind: model.KindText})
	if _, err := db.CreateTable("Birds", schema); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := db.Insert("Birds", model.NewText("blocked-on-fsync"))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the insert append and enter its wait
	start := time.Now()
	res, err := db.Query("SELECT name FROM Birds WITHOUT SUMMARIES", nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("query blocked behind a commit wait: took %v", d)
	}
	if res.AsOfLSN == 0 {
		t.Errorf("durable query reported AsOfLSN=0")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSaveFileAtomic covers the crash-safe snapshot path: SaveFile
// round-trips through Load, a failed SaveFile leaves the previous
// snapshot intact, and no temp debris survives.
func TestSaveFileAtomic(t *testing.T) {
	db, _ := testDB(t, 8)
	dir := t.TempDir()
	path := filepath.Join(dir, "db.snap")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := loaded.Table("Birds")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 8 {
		t.Fatalf("loaded %d tuples, want 8", tbl.Len())
	}

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A failing save (unwritable target directory) must not touch the
	// existing snapshot.
	if err := db.SaveFile(filepath.Join(dir, "missing", "db.snap")); err == nil {
		t.Fatal("SaveFile into a missing directory succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("failed SaveFile modified the existing snapshot")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "db.snap" {
			t.Errorf("temp debris left behind: %s", e.Name())
		}
	}
}
