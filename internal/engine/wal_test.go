package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
		ddl(func(db *DB) error { return db.DropSummaryIndex("Birds", "ClassBird1") }),
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

// dumpOps is a database's complete logical content: the mutations its
// snapshot stream replays, decoded back from the bytes Save wrote.
type dumpOps []mutation

// String renders each mutation's fields (the default %v of a slice of
// pointers prints addresses).
func (ops dumpOps) String() string {
	var b strings.Builder
	for _, op := range ops {
		fmt.Fprintf(&b, "\n  %T%+v", op, reflect.ValueOf(op).Elem().Interface())
	}
	return b.String()
}

// logicalState captures a DB's complete logical content for differential
// comparison: Save, then read the stream back (single-threaded tests).
func logicalState(t *testing.T, db *DB) dumpOps {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ops, _, err := readSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return ops
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
	var redo []wal.Record
	for _, r := range recs {
		if r.Type != recCommit && committed[r.TxID] {
			redo = append(redo, r)
		}
	}
	if err := odb.replay(redo); err != nil {
		t.Fatalf("oracle replay: %v", err)
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

	var want dumpOps
	for round := 1; round <= 2; round++ {
		rdb, err := Open(Config{WALDir: dir, PageCap: 16})
		if err != nil {
			t.Fatalf("reopen %d: %v", round, err)
		}
		got := logicalState(t, rdb)
		if want == nil {
			want = got
			tables := 0
			for _, op := range got {
				switch op := op.(type) {
				case *pCreateTable:
					tables++
				case *pInsertTuple:
					// The rolled-back insert (Bird007) must not have survived.
					if op.Table == "Birds" && op.Values[1].Text == "Bird007" {
						t.Errorf("rolled-back tuple survived recovery")
					}
				}
			}
			if tables != 2 {
				t.Fatalf("reopen %d: %d tables, want 2", round, tables)
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

// A checkpoint whose directory fsync fails is a failed checkpoint: the
// renamed file's name may not survive a crash, so Checkpoint returns the
// error and leaves the log uncompacted, and a reopen — whichever
// checkpoint it finds — recovers every committed operation.
func TestCheckpointDirSyncFailureKeepsLog(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{WALDir: dir, PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	tortureWorkload(t, db)
	if ok, err := db.Checkpoint(); !ok || err != nil {
		t.Fatalf("first checkpoint: ok=%v err=%v", ok, err)
	}
	runTorture(t, db, []tortureStep{insertBird(11, "Ardeidae", 0), annotateBird(0, "Behavior", 11, nil, "tester", 0)}, routeAuto)
	want := logicalState(t, db)
	logPath := filepath.Join(dir, walFile)
	before, err := wal.Recover(logPath)
	if err != nil || len(before.Records) == 0 {
		t.Fatalf("log before the failing checkpoint: %d records, err %v", len(before.Records), err)
	}
	injected := errors.New("injected directory fsync failure")
	db.fsync = func(f *os.File) error {
		if fi, err := f.Stat(); err == nil && fi.IsDir() {
			return injected
		}
		return f.Sync()
	}
	if ok, err := db.Checkpoint(); ok || !errors.Is(err, injected) {
		t.Fatalf("checkpoint with a failing directory fsync: ok=%v err=%v, want the injected error", ok, err)
	}
	db.fsync = (*os.File).Sync
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := wal.Recover(logPath)
	if err != nil || len(after.Records) != len(before.Records) {
		t.Fatalf("the failed checkpoint compacted the log: %d records before, %d after (err %v)",
			len(before.Records), len(after.Records), err)
	}
	rdb, err := Open(Config{WALDir: dir, PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if got := logicalState(t, rdb); !reflect.DeepEqual(got, want) {
		t.Errorf("reopen after a failed checkpoint lost committed work\n got: %v\nwant: %v", got, want)
	}
}

// TestWALGroupCommitRaceStress hammers a durable database with 16
// concurrent committers (mixed auto-commit and explicit transactions)
// sharing fsyncs, and concurrent readers, then recovers and checks the
// log reproduced the exact final state. Run with -race.
func TestWALGroupCommitRaceStress(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{WALDir: dir, PageCap: 16})
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
	if m.DurableLSN != m.AppendedLSN {
		t.Fatalf("durable %d != appended %d after every commit returned", m.DurableLSN, m.AppendedLSN)
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

// TestReadersNotBlockedByCommitWait verifies the commit wait happens
// outside the database lock: while a committer is parked between
// releasing the lock and waiting on the log, a query must proceed, see
// the committed insert, and report the exact LSN horizon it observed.
func TestReadersNotBlockedByCommitWait(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{WALDir: dir, PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := model.NewSchema("", model.Column{Name: "name", Kind: model.KindText})
	if _, err := db.CreateTable("Birds", schema); err != nil {
		t.Fatal(err)
	}
	parked := make(chan uint64)
	release := make(chan struct{})
	db.commitHook = func(lsn uint64) {
		parked <- lsn
		<-release
	}
	done := make(chan error, 1)
	go func() {
		_, err := db.Insert("Birds", model.NewText("parked-before-commit-wait"))
		done <- err
	}()
	lsn := <-parked
	queried := make(chan error, 1)
	go func() {
		res, err := db.Query("SELECT name FROM Birds WITHOUT SUMMARIES", nil)
		if err == nil && (len(res.Rows) != 1 || res.AsOfLSN != lsn) {
			err = fmt.Errorf("query saw %d rows at AsOfLSN %d, want 1 row at the commit LSN %d",
				len(res.Rows), res.AsOfLSN, lsn)
		}
		queried <- err
	}()
	select {
	case err := <-queried:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query blocked behind a parked committer")
	}
	close(release)
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
