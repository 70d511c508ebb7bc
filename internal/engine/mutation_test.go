package engine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestMutationRoutesEquivalent issues one op list by every route a
// mutation can take to the state — (a) auto-commits, (b) explicit
// transactions, (c) recovery of (a)'s log, (d) Save→Load of (a) — and
// requires the same logical state from all four. (a) and (c) run with
// the WAL on, (b) and (d) with it off, so this is also the WAL on/off
// cell of the configuration matrix. The list is the torture workload
// plus a tuple that is inserted, annotated, attached to and deleted
// again — inside one transaction on route (b).
func TestMutationRoutesEquivalent(t *testing.T) {
	steps := append(tortureSteps(),
		insertBird(9, "Sulidae", 0),                      // oids[8]
		annotateBird(8, "Behavior", 9, nil, "tester", 0), // anns[8]
		attach("Birds", 8, 1, 0),
		tortureStep{dml: func(m mutator, ids *tortureIDs) error { return m.DeleteTuple("Birds", ids.oids[8]) }},
	)
	for _, flushOps := range []int{0, 64} {
		t.Run(fmt.Sprintf("IngestFlushOps=%d", flushOps), func(t *testing.T) {
			open := func(walDir string) *DB {
				db, err := Open(Config{WALDir: walDir, PageCap: 16, IngestFlushOps: flushOps})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				return db
			}
			dir := t.TempDir()
			a := open(dir)
			runTorture(t, a, steps, routeAuto)
			want, wantSummaries := logicalState(t, a), summaryState(t, a)
			var saved bytes.Buffer
			if err := a.Save(&saved); err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}

			b := open("")
			runTorture(t, b, steps, routeTxn)
			// Without a WALDir nothing of the log shows.
			if b.walLog() != nil {
				t.Error("Open without WALDir attached a log")
			}
			if m := b.Metrics(); m.WAL != nil || strings.Contains(m.String(), "wal:") {
				t.Errorf("WAL metrics present without a WAL:\n%s", m.String())
			}

			c := open(dir)
			if c.Metrics().WAL.RecoveryReplayedRecords == 0 {
				t.Error("route (c) replayed no records")
			}

			d, err := LoadWithConfig(&saved, Config{IngestFlushOps: flushOps})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			// A loaded database re-derives its summaries from the annotations
			// that survive, so unlike the other routes it does not owe the
			// history a live one keeps (emptied objects, the stored objects of
			// an instance since unlinked).
			for name, db := range map[string]*DB{"txn": b, "recovered": c, "loaded": d} {
				if got := logicalState(t, db); !reflect.DeepEqual(got, want) {
					t.Errorf("route %s diverges from auto-commit\n got: %+v\nwant: %+v", name, got, want)
				}
				if got := summaryState(t, db); db != d && !reflect.DeepEqual(got, wantSummaries) {
					t.Errorf("route %s: derived state diverges from auto-commit", name)
				}
			}
		})
	}
}

// TestMutationsAfterCloseRefused: once Close has detached the log and
// torn down storage, every mutator — and a transaction begun before or
// after — fails with ErrClosed instead of acking a write that never
// reaches the log, and a reopen finds none of them.
func TestMutationsAfterCloseRefused(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{WALDir: dir, PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	tortureWorkload(t, db)
	want := logicalState(t, db)
	oid, ann := want.Tables[0].Tuples[0].OID, want.Annotations[0].ID
	before := db.Begin()
	if _, err := before.Insert("Spots", model.NewText("pending")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	schema := model.NewSchema("", model.Column{Name: "x", Kind: model.KindInt})
	after := db.Begin()
	calls := map[string]func() error{
		"CreateTable":                     func() error { _, err := db.CreateTable("Late", schema); return err },
		"Insert":                          func() error { _, err := db.Insert("Spots", model.NewText("late")); return err },
		"DeleteTuple":                     func() error { return db.DeleteTuple("Birds", oid) },
		"CreateDataIndex":                 func() error { return db.CreateDataIndex("Birds", "name") },
		"DefineClassifier":                func() error { return db.DefineClassifier("Late", []string{"A", "B"}, nil) },
		"DefineSnippet":                   func() error { return db.DefineSnippet("LateSnippet", 200, 80) },
		"DefineCluster":                   func() error { return db.DefineCluster("LateCluster", 3) },
		"LinkInstance":                    func() error { return db.LinkInstance("Spots", "ClassBird1", false) },
		"UnlinkInstance":                  func() error { return db.UnlinkInstance("Birds", "ClassBird1") },
		"CreateSummaryIndex":              func() error { return db.CreateSummaryIndex("Birds", "ClassBird1") },
		"CreateBaselineIndex":             func() error { return db.CreateBaselineIndex("Birds", "ClassBird1") },
		"AddAnnotation":                   func() error { _, err := db.AddAnnotation("Birds", oid, "late", nil, "x"); return err },
		"AttachAnnotation":                func() error { return db.AttachAnnotation("Spots", want.Tables[1].Tuples[0].OID, ann+1) },
		"DeleteAnnotation":                func() error { return db.DeleteAnnotation("Birds", ann) },
		"Txn.Insert":                      func() error { _, err := after.Insert("Spots", model.NewText("late")); return err },
		"Txn.AddAnnotation":               func() error { _, err := after.AddAnnotation("Birds", oid, "late", nil, "x"); return err },
		"Txn.Commit":                      after.Commit,
		"Txn.Commit (begun before Close)": before.Commit,
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: err = %v, want ErrClosed", name, err)
		}
	}
	// The void-signature drops cannot report it; they must just not apply.
	db.DropSummaryIndex("Birds", "ClassBird1")
	db.DropBaselineIndex("Birds", "ClassBird1")
	before.Rollback()
	after.Rollback()

	rdb, err := Open(Config{WALDir: dir, PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if got := logicalState(t, rdb); !reflect.DeepEqual(got, want) {
		t.Errorf("a mutation issued after Close survived the reopen\n got: %+v\nwant: %+v", got, want)
	}
}

// TestRejectedCallsWriteNoLogRecords: validation runs ahead of the
// append, so a call the engine rejects leaves the log exactly as long as
// it was.
func TestRejectedCallsWriteNoLogRecords(t *testing.T) {
	db, err := Open(Config{WALDir: t.TempDir(), PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Birds keeps ClassBird1 linked; TextSummary1 ends up linked to Spots
	// only.
	tortureWorkload(t, db)
	if err := db.LinkInstance("Spots", "TextSummary1", false); err != nil {
		t.Fatal(err)
	}
	schema := model.NewSchema("", model.Column{Name: "x", Kind: model.KindInt})
	rejected := map[string]func() error{
		"Insert with the wrong value count":         func() error { _, err := db.Insert("Birds", model.NewInt(1)); return err },
		"Insert into an unknown table":              func() error { _, err := db.Insert("Nope", model.NewInt(1)); return err },
		"CreateTable of an existing table":          func() error { _, err := db.CreateTable("birds", schema); return err },
		"CreateDataIndex on an unknown table":       func() error { return db.CreateDataIndex("Nope", "x") },
		"DefineSnippet of a defined instance":       func() error { return db.DefineSnippet("TextSummary1", 200, 80) },
		"LinkInstance to an unknown table":          func() error { return db.LinkInstance("Nope", "ClassBird1", false) },
		"LinkInstance of an unknown instance":       func() error { return db.LinkInstance("Birds", "Nope", false) },
		"CreateSummaryIndex, instance not linked":   func() error { return db.CreateSummaryIndex("Birds", "TextSummary1") },
		"CreateBaselineIndex, instance not linked":  func() error { return db.CreateBaselineIndex("Spots", "ClassBird1") },
		"CreateSummaryIndex on a snippet instance":  func() error { return db.CreateSummaryIndex("Spots", "TextSummary1") },
		"CreateBaselineIndex on a snippet instance": func() error { return db.CreateBaselineIndex("Spots", "TextSummary1") },
		"AddAnnotation to a missing tuple":          func() error { _, err := db.AddAnnotation("Birds", 1<<40, "x", nil, "x"); return err },
		"AttachAnnotation of a missing annotation":  func() error { return db.AttachAnnotation("Birds", 1, 1<<40) },
		"DeleteAnnotation of a missing annotation":  func() error { return db.DeleteAnnotation("Birds", 1<<40) },
		"DeleteTuple of a missing tuple":            func() error { return db.DeleteTuple("Birds", 1<<40) },
	}
	for name, call := range rejected {
		appends := db.Metrics().WAL.WALAppends
		if err := call(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := db.Metrics().WAL.WALAppends; got != appends {
			t.Errorf("%s: appended %d log records", name, got-appends)
		}
	}
}
