package engine

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db, oids := testDB(t, 15)
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateDataIndex("Birds", "id"); err != nil {
		t.Fatal(err)
	}
	// A column-attached annotation and a multi-tuple attachment, to
	// exercise both replay paths.
	if _, err := db.AddAnnotation("Birds", oids[0], "column note on family", []string{"family"}, "u"); err != nil {
		t.Fatal(err)
	}
	shared := mustAnnotate(t, db, oids[1], annText("Disease", 500))
	if err := db.AttachAnnotation("Birds", oids[2], shared.ID); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Same logical content: row counts, annotation counts, summaries.
	t1, _ := db.Table("Birds")
	t2, _ := db2.Table("Birds")
	if t1.Len() != t2.Len() {
		t.Fatalf("tuple counts: %d vs %d", t1.Len(), t2.Len())
	}
	if db.AnnotationCount() != db2.AnnotationCount() {
		t.Fatalf("annotation counts: %d vs %d", db.AnnotationCount(), db2.AnnotationCount())
	}
	if t1.ColAttachedAnns != t2.ColAttachedAnns {
		t.Errorf("column-attached counters: %d vs %d", t1.ColAttachedAnns, t2.ColAttachedAnns)
	}

	// OIDs, annotation IDs and logical timestamps survive the round trip:
	// an OID a client holds still addresses its tuple, and every summary
	// object comes back with the same zoom-in element IDs.
	for _, oid := range oids {
		if a, b := t1.GetSummaries(oid), t2.GetSummaries(oid); !reflect.DeepEqual(a, b) {
			t.Fatalf("tuple %d: summaries differ after Load:\n%v\nvs\n%v", oid, a, b)
		}
		if a, b := db.Annotations(oid), db2.Annotations(oid); !reflect.DeepEqual(a, b) {
			t.Fatalf("tuple %d: annotations differ after Load", oid)
		}
	}
	zoom, err := db2.ZoomIn("Birds", "ClassBird1", "Disease", "id = 2")
	if err != nil || len(zoom) != 1 || zoom[0].TupleOID != oids[1] {
		t.Fatalf("zoom on the restored DB: %+v, %v", zoom, err)
	}
	found := false
	for _, a := range zoom[0].Annotations {
		found = found || a.ID == shared.ID
	}
	if !found {
		t.Errorf("annotation %d is not behind bird 2's Disease label after Load", shared.ID)
	}

	// Queries agree, and the restored index is used. (SELECT * keeps all
	// columns, so the column-attached annotation added above does not
	// force the conservative effect-projection path.)
	q := `SELECT * FROM Birds r WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 3`
	r1, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db2.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("query rows: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	expl, _ := db2.Explain(q, nil)
	if !strings.Contains(expl, "SummaryBTreeScan") {
		t.Errorf("restored DB lost its index:\n%s", expl)
	}

	// The restored classifier still classifies.
	if db2.Classifier("ClassBird1") == nil {
		t.Fatal("classifier model not restored")
	}
	// New identifiers continue past the dumped watermarks.
	newOID, _ := db2.Insert("Birds", model.NewInt(999), model.NewText("New"), model.NewText("F"))
	if want := db.cat.NextOID() + 1; newOID != want {
		t.Errorf("first OID after Load = %d, want %d, one past the dumped watermark", newOID, want)
	}
	if _, err := db2.AddAnnotation("Birds", newOID, annText("Disease", 1), nil, "u"); err != nil {
		t.Fatal(err)
	}
	tbl2, _ := db2.Table("Birds")
	obj := tbl2.GetSummaries(newOID).Get("ClassBird1")
	if n, _ := obj.GetLabelValue("Disease"); n != 1 {
		t.Errorf("restored classifier misclassified: Disease=%d", n)
	}
}

func TestSnapshotMultiTupleAttachmentSurvives(t *testing.T) {
	db, oids := testDB(t, 5)
	shared := mustAnnotate(t, db, oids[0], annText("Disease", 9))
	if err := db.AttachAnnotation("Birds", oids[3], shared.ID); err != nil {
		t.Fatal(err)
	}
	before := diseaseCount(t, db, oids[3])

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db2.Query("SELECT id FROM Birds WHERE id = 4", nil)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("lookup: %v, %d rows", err, len(res.Rows))
	}
	obj := res.Rows[0].Tuple.Summaries.Get("ClassBird1")
	if n, _ := obj.GetLabelValue("Disease"); n != before {
		t.Errorf("shared attachment lost: Disease=%d want %d", n, before)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage input should fail")
	}
}
