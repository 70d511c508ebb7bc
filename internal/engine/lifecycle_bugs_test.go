package engine

import (
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/model"
)

// addSpotsTable creates a second table sharing the ClassBird1 instance,
// so cross-table attachments exercise the multi-table delete cascade.
func addSpotsTable(t *testing.T, db *DB) int64 {
	t.Helper()
	schema := model.NewSchema("", model.Column{Name: "place", Kind: model.KindText})
	if _, err := db.CreateTable("Spots", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("ALTER TABLE Spots ADD ClassBird1"); err != nil {
		t.Fatal(err)
	}
	oid, err := db.Insert("Spots", model.NewText("lakeshore"))
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

// labelCount reads one tuple's classifier count for a label on any table.
func labelCount(t *testing.T, db *DB, table string, oid int64, label string) int {
	t.Helper()
	db.FlushIngest()
	tbl, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	obj := tbl.GetSummaries(oid).Get("ClassBird1")
	if obj == nil {
		return 0
	}
	n, err := obj.GetLabelValue(label)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// assertNoElement checks that no summary representative of the tuple
// still references the (deleted) annotation — a dangling element would
// surface as a zoom-in to a vanished annotation.
func assertNoElement(t *testing.T, db *DB, table string, oid, annID int64) {
	t.Helper()
	tbl, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range tbl.GetSummaries(oid) {
		for _, r := range obj.Reps {
			if r.HasElement(annID) || r.RepAnnID == annID {
				t.Errorf("%s tuple %d: instance %s still references deleted annotation %d",
					table, oid, obj.InstanceID, annID)
			}
		}
	}
}

// Deleting an annotation must re-derive the summaries of EVERY tuple it
// targets — the primary one and each tuple it was later attached to,
// across tables. The historical bug re-derived only ann.TupleOID,
// leaving attached tuples with stale counts and dangling element IDs.
func TestDeleteAnnotationShedsAttachedTuples(t *testing.T) {
	db, oids := testDB(t, 2)
	spotOID := addSpotsTable(t, db)
	ann := mustAnnotate(t, db, oids[0], annText("Disease", 99))
	if err := db.AttachAnnotation("Birds", oids[1], ann.ID); err != nil {
		t.Fatal(err)
	}
	if err := db.AttachAnnotation("Spots", spotOID, ann.ID); err != nil {
		t.Fatal(err)
	}
	// Bird 1 carries 1%5=1 disease annotations plus the new one; bird 2
	// carries 2 plus the attachment; the spot only the attachment.
	if got := diseaseCount(t, db, oids[1]); got != 3 {
		t.Fatalf("bird2 disease before delete = %d, want 3", got)
	}
	if got := labelCount(t, db, "Spots", spotOID, "Disease"); got != 1 {
		t.Fatalf("spot disease before delete = %d, want 1", got)
	}

	if err := db.DeleteAnnotation("Birds", ann.ID); err != nil {
		t.Fatal(err)
	}
	if got := diseaseCount(t, db, oids[0]); got != 1 {
		t.Errorf("primary tuple disease after delete = %d, want 1", got)
	}
	if got := diseaseCount(t, db, oids[1]); got != 2 {
		t.Errorf("attached tuple disease after delete = %d, want 2", got)
	}
	if got := labelCount(t, db, "Spots", spotOID, "Disease"); got != 0 {
		t.Errorf("cross-table attached tuple disease after delete = %d, want 0", got)
	}
	assertNoElement(t, db, "Birds", oids[0], ann.ID)
	assertNoElement(t, db, "Birds", oids[1], ann.ID)
	assertNoElement(t, db, "Spots", spotOID, ann.ID)
}

// Attaching an annotation must be idempotent: re-attaching to an already
// targeted tuple (or to its primary tuple) must not double count it in
// the classifier element sets or duplicate its snippet representative.
func TestAttachAnnotationIdempotent(t *testing.T) {
	db, oids := testDB(t, 2)
	ann := mustAnnotate(t, db, oids[0], annText("Disease", 99))
	base := diseaseCount(t, db, oids[1]) // 2%5 = 2
	if err := db.AttachAnnotation("Birds", oids[1], ann.ID); err != nil {
		t.Fatal(err)
	}
	if err := db.AttachAnnotation("Birds", oids[1], ann.ID); err != nil {
		t.Fatal(err) // repeated attach
	}
	if err := db.AttachAnnotation("Birds", oids[0], ann.ID); err != nil {
		t.Fatal(err) // re-attach to the primary tuple
	}
	if got := diseaseCount(t, db, oids[1]); got != base+1 {
		t.Errorf("attached tuple disease = %d, want %d (double-counted attach)", got, base+1)
	}
	if got := diseaseCount(t, db, oids[0]); got != 2 {
		t.Errorf("primary tuple disease = %d, want 2", got)
	}
	// The raw annotation lists each tuple exactly once.
	for _, oid := range []int64{oids[0], oids[1]} {
		n := 0
		for _, a := range db.Annotations(oid) {
			if a.ID == ann.ID {
				n++
			}
		}
		if n != 1 {
			t.Errorf("tuple %d lists annotation %d times, want 1", oid, n)
		}
	}
	// Element sets stay sets: every representative's count equals its
	// element cardinality with no duplicate IDs.
	tbl, _ := db.Table("Birds")
	obj := tbl.GetSummaries(oids[1]).Get("ClassBird1")
	for _, r := range obj.Reps {
		for i := 1; i < len(r.Elements); i++ {
			if r.Elements[i] == r.Elements[i-1] {
				t.Errorf("label %s has duplicate element %d", r.Label, r.Elements[i])
			}
		}
	}
}

// Short annotations above SnippetMaxChars are truncated into their own
// snippet; the cut must never split a multi-byte UTF-8 rune.
func TestSnippetTruncationRuneSafe(t *testing.T) {
	db, oids := testDB(t, 1)
	// 1 + 60*2 = 121 bytes: above TextSummary1's maxChars (80), below its
	// minChars (200) so the verbatim-truncation path runs. Byte 80 lands
	// on the second byte of a two-byte rune.
	text := "a" + strings.Repeat("я", 60)
	ann := mustAnnotate(t, db, oids[0], text)
	tbl, _ := db.Table("Birds")
	obj := tbl.GetSummaries(oids[0]).Get("TextSummary1")
	var rep *model.Rep
	for i := range obj.Reps {
		if obj.Reps[i].RepAnnID == ann.ID {
			rep = &obj.Reps[i]
		}
	}
	if rep == nil {
		t.Fatal("snippet representative missing")
	}
	if !utf8.ValidString(rep.Text) {
		t.Errorf("snippet is not valid UTF-8: %q", rep.Text)
	}
	if !strings.HasPrefix(text, rep.Text) || len(rep.Text) > 80 {
		t.Errorf("snippet %q is not a <=80-byte prefix of the annotation", rep.Text)
	}
	if len(rep.Text) != 79 {
		t.Errorf("snippet length = %d bytes, want 79 (backed up to the rune boundary)", len(rep.Text))
	}
}

// Every column-targeted attachment bumps its table's ColAttachedAnns;
// deleting the annotation must unwind every one of those bumps, on every
// table it touched.
func TestDeleteColumnAnnotationUnwindsCounters(t *testing.T) {
	db, oids := testDB(t, 2)
	spotOID := addSpotsTable(t, db)
	birds, _ := db.Table("Birds")
	spots, _ := db.Table("Spots")
	base := birds.ColAttachedAnns

	ann, err := db.AddAnnotation("Birds", oids[0], annText("Other", 1), []string{"name"}, "tester")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachAnnotation("Birds", oids[1], ann.ID); err != nil {
		t.Fatal(err)
	}
	if err := db.AttachAnnotation("Spots", spotOID, ann.ID); err != nil {
		t.Fatal(err)
	}
	if birds.ColAttachedAnns != base+2 || spots.ColAttachedAnns != 1 {
		t.Fatalf("counters after attach: Birds=%d want %d, Spots=%d want 1",
			birds.ColAttachedAnns, base+2, spots.ColAttachedAnns)
	}

	if err := db.DeleteAnnotation("Birds", ann.ID); err != nil {
		t.Fatal(err)
	}
	if birds.ColAttachedAnns != base {
		t.Errorf("Birds.ColAttachedAnns after delete = %d, want %d", birds.ColAttachedAnns, base)
	}
	if spots.ColAttachedAnns != 0 {
		t.Errorf("Spots.ColAttachedAnns after delete = %d, want 0", spots.ColAttachedAnns)
	}
}

// Deleting a tuple removes its annotations outright; an annotation that
// also targets OTHER tuples must be shed from each of them too.
func TestDeleteTupleShedsSharedAnnotations(t *testing.T) {
	db, oids := testDB(t, 2)
	ann := mustAnnotate(t, db, oids[0], annText("Disease", 99))
	if err := db.AttachAnnotation("Birds", oids[1], ann.ID); err != nil {
		t.Fatal(err)
	}
	if got := diseaseCount(t, db, oids[1]); got != 3 {
		t.Fatalf("bird2 disease before tuple delete = %d, want 3", got)
	}
	if err := db.DeleteTuple("Birds", oids[0]); err != nil {
		t.Fatal(err)
	}
	if got := diseaseCount(t, db, oids[1]); got != 2 {
		t.Errorf("bird2 disease after deleting the primary tuple = %d, want 2", got)
	}
	assertNoElement(t, db, "Birds", oids[1], ann.ID)
	if _, ok := db.cat.Anns.Get(ann.ID); ok {
		t.Error("annotation survived its primary tuple's delete")
	}
}

// TestUnlinkDropsInstanceSummaries: ALTER TABLE ... DROP strips the
// instance's object from every stored set and drops its statistics, so
// the object stops propagating, a re-link summarizes only what arrives
// after it (as a first link does) with statistics that count it, and no
// later maintenance revives statistics for the unlinked instance.
func TestUnlinkDropsInstanceSummaries(t *testing.T) {
	for _, every := range []int{0, 64} {
		db, oids := testDBWithConfig(t, 3, Config{PageCap: 16, IngestFlushOps: every})
		birds, _ := db.Table("Birds")
		snip := func() *model.SummaryObject {
			t.Helper()
			res, err := db.Query("SELECT * FROM Birds", nil)
			if err != nil {
				t.Fatal(err)
			}
			var obj *model.SummaryObject
			for _, row := range res.Rows {
				if o := row.Tuple.Summaries.Get("Snip"); o != nil && row.Tuple.OID == oids[0] {
					obj = o
				} else if o != nil {
					t.Errorf("threshold %d: tuple %d carries %s", every, row.Tuple.OID, o)
				}
			}
			return obj
		}
		annotate := func(text string) {
			t.Helper()
			if _, err := db.AddAnnotation("Birds", oids[0], text, nil, "tester"); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.DefineSnippet("Snip", 200, 80); err != nil {
			t.Fatal(err)
		}
		if err := db.LinkInstance("Birds", "Snip", false); err != nil {
			t.Fatal(err)
		}
		annotate("first note")
		if err := db.UnlinkInstance("Birds", "Snip"); err != nil {
			t.Fatal(err)
		}
		if obj := snip(); obj != nil {
			t.Errorf("threshold %d: unlinked instance still propagates %s", every, obj)
		}
		annotate("second note") // while unlinked: never summarized by Snip
		if err := db.LinkInstance("Birds", "Snip", false); err != nil {
			t.Fatal(err)
		}
		annotate("third note")
		if got, want := snip().String(), `Snip[("third note")]`; got != want {
			t.Errorf("threshold %d: re-linked object %s, want %s", every, got, want)
		}
		if st := birds.Stats("Snip"); st.AvgObjectSize() <= 0 {
			t.Errorf("threshold %d: re-linked statistics %s", every, st)
		}
		if err := db.UnlinkInstance("Birds", "Snip"); err != nil {
			t.Fatal(err)
		}
		if err := db.DeleteTuple("Birds", oids[0]); err != nil {
			t.Fatal(err)
		}
		if _, ok := birds.InstStats["snip"]; ok {
			t.Errorf("threshold %d: a tuple delete re-created statistics for the unlinked instance", every)
		}
	}
}
