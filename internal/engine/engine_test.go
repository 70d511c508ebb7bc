package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/optimizer"
)

// birdTraining is the labeled corpus for ClassBird1.
var birdTraining = map[string][]string{
	"Disease": {
		"infection symptoms parasites observed in the specimen",
		"avian flu outbreak sick individuals lesions",
		"disease spreading virus detected illness",
	},
	"Anatomy": {
		"wingspan measured beak orange plumage grey",
		"body weight skeletal structure bone density",
		"feathers molt neck长 measurements of the wing",
	},
	"Behavior": {
		"observed eating stonewort foraging near the shore",
		"migration patterns nesting courtship display",
		"flock sings at dawn and forages",
	},
	"Other": {
		"photo uploaded from field trip reference attached",
		"duplicate record general comment about the entry",
		"database entry updated see citation",
	},
}

// annText returns deterministic annotation text for a label.
func annText(label string, i int) string {
	switch label {
	case "Disease":
		return fmt.Sprintf("observation %d: the bird shows infection and disease symptoms", i)
	case "Anatomy":
		return fmt.Sprintf("observation %d: wingspan and beak measured, plumage noted", i)
	case "Behavior":
		return fmt.Sprintf("observation %d: seen foraging and eating near the lake", i)
	default:
		return fmt.Sprintf("observation %d: photo uploaded, general comment", i)
	}
}

// testDB builds a Birds table with nBirds tuples; bird i (1-based
// within this table) receives i%5 disease, i%3 anatomy, and 1 behavior
// annotation. Returns the DB and the OIDs in insertion order.
func testDB(t *testing.T, nBirds int) (*DB, []int64) {
	t.Helper()
	return testDBWithConfig(t, nBirds, Config{PageCap: 16})
}

// testDBWithConfig is testDB under an explicit engine configuration
// (buffer pool sizes, timeouts); the dataset is identical.
func testDBWithConfig(t *testing.T, nBirds int, cfg Config) (*DB, []int64) {
	t.Helper()
	db := New(cfg)
	if cfg.BufferPoolPages > 0 {
		t.Cleanup(func() { db.Close() })
	}
	schema := model.NewSchema("",
		model.Column{Name: "id", Kind: model.KindInt},
		model.Column{Name: "name", Kind: model.KindText},
		model.Column{Name: "family", Kind: model.KindText},
	)
	if _, err := db.CreateTable("Birds", schema); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineClassifier("ClassBird1",
		[]string{"Disease", "Anatomy", "Behavior", "Other"}, birdTraining); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineSnippet("TextSummary1", 200, 80); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("ALTER TABLE Birds ADD ClassBird1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("ALTER TABLE Birds ADD TextSummary1"); err != nil {
		t.Fatal(err)
	}
	families := []string{"Anatidae", "Corvidae", "Laridae"}
	var oids []int64
	for i := 1; i <= nBirds; i++ {
		name := fmt.Sprintf("Bird%03d", i)
		if i%7 == 0 {
			name = fmt.Sprintf("Swan%03d", i)
		}
		oid, err := db.Insert("Birds",
			model.NewInt(int64(i)), model.NewText(name), model.NewText(families[i%3]))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
		for d := 0; d < i%5; d++ {
			mustAnnotate(t, db, oid, annText("Disease", d))
		}
		for a := 0; a < i%3; a++ {
			mustAnnotate(t, db, oid, annText("Anatomy", a))
		}
		mustAnnotate(t, db, oid, annText("Behavior", 0))
	}
	return db, oids
}

func mustAnnotate(t *testing.T, db *DB, oid int64, text string) *model.Annotation {
	t.Helper()
	ann, err := db.AddAnnotation("Birds", oid, text, nil, "tester")
	if err != nil {
		t.Fatal(err)
	}
	return ann
}

func diseaseCount(t *testing.T, db *DB, oid int64) int {
	t.Helper()
	tbl, _ := db.Table("Birds")
	set := tbl.GetSummaries(oid)
	if set == nil {
		return 0
	}
	obj := set.Get("ClassBird1")
	if obj == nil {
		return 0
	}
	n, err := obj.GetLabelValue("Disease")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSummarizationPipeline(t *testing.T) {
	db, oids := testDB(t, 20)
	// Bird 9 (index 8): 9%5=4 disease, 9%3=0 anatomy, 1 behavior.
	if got := diseaseCount(t, db, oids[8]); got != 4 {
		t.Errorf("disease count = %d, want 4", got)
	}
	tbl, _ := db.Table("Birds")
	set := tbl.GetSummaries(oids[8])
	cls := set.Get("ClassBird1")
	if cls.Size() != 4 {
		t.Errorf("classifier labels = %d", cls.Size())
	}
	if total := cls.TotalCount(); total != 4+0+1 {
		t.Errorf("total classified = %d, want 5", total)
	}
	snip := set.Get("TextSummary1")
	if snip == nil || snip.Size() != 5 {
		t.Fatalf("snippet object: %v", snip)
	}
	// Statistics maintained.
	if st := tbl.Stats("ClassBird1"); st.Label("Disease").Max() != 4 {
		t.Errorf("stats Disease max = %d", st.Label("Disease").Max())
	}
}

func TestSimpleSelectWithSummaryPredicate(t *testing.T) {
	db, _ := testDB(t, 20)
	res, err := db.Query(`SELECT name FROM Birds r
		WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 3`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// i%5 >= 3: i in {3,4,8,9,13,14,18,19}.
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8\n%s", len(res.Rows), res)
	}
	for _, row := range res.Rows {
		if row.Tuple.Summaries.Get("ClassBird1") == nil {
			t.Error("summaries not propagated")
		}
	}
}

func TestDataPredicateAndLike(t *testing.T) {
	db, _ := testDB(t, 20)
	res, err := db.Query("SELECT id, name FROM Birds WHERE name LIKE 'Swan%'", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // birds 7, 14
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Columns[0] != "id" || res.Columns[1] != "name" {
		t.Errorf("columns: %v", res.Columns)
	}
}

func TestWithoutSummariesSkipsPropagation(t *testing.T) {
	db, _ := testDB(t, 10)
	res, err := db.Query("SELECT * FROM Birds WITHOUT SUMMARIES", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Tuple.Summaries != nil {
			t.Fatal("summaries attached despite WITHOUT SUMMARIES")
		}
	}
}

func TestIndexAndScanAgree(t *testing.T) {
	db, _ := testDB(t, 40)
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	q := `SELECT id FROM Birds r
	      WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2`
	withIdx, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	noIdx, err := db.Query(q, &optimizer.Options{NoSummaryIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(withIdx.Rows) == 0 || len(withIdx.Rows) != len(noIdx.Rows) {
		t.Fatalf("index %d vs scan %d rows", len(withIdx.Rows), len(noIdx.Rows))
	}
	seen := map[int64]bool{}
	for _, r := range noIdx.Rows {
		seen[r.Tuple.Values[0].Int] = true
	}
	for _, r := range withIdx.Rows {
		if !seen[r.Tuple.Values[0].Int] {
			t.Errorf("index returned extra id %d", r.Tuple.Values[0].Int)
		}
	}
	// The plan actually uses the index.
	expl, _ := db.Explain(q, nil)
	if !strings.Contains(expl, "SummaryBTreeScan") {
		t.Errorf("plan does not use the index:\n%s", expl)
	}
	// Propagated summaries identical under both plans (invariant P7).
	for i := range withIdx.Rows {
		a := withIdx.Rows[i].Tuple.Summaries
		// Order may differ; match by id.
		id := withIdx.Rows[i].Tuple.Values[0].Int
		for _, r := range noIdx.Rows {
			if r.Tuple.Values[0].Int == id {
				if !a.Equal(r.Tuple.Summaries) {
					t.Errorf("summaries differ for id %d:\n%s\n%s", id, a, r.Tuple.Summaries)
				}
			}
		}
	}
}

func TestBaselineIndexPathAgrees(t *testing.T) {
	db, _ := testDB(t, 30)
	if err := db.CreateBaselineIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	q := `SELECT id FROM Birds r
	      WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 4`
	base, err := db.Query(q, &optimizer.Options{UseBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	scan, err := db.Query(q, &optimizer.Options{NoSummaryIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) != len(scan.Rows) || len(base.Rows) == 0 {
		t.Fatalf("baseline %d vs scan %d", len(base.Rows), len(scan.Rows))
	}
	expl, _ := db.Explain(q, &optimizer.Options{UseBaseline: true})
	if !strings.Contains(expl, "BaselineIndexScan") {
		t.Errorf("plan does not use baseline index:\n%s", expl)
	}
}

func TestSummarySortQ3(t *testing.T) {
	db, _ := testDB(t, 25)
	q := `SELECT id FROM Birds r
	      ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC`
	res, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 25 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	prev := 1 << 30
	for _, row := range res.Rows {
		c := diseaseCount(t, db, row.Tuple.OID)
		if c > prev {
			t.Fatalf("not sorted desc: %d after %d", c, prev)
		}
		prev = c
	}
}

func TestSortEliminationViaIndexOrder(t *testing.T) {
	db, _ := testDB(t, 30)
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	q := `SELECT id FROM Birds r
	      ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease')`
	expl, err := db.Explain(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expl, "eliminated: index order") {
		t.Errorf("sort not eliminated:\n%s", expl)
	}
	res, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, row := range res.Rows {
		c := diseaseCount(t, db, row.Tuple.OID)
		if c < prev {
			t.Fatalf("index order broken: %d after %d", c, prev)
		}
		prev = c
	}
	if len(res.Rows) != 30 {
		t.Errorf("ordered scan returned %d rows", len(res.Rows))
	}
}

func TestGroupByMergesSummaries(t *testing.T) {
	db, _ := testDB(t, 12)
	q := `SELECT family, count(*) FROM Birds GROUP BY family`
	res, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d\n%s", len(res.Rows), res)
	}
	totalBirds := int64(0)
	totalDisease := 0
	for _, row := range res.Rows {
		totalBirds += row.Tuple.Values[1].Int
		obj := row.Tuple.Summaries.Get("ClassBird1")
		if obj == nil {
			t.Fatal("group lost its merged summaries")
		}
		d, _ := obj.GetLabelValue("Disease")
		totalDisease += d
	}
	if totalBirds != 12 {
		t.Errorf("count sum = %d", totalBirds)
	}
	// Sum over groups equals sum over birds (no double counting).
	want := 0
	for i := 1; i <= 12; i++ {
		want += i % 5
	}
	if totalDisease != want {
		t.Errorf("merged disease total = %d, want %d", totalDisease, want)
	}
}

func TestJoinMergeNoDoubleCounting(t *testing.T) {
	db, oids := testDB(t, 6)
	// Second table sharing the ClassBird1 instance.
	schema := model.NewSchema("",
		model.Column{Name: "id", Kind: model.KindInt},
		model.Column{Name: "note", Kind: model.KindText},
	)
	if _, err := db.CreateTable("Obs", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("ALTER TABLE Obs ADD ClassBird1"); err != nil {
		t.Fatal(err)
	}
	obsOID, err := db.Insert("Obs", model.NewInt(3), model.NewText("field obs"))
	if err != nil {
		t.Fatal(err)
	}
	// One fresh annotation on the Obs tuple plus one annotation SHARED
	// with Birds tuple 3.
	if _, err := db.AddAnnotation("Obs", obsOID, annText("Disease", 99), nil, "x"); err != nil {
		t.Fatal(err)
	}
	shared := mustAnnotate(t, db, oids[2], annText("Disease", 100)) // birds #3 gets 4th... (3%5=3 existing)
	if err := db.AttachAnnotation("Obs", obsOID, shared.ID); err != nil {
		t.Fatal(err)
	}

	before := diseaseCount(t, db, oids[2]) // includes shared
	res, err := db.Query(`SELECT r.id, o.note FROM Birds r, Obs o WHERE r.id = o.id`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	merged := res.Rows[0].Tuple.Summaries.Get("ClassBird1")
	if merged == nil {
		t.Fatal("merged classifier missing")
	}
	got, _ := merged.GetLabelValue("Disease")
	// birds-side disease (incl. shared) + obs-side 2 - 1 shared.
	want := before + 2 - 1
	if got != want {
		t.Errorf("merged Disease = %d, want %d (no double counting)", got, want)
	}
}

func TestSummaryJoinVersionsDiff(t *testing.T) {
	db, _ := testDB(t, 8)
	// V2 = copy of Birds with one extra disease annotation on bird 5.
	tbl, _ := db.Table("Birds")
	schema := tbl.Schema
	if _, err := db.CreateTable("BirdsV2", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("ALTER TABLE BirdsV2 ADD ClassBird1"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		oid, err := db.Insert("BirdsV2",
			model.NewInt(int64(i)), model.NewText(fmt.Sprintf("Bird%03d", i)), model.NewText("F"))
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < i%5; d++ {
			if _, err := db.AddAnnotation("BirdsV2", oid, annText("Disease", d), nil, "x"); err != nil {
				t.Fatal(err)
			}
		}
		for a := 0; a < i%3; a++ {
			if _, err := db.AddAnnotation("BirdsV2", oid, annText("Anatomy", a), nil, "x"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.AddAnnotation("BirdsV2", oid, annText("Behavior", 0), nil, "x"); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			if _, err := db.AddAnnotation("BirdsV2", oid, annText("Disease", 77), nil, "x"); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := `SELECT v1.id FROM Birds v1, BirdsV2 v2
	      WHERE v1.id = v2.id
	      AND v1.$.getSummaryObject('ClassBird1').getLabelValue('Disease')
	       <> v2.$.getSummaryObject('ClassBird1').getLabelValue('Disease')`
	res, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Tuple.Values[0].Int != 5 {
		t.Fatalf("version diff: %s", res)
	}
	// The J predicate must run pre-merge: with optimizations disabled
	// the result must be identical.
	res2, err := db.Query(q, &optimizer.Options{Disable: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 1 {
		t.Fatalf("disabled-optimizer result differs: %d rows", len(res2.Rows))
	}
}

func TestSnippetKeywordSearch(t *testing.T) {
	db, oids := testDB(t, 5)
	long := strings.Repeat("The swan goose migrates across Mongolia. ", 12) +
		"A hormone study was conducted on the colony. " +
		strings.Repeat("Wetland habitat is shrinking every year. ", 8)
	if _, err := db.AddAnnotation("Birds", oids[0], long, nil, "x"); err != nil {
		t.Fatal(err)
	}
	q := `SELECT id FROM Birds r
	      WHERE r.$.getSummaryObject('TextSummary1').containsUnion('hormone', 'goose')`
	res, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Tuple.OID != oids[0] {
		t.Fatalf("keyword search: %s", res)
	}
}

func TestZoomIn(t *testing.T) {
	db, _ := testDB(t, 10)
	zooms, err := db.ZoomIn("Birds", "ClassBird1", "Disease", "name LIKE 'Swan%'")
	if err != nil {
		t.Fatal(err)
	}
	if len(zooms) != 1 { // bird 7 (Swan007): 7%5=2 disease annotations
		t.Fatalf("zoom results = %d", len(zooms))
	}
	if len(zooms[0].Annotations) != 2 {
		t.Errorf("zoomed annotations = %d, want 2", len(zooms[0].Annotations))
	}
	for _, a := range zooms[0].Annotations {
		if !strings.Contains(a.Text, "disease") && !strings.Contains(a.Text, "infection") {
			t.Errorf("non-disease annotation zoomed: %q", a.Text)
		}
	}
	// Via SQL.
	res, err := db.Exec("ZOOM IN ON Birds.ClassBird1 LABEL 'Disease' WHERE name LIKE 'Swan%'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("SQL zoom rows = %d", len(res.Rows))
	}
}

func TestAlterStatements(t *testing.T) {
	db, _ := testDB(t, 3)
	if _, err := db.Exec("ALTER TABLE Birds DROP TextSummary1"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("Birds")
	if tbl.HasInstance("TextSummary1") {
		t.Error("instance not dropped")
	}
	if _, err := db.Exec("ALTER TABLE Birds ADD INDEXABLE ClassBird1"); err == nil {
		t.Error("re-adding a linked instance should fail")
	}
	if _, err := db.Exec("ALTER TABLE Birds ADD Nonexistent"); err == nil {
		t.Error("unknown instance should fail")
	}
}

func TestDeleteAnnotationMaintainsEverything(t *testing.T) {
	db, oids := testDB(t, 10)
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	// Bird 4 has 4 disease annotations; delete one.
	anns := db.Annotations(oids[3])
	var target int64
	for _, a := range anns {
		if strings.Contains(a.Text, "disease") || strings.Contains(a.Text, "infection") {
			target = a.ID
			break
		}
	}
	if target == 0 {
		t.Fatal("no disease annotation found")
	}
	before := diseaseCount(t, db, oids[3])
	if err := db.DeleteAnnotation("Birds", target); err != nil {
		t.Fatal(err)
	}
	if got := diseaseCount(t, db, oids[3]); got != before-1 {
		t.Errorf("count after delete = %d, want %d", got, before-1)
	}
	// Index agrees.
	res, err := db.Query(fmt.Sprintf(`SELECT id FROM Birds r
		WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = %d`, before-1), nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if row.Tuple.OID == oids[3] {
			found = true
		}
	}
	if !found {
		t.Error("index did not reflect the deletion")
	}
}

func TestDeleteTupleCleansUp(t *testing.T) {
	db, oids := testDB(t, 5)
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	annsBefore := db.AnnotationCount()
	victimAnns := len(db.Annotations(oids[2]))
	if err := db.DeleteTuple("Birds", oids[2]); err != nil {
		t.Fatal(err)
	}
	if db.AnnotationCount() != annsBefore-victimAnns {
		t.Errorf("annotations not cleaned: %d -> %d", annsBefore, db.AnnotationCount())
	}
	res, err := db.Query("SELECT id FROM Birds", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("rows after delete = %d", len(res.Rows))
	}
	if err := db.DeleteTuple("Birds", oids[2]); err == nil {
		t.Error("double delete should fail")
	}
}

func TestProjectionEliminatesAnnotationEffects(t *testing.T) {
	db := New(Config{PageCap: 16})
	schema := model.NewSchema("",
		model.Column{Name: "a", Kind: model.KindInt},
		model.Column{Name: "b", Kind: model.KindText},
		model.Column{Name: "c", Kind: model.KindText},
	)
	if _, err := db.CreateTable("T", schema); err != nil {
		t.Fatal(err)
	}
	training := map[string][]string{
		"Disease": birdTraining["Disease"],
		"Other":   birdTraining["Other"],
	}
	if err := db.DefineClassifier("C1", []string{"Disease", "Other"}, training); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("ALTER TABLE T ADD C1"); err != nil {
		t.Fatal(err)
	}
	oid, _ := db.Insert("T", model.NewInt(1), model.NewText("x"), model.NewText("y"))
	// One row-level disease annotation + one attached only to column c.
	if _, err := db.AddAnnotation("T", oid, "infection disease symptoms", nil, "u"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAnnotation("T", oid, "disease outbreak sick virus", []string{"c"}, "u"); err != nil {
		t.Fatal(err)
	}
	// Query touching only a and b: the c-only annotation's effect must
	// disappear from the propagated classifier (Example 1 semantics).
	res, err := db.Query("SELECT a, b FROM T", nil)
	if err != nil {
		t.Fatal(err)
	}
	obj := res.Rows[0].Tuple.Summaries.Get("C1")
	if obj == nil {
		t.Fatal("classifier missing")
	}
	if got, _ := obj.GetLabelValue("Disease"); got != 1 {
		t.Errorf("projected Disease = %d, want 1 (column-c annotation eliminated)", got)
	}
	// Query touching c keeps both.
	res2, err := db.Query("SELECT a, c FROM T", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res2.Rows[0].Tuple.Summaries.Get("C1").GetLabelValue("Disease"); got != 2 {
		t.Errorf("full Disease = %d, want 2", got)
	}
}

func TestClusterInstanceEndToEnd(t *testing.T) {
	db := New(Config{PageCap: 16})
	schema := model.NewSchema("", model.Column{Name: "id", Kind: model.KindInt})
	if _, err := db.CreateTable("T", schema); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineCluster("SimCluster", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("ALTER TABLE T ADD SimCluster"); err != nil {
		t.Fatal(err)
	}
	oid, _ := db.Insert("T", model.NewInt(1))
	for i := 0; i < 6; i++ {
		db.AddAnnotation("T", oid, "infection parasite disease symptoms", nil, "u")
	}
	for i := 0; i < 6; i++ {
		db.AddAnnotation("T", oid, "wingspan plumage beak feathers", nil, "u")
	}
	tbl, _ := db.Table("T")
	obj := tbl.GetSummaries(oid).Get("SimCluster")
	if obj == nil || obj.Size() == 0 || obj.Size() > 4 {
		t.Fatalf("cluster object: %v", obj)
	}
	if obj.TotalCount() != 12 {
		t.Errorf("cluster population = %d, want 12", obj.TotalCount())
	}
	// Summary-set function via SQL.
	res, err := db.Query("SELECT id FROM T r WHERE r.$.getSize() = 1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("getSize query rows = %d", len(res.Rows))
	}
}

func TestOptimizerDisabledSameResults(t *testing.T) {
	db, _ := testDB(t, 15)
	db.CreateSummaryIndex("Birds", "ClassBird1")
	db.CreateDataIndex("Birds", "id")
	queries := []string{
		`SELECT id FROM Birds r WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 1`,
		`SELECT name FROM Birds WHERE family = 'Corvidae' AND id < 10`,
		`SELECT id FROM Birds r ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease')`,
	}
	for _, q := range queries {
		a, err := db.Query(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		b, err := db.Query(q, &optimizer.Options{Disable: true})
		if err != nil {
			t.Fatalf("%s (disabled): %v", q, err)
		}
		if len(a.Rows) != len(b.Rows) {
			t.Errorf("%s: optimized %d vs canonical %d rows", q, len(a.Rows), len(b.Rows))
		}
	}
}

func TestQueryErrors(t *testing.T) {
	db, _ := testDB(t, 3)
	bad := []string{
		"SELECT * FROM NoSuchTable",
		"SELECT nosuchcol FROM Birds",
		"SELECT * FROM Birds WHERE r.$.getNoSuchFunc() = 1",
	}
	for _, q := range bad {
		if _, err := db.Query(q, nil); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
	if _, err := db.Exec("ZOOM IN ON Birds.NoSuchInstance"); err == nil {
		t.Error("zoom on unknown instance should fail")
	}
	if _, err := db.Query("ALTER TABLE Birds DROP ClassBird1", nil); err == nil {
		t.Error("Query of non-SELECT should fail")
	}
}

func TestLimitAndProjectionAliases(t *testing.T) {
	db, _ := testDB(t, 10)
	res, err := db.Query("SELECT name AS bird_name FROM Birds LIMIT 3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Columns[0] != "bird_name" {
		t.Errorf("limit/alias: %d rows, cols %v", len(res.Rows), res.Columns)
	}
}

func TestExplainShapes(t *testing.T) {
	db, _ := testDB(t, 10)
	db.CreateSummaryIndex("Birds", "ClassBird1")
	expl, err := db.Explain(`SELECT id FROM Birds r
		WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 1
		AND family = 'Corvidae'`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SummaryBTreeScan", "Select"} {
		if !strings.Contains(expl, want) {
			t.Errorf("explain missing %q:\n%s", want, expl)
		}
	}
	disabled, _ := db.Explain(`SELECT id FROM Birds r
		WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 1`,
		&optimizer.Options{Disable: true})
	if !strings.Contains(disabled, "SeqScan") || strings.Contains(disabled, "SummaryBTreeScan") {
		t.Errorf("disabled plan wrong:\n%s", disabled)
	}
}

// TestBaselineReconstructSurvivesJoin: a reconstructing baseline scan
// hands the join classifier objects that are labels and counts with no
// element lists. Synonyms carries no summaries, so each such object
// reaches the join's merge without a partner and must leave it with its
// counts, as it does from the single-table query.
func TestBaselineReconstructSurvivesJoin(t *testing.T) {
	db, _ := testDB(t, 30)
	if err := db.CreateBaselineIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("Synonyms", model.NewSchema("",
		model.Column{Name: "bird_id", Kind: model.KindInt},
		model.Column{Name: "synonym", Kind: model.KindText})); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		if _, err := db.Insert("Synonyms", model.NewInt(int64(i)), model.NewText(fmt.Sprintf("Syn%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	opts := &optimizer.Options{UseBaseline: true, BaselineReconstruct: true}
	single, err := db.Query(`SELECT r.id FROM Birds r
	      WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 4`, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]string{}
	for _, r := range single.Rows {
		want[r.Tuple.Values[0].Int] = r.Tuple.Summaries.Get("ClassBird1").String()
	}
	if len(want) == 0 || !strings.Contains(single.Rows[0].Tuple.Summaries.Get("ClassBird1").String(), "(Disease,4)") {
		t.Fatalf("single-table baseline query: %d rows, first %v", len(want), single.Rows)
	}
	for _, force := range []string{"hash", "nl", "index"} {
		opts := *opts
		opts.ForceJoin = force
		joined, err := db.Query(`SELECT r.id FROM Birds r, Synonyms s
		      WHERE r.id = s.bird_id
		        AND r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 4`, &opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(joined.Rows) != len(want) {
			t.Fatalf("%s join: %d rows, want %d", force, len(joined.Rows), len(want))
		}
		for _, r := range joined.Rows {
			id := r.Tuple.Values[0].Int
			if got := r.Tuple.Summaries.Get("ClassBird1"); got == nil || got.String() != want[id] {
				t.Errorf("%s join, bird %d: ClassBird1 = %v, want %s", force, id, got, want[id])
			}
		}
	}
}
