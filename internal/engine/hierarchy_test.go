package engine

import (
	"strings"
	"testing"

	"repro/internal/model"
)

// hierDB builds a table with a hierarchical classifier:
//
//	Health
//	├── Infection
//	└── Parasite
//	Other
func hierDB(t *testing.T) (*DB, int64) {
	t.Helper()
	return hierDBWithConfig(t, Config{PageCap: 16})
}

func hierDBWithConfig(t *testing.T, cfg Config) (*DB, int64) {
	t.Helper()
	db := New(cfg)
	if _, err := db.CreateTable("T", model.NewSchema("",
		model.Column{Name: "id", Kind: model.KindInt})); err != nil {
		t.Fatal(err)
	}
	training := map[string][]string{
		"Infection": {
			"bacterial infection with fever and inflammation",
			"viral infection spreading through the flock",
		},
		"Parasite": {
			"parasites and ticks found under the feathers",
			"worm parasite burden in sampled individuals",
		},
		"Other": {
			"photo uploaded general comment",
			"duplicate record see reference",
		},
	}
	err := db.DefineHierarchicalClassifier("HealthTree",
		[]string{"Health", "Infection", "Parasite", "Other"},
		map[string]string{"Infection": "Health", "Parasite": "Health"},
		training)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("ALTER TABLE T ADD INDEXABLE HealthTree"); err != nil {
		t.Fatal(err)
	}
	oid, err := db.Insert("T", model.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	return db, oid
}

func TestHierarchicalClassifierCounts(t *testing.T) {
	db, oid := hierDB(t)
	for _, text := range []string{
		"a bacterial infection with fever was confirmed",
		"another viral infection case in the flock",
		"ticks and a worm parasite were found",
		"photo uploaded of the bird",
	} {
		if _, err := db.AddAnnotation("T", oid, text, nil, "u"); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := db.Table("T")
	obj := tbl.GetSummaries(oid).Get("HealthTree")
	get := func(l string) int {
		t.Helper()
		n, err := obj.GetLabelValue(l)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if get("Infection") != 2 || get("Parasite") != 1 || get("Other") != 1 {
		t.Fatalf("leaf counts: Infection=%d Parasite=%d Other=%d",
			get("Infection"), get("Parasite"), get("Other"))
	}
	// The parent label is the exact subtree union.
	if get("Health") != 3 {
		t.Errorf("Health = %d, want 3", get("Health"))
	}
}

func TestHierarchicalParentIsQueryableAndIndexed(t *testing.T) {
	db, oid := hierDB(t)
	oid2, _ := db.Insert("T", model.NewInt(2))
	db.AddAnnotation("T", oid, "bacterial infection with fever", nil, "u")
	db.AddAnnotation("T", oid, "a worm parasite was found", nil, "u")
	db.AddAnnotation("T", oid2, "photo uploaded general comment", nil, "u")

	q := `SELECT id FROM T r WHERE r.$.getSummaryObject('HealthTree').getLabelValue('Health') >= 2`
	res, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Tuple.Values[0].Int != 1 {
		t.Fatalf("parent-level query: %s", res)
	}
	// The Summary-BTree answers the parent-level predicate too.
	expl, _ := db.Explain(q, nil)
	if !strings.Contains(expl, "SummaryBTreeScan T AS r ON HealthTree.Health >= 2") {
		t.Errorf("parent label not index-answered:\n%s", expl)
	}
	// Zoom on the parent drills into the combined subtree.
	zooms, err := db.ZoomIn("T", "HealthTree", "Health", "id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(zooms) != 1 || len(zooms[0].Annotations) != 2 {
		t.Fatalf("parent zoom: %+v", zooms)
	}
}

func TestHierarchicalDeleteMaintainsAncestors(t *testing.T) {
	db, oid := hierDB(t)
	ann, _ := db.AddAnnotation("T", oid, "bacterial infection with fever", nil, "u")
	db.AddAnnotation("T", oid, "worm parasite found", nil, "u")
	if err := db.DeleteAnnotation("T", ann.ID); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("T")
	obj := tbl.GetSummaries(oid).Get("HealthTree")
	inf, _ := obj.GetLabelValue("Infection")
	health, _ := obj.GetLabelValue("Health")
	if inf != 0 || health != 1 {
		t.Errorf("after delete: Infection=%d Health=%d", inf, health)
	}
	// Index reflects the ancestor decrement.
	res, err := db.Query(`SELECT id FROM T r
		WHERE r.$.getSummaryObject('HealthTree').getLabelValue('Health') = 1`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("index stale after hierarchical delete: %d rows", len(res.Rows))
	}
}

func TestHierarchyValidation(t *testing.T) {
	db := New(Config{})
	// Unknown parent.
	if err := db.DefineHierarchicalClassifier("H1", []string{"A"},
		map[string]string{"A": "Missing"}, nil); err == nil {
		t.Error("unknown parent should fail")
	}
	// Cycle.
	if err := db.DefineHierarchicalClassifier("H2", []string{"A", "B"},
		map[string]string{"A": "B", "B": "A"}, nil); err == nil {
		t.Error("cycle should fail")
	}
}
