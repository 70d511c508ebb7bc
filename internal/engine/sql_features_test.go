package engine

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/optimizer"
)

func TestSelectDistinct(t *testing.T) {
	db, _ := testDB(t, 12)
	res, err := db.Query("SELECT DISTINCT family FROM Birds", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("distinct families = %d\n%s", len(res.Rows), res)
	}
	// Summary-aware duplicate elimination: collapsed rows merge their
	// summaries — each family row carries the union of its birds'
	// classifier elements (same totals as GROUP BY family).
	grouped, err := db.Query("SELECT family, count(*) FROM Birds GROUP BY family", nil)
	if err != nil {
		t.Fatal(err)
	}
	byFamily := map[string]int{}
	for _, row := range grouped.Rows {
		d, _ := row.Tuple.Summaries.Get("ClassBird1").GetLabelValue("Disease")
		byFamily[row.Tuple.Values[0].Text] = d
	}
	for _, row := range res.Rows {
		obj := row.Tuple.Summaries.Get("ClassBird1")
		if obj == nil {
			t.Fatal("distinct row lost merged summaries")
		}
		d, _ := obj.GetLabelValue("Disease")
		if d != byFamily[row.Tuple.Values[0].Text] {
			t.Errorf("family %s: distinct merge %d != groupby merge %d",
				row.Tuple.Values[0].Text, d, byFamily[row.Tuple.Values[0].Text])
		}
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	db, _ := testDB(t, 13) // families split 5/4/4
	res, err := db.Query(`SELECT family, count(*) FROM Birds
		GROUP BY family HAVING count(*) >= 5`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no groups passed HAVING")
	}
	for _, row := range res.Rows {
		if row.Tuple.Values[1].Int < 5 {
			t.Errorf("group %s with count %d passed HAVING >= 5",
				row.Tuple.Values[0].Text, row.Tuple.Values[1].Int)
		}
	}
	total, err := db.Query("SELECT family, count(*) FROM Birds GROUP BY family", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) >= len(total.Rows) {
		t.Error("HAVING filtered nothing")
	}
}

func TestHavingOverSummaryExpression(t *testing.T) {
	db, _ := testDB(t, 12)
	// Groups whose MERGED summaries carry more than 5 disease
	// annotations — a summary-based HAVING (an S over aggregated rows).
	res, err := db.Query(`SELECT family, count(*) FROM Birds GROUP BY family
		HAVING $.getSummaryObject('ClassBird1').getLabelValue('Disease') > 5`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		d, _ := row.Tuple.Summaries.Get("ClassBird1").GetLabelValue("Disease")
		if d <= 5 {
			t.Errorf("group %s with Disease=%d passed", row.Tuple.Values[0].Text, d)
		}
	}
}

func TestHavingWithoutGroupByFails(t *testing.T) {
	db, _ := testDB(t, 3)
	if _, err := db.Query("SELECT name FROM Birds HAVING name = 'x'", nil); err == nil {
		t.Error("HAVING without GROUP BY/aggregates should fail")
	}
}

func TestHashJoinSelectedAndCorrect(t *testing.T) {
	db, _ := testDB(t, 20)
	obsSchema := model.NewSchema("",
		model.Column{Name: "id", Kind: model.KindInt},
		model.Column{Name: "note", Kind: model.KindText})
	if _, err := db.CreateTable("Obs2", obsSchema); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 60; i++ {
		if _, err := db.Insert("Obs2",
			model.NewInt(int64(i%20+1)), model.NewText("note")); err != nil {
			t.Fatal(err)
		}
	}
	q := "SELECT r.id FROM Birds r, Obs2 o WHERE r.id = o.id"
	expl, err := db.Explain(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expl, "HashJoin") {
		t.Errorf("hash join not selected without an index:\n%s", expl)
	}
	hash, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := db.Query(q, &optimizer.Options{ForceJoin: "nl"})
	if err != nil {
		t.Fatal(err)
	}
	if len(hash.Rows) != len(nl.Rows) || len(hash.Rows) != 60 {
		t.Fatalf("hash %d vs nl %d rows", len(hash.Rows), len(nl.Rows))
	}
}

// TestFloatKeysMatchEquality: GROUP BY, DISTINCT and every join name a
// FLOAT by a key that is equal exactly when the values compare equal.
// 0.1 and 0.15 stay apart (a key rounded to 1/8 collapsed them), FLOAT
// 5.0 meets INT 5 in a data index as it does in a hash table and in the
// nested loop, and a NULL joins nothing, though the data index holds it.
func TestFloatKeysMatchEquality(t *testing.T) {
	db, err := Open(Config{PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string][]model.Column{
		"T": {{Name: "id", Kind: model.KindInt}, {Name: "x", Kind: model.KindFloat}},
		"U": {{Name: "y", Kind: model.KindFloat}, {Name: "k", Kind: model.KindInt}},
	}
	rows := map[string][][]model.Value{
		"T": {{model.NewInt(0), model.NewFloat(0.1)}, {model.NewInt(1), model.NewFloat(0.15)},
			{model.NewInt(2), model.NewFloat(0.2)}, {model.NewInt(3), model.NewFloat(5)},
			{model.NewInt(4), model.Null()}},
		"U": {{model.NewFloat(0.15), model.NewInt(5)}, {model.Null(), model.Null()}},
	}
	for _, name := range []string{"T", "U"} {
		if _, err := db.CreateTable(name, model.NewSchema("", tables[name]...)); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows[name] {
			if _, err := db.Insert(name, r...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.CreateDataIndex("T", "x"); err != nil {
		t.Fatal(err)
	}
	db.RefreshStatistics()
	cases := []struct {
		q, want string
		join    bool
	}{
		{`SELECT DISTINCT x FROM T t`, "0.1|0.15|0.2|5|NULL", false},
		{`SELECT t.x, count(*) FROM T t GROUP BY t.x`, "0.1,1|0.15,1|0.2,1|5,1|NULL,1", false},
		{`SELECT t.id FROM U u, T t WHERE u.y = t.x`, "1", true},
		{`SELECT t.id FROM U u, T t WHERE u.k = t.x`, "3", true},
	}
	joinOps := map[string]string{"nl": "NLJoin", "hash": "HashJoin", "index": "IndexJoin(x)"}
	for _, force := range []string{"", "nl", "hash", "index"} {
		opts := &optimizer.Options{ForceJoin: force}
		for _, c := range cases {
			res, err := db.Query(c.q, opts)
			if err != nil {
				t.Fatalf("ForceJoin %q, %s: %v", force, c.q, err)
			}
			var got []string
			for _, r := range res.Rows {
				var vals []string
				for _, v := range r.Tuple.Values {
					vals = append(vals, v.String())
				}
				got = append(got, strings.Join(vals, ","))
			}
			sort.Strings(got)
			if op := joinOps[force]; c.join && op != "" {
				if p, _ := db.Explain(c.q, opts); !strings.Contains(p, op) {
					t.Errorf("ForceJoin %q planned no %s:\n%s", force, op, p)
				}
			}
			if strings.Join(got, "|") != c.want {
				t.Errorf("ForceJoin %q, %s: %q, want %q", force, c.q, strings.Join(got, "|"), c.want)
			}
		}
	}
}
