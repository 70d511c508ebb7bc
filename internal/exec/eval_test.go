package exec

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sql"
)

// evalRow builds a one-row environment over (a INT, name TEXT) with a
// classifier and snippet summary attached.
func evalRow() (*Evaluator, *Row) {
	schema := model.NewSchema("r",
		model.Column{Name: "a", Kind: model.KindInt},
		model.Column{Name: "name", Kind: model.KindText},
	)
	set := model.SummarySet{
		{
			InstanceID: "C1", Type: model.SummaryClassifier,
			Reps: []model.Rep{
				{Label: "Disease", Count: 8, Elements: []int64{1, 2}},
				{Label: "Other", Count: 2, Elements: []int64{3}},
			},
		},
		{
			InstanceID: "T1", Type: model.SummarySnippet,
			Reps: []model.Rep{{Text: "observed hormone levels in swans", RepAnnID: 9, Elements: []int64{9}}},
		},
	}
	row := &Row{Tuple: &model.Tuple{OID: 7,
		Values:    []model.Value{model.NewInt(5), model.NewText("Swan Goose")},
		Summaries: set,
	}}
	return &Evaluator{Schema: schema}, row
}

func evalExpr(t *testing.T, ev *Evaluator, row *Row, src string) model.Value {
	t.Helper()
	e, err := sql.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := ev.BindValue(e)(row)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

// evalErr binds and evaluates src, returning the per-row error.
func evalErr(t *testing.T, ev *Evaluator, row *Row, src string) error {
	t.Helper()
	e, err := sql.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	_, err = ev.BindValue(e)(row)
	return err
}

func TestEvalColumnsAndArithmetic(t *testing.T) {
	ev, row := evalRow()
	cases := map[string]model.Value{
		"a":              model.NewInt(5),
		"r.a":            model.NewInt(5),
		"a + 2":          model.NewInt(7),
		"a - 7":          model.NewInt(-2),
		"a * 3":          model.NewInt(15),
		"a / 2":          model.NewInt(2),
		"a / 0":          model.Null(),
		"-a":             model.NewInt(-5),
		"a + 0.5":        model.NewFloat(5.5),
		"'x' + 'y'":      model.NewText("xy"),
		"LENGTH(name)":   model.NewInt(10),
		"LOWER(name)":    model.NewText("swan goose"),
		"UPPER('ab')":    model.NewText("AB"),
		"ABS(0 - 3)":     model.NewInt(3),
		"ABS(0.0 - 1.5)": model.NewFloat(1.5),
	}
	for src, want := range cases {
		if got := evalExpr(t, ev, row, src); !got.Equal(want) && !(got.IsNull() && want.IsNull()) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalComparisonsAndLogic(t *testing.T) {
	ev, row := evalRow()
	truths := map[string]bool{
		"a = 5":              true,
		"a <> 5":             false,
		"a != 4":             true,
		"a < 6 AND a > 4":    true,
		"a < 5 OR a >= 5":    true,
		"NOT a = 5":          false,
		"name LIKE 'Swan%'":  true,
		"name LIKE '%goose'": true, // case-insensitive
		"name LIKE 'S_an%'":  true,
		"name LIKE 'Crow%'":  false,
		"NULL = 5":           false, // NULL comparisons are false
		"a > NULL":           false,
		"true AND false":     false,
		"true OR false":      true,
	}
	for src, want := range truths {
		e, err := sql.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		got, err := ev.BindPred(e)(row)
		if err != nil {
			t.Fatalf("eval %q: %v", src, err)
		}
		if got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
		// The value-returning binding of the same predicate agrees.
		if v := evalExpr(t, ev, row, src); v.Truth() != want {
			t.Errorf("BindValue(%q) = %v, want %v", src, v, want)
		}
	}
}

// TestBindShortCircuitOrder: AND/OR evaluate left to right and stop at
// the deciding operand, so an error (here an unresolvable column) on
// the right is never reported once the left decides — and always is
// when the left does not.
func TestBindShortCircuitOrder(t *testing.T) {
	ev, row := evalRow()
	decided := map[string]bool{
		"a = 4 AND nosuchcol = 1":                false,
		"a = 5 OR nosuchcol = 1":                 true,
		"NOT (a = 5 OR nosuchcol = 1)":           false,
		"(a = 4 AND nosuchcol = 1) OR name = ''": false,
	}
	for src, want := range decided {
		e, err := sql.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		got, err := ev.BindPred(e)(row)
		if err != nil || got != want {
			t.Errorf("%q = %v, %v; want %v without error", src, got, err, want)
		}
	}
	for _, src := range []string{"nosuchcol = 1 AND a = 4", "nosuchcol = 1 OR a = 5", "a = 5 AND nosuchcol = 1"} {
		if err := evalErr(t, ev, row, src); err == nil || !strings.Contains(err.Error(), "nosuchcol") {
			t.Errorf("%q: want the unresolved-column error, got %v", src, err)
		}
	}
}

// TestBindAliasRefsResolvePerSide: inside a join's pre-merge predicate
// r.$ and s.$ resolve through Row.SetFor to their own side's summary
// set, whatever the qualifier's case.
func TestBindAliasRefsResolvePerSide(t *testing.T) {
	ev, row := evalRow()
	rSet := row.Tuple.Summaries
	sSet := model.SummarySet{{InstanceID: "C1", Type: model.SummaryClassifier,
		Reps: []model.Rep{{Label: "Disease", Count: 3}}}}
	row.AliasSets = map[string]model.SummarySet{"r": rSet, "s": sSet}
	cases := map[string]model.Value{
		"r.$.getSize()": model.NewInt(2),
		"S.$.getSize()": model.NewInt(1),
		"r.$.getSummaryObject('C1').getLabelValue('Disease') - s.$.getSummaryObject('C1').getLabelValue('Disease')": model.NewInt(5),
		"s.$.getSummaryObject('T1').getSnippet(0)": model.Null(), // only r carries T1
	}
	for src, want := range cases {
		got := evalExpr(t, ev, row, src)
		if !got.Equal(want) && !(got.IsNull() && want.IsNull()) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
	// The same resolution inside an operator: a join residual over the
	// combined row keeps only the pairs whose sides differ.
	schema := model.NewSchema("r", model.Column{Name: "a", Kind: model.KindInt})
	left := []*Row{{Tuple: &model.Tuple{OID: 1, Values: []model.Value{model.NewInt(1)}, Summaries: rSet}}}
	right := []*Row{
		{Tuple: &model.Tuple{OID: 2, Values: []model.Value{model.NewInt(1)}, Summaries: sSet}},
		{Tuple: &model.Tuple{OID: 3, Values: []model.Value{model.NewInt(1)}, Summaries: rSet}},
	}
	j := NewNLJoin(NewSliceIter(schema, left), NewSliceIter(schema.Rename("s"), right),
		mustExpr(t, "r.$.getSize() > s.$.getSize()"), false, nil)
	out, err := Collect(nil, j)
	if err != nil || len(out) != 1 {
		t.Fatalf("join residual over r.$/s.$: %d rows, %v; want 1", len(out), err)
	}
}

func TestEvalSummaryFunctions(t *testing.T) {
	ev, row := evalRow()
	cases := map[string]model.Value{
		"$.getSize()":   model.NewInt(2),
		"r.$.getSize()": model.NewInt(2),
		"$.getSummaryObject('C1').getLabelValue('Disease')":          model.NewInt(8),
		"$.getSummaryObject('C1').getLabelValue(0)":                  model.NewInt(8),
		"$.getSummaryObject('C1').getLabelName(1)":                   model.NewText("Other"),
		"$.getSummaryObject('C1').getSummaryType()":                  model.NewText("Classifier"),
		"$.getSummaryObject('C1').getSummaryName()":                  model.NewText("C1"),
		"$.getSummaryObject('C1').getSize()":                         model.NewInt(2),
		"$.getSummaryObject('C1').getTotalCount()":                   model.NewInt(10),
		"$.getSummaryObject(1).getSummaryType()":                     model.NewText("Snippet"),
		"$.getSummaryObject('T1').getSnippet(0)":                     model.NewText("observed hormone levels in swans"),
		"$.getSummaryObject('T1').containsSingle('hormone')":         model.NewBool(true),
		"$.getSummaryObject('T1').containsUnion('hormone', 'swans')": model.NewBool(true),
		"$.getSummaryObject('T1').containsSingle('penguin')":         model.NewBool(false),
		// Missing object: NULL propagates through the chain.
		"$.getSummaryObject('Nope').getLabelValue('Disease')": model.Null(),
		// Unknown label yields NULL (predicates collapse to false).
		"$.getSummaryObject('C1').getLabelValue('Zzz')": model.Null(),
	}
	for src, want := range cases {
		got := evalExpr(t, ev, row, src)
		if want.IsNull() {
			if !got.IsNull() {
				t.Errorf("%q = %v, want NULL", src, got)
			}
			continue
		}
		if !got.Equal(want) {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	ev, row := evalRow()
	// Every failure keeps its exact text; binding itself never fails.
	bad := map[string]string{
		"nosuchcol":                            "nosuchcol",
		"$.getNoSuchFunc()":                    `exec: unknown summary-set function "getNoSuchFunc"`,
		"$.getSummaryObject('C1').getNoSuch()": `exec: unknown summary-object function "getNoSuch"`,
		"a.getSize()":                          "exec: getSize is not callable on a plain value",
		"name * 2":                             "exec: * requires numeric operands, got TEXT and INT",
		"name LIKE 5":                          "exec: LIKE requires text operands",
		"$.getSummaryObject()":                 "exec: getSummaryObject expects 1 arguments, got 0",
		"$.getSummaryObject('C1').getLabelValue('Disease', 1)": "exec: getLabelValue expects 1 arguments, got 2",
		"LOWER(a, a)":   "exec: LOWER expects 1 argument",
		"NOSUCHFUNC(a)": `exec: unknown function "NOSUCHFUNC"`,
		"$.getSummaryObject('T1').containsUnion()":  "exec: containsUnion needs at least one keyword",
		"$.getSummaryObject('T1').containsUnion(5)": "exec: containsUnion keywords must be text",
		"COUNT(*)": "exec: aggregate COUNT outside GROUP BY context",
		// Summary sets/objects are not values.
		"$":                        "exec: expression $ yields a summary set, not a value",
		"$.getSummaryObject('C1')": "exec: expression $.getSummaryObject('C1') yields a summary object, not a value",
	}
	for src, want := range bad {
		e, err := sql.ParseExpr(src)
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		if _, err := ev.BindValue(e)(row); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want %q", src, err, want)
		}
		if _, err := ev.BindPred(e)(row); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("BindPred(%q): error %v, want %q", src, err, want)
		}
	}
	// A method chain over a missing summary object is NULL before any
	// other check: not an unknown function, not an arity error.
	for _, src := range []string{
		"$.getSummaryObject('Nope').getNoSuch()",
		"$.getSummaryObject('Nope').getLabelValue()",
		"$.getSummaryObject('Nope').getLabelValue('Disease').getSize()",
	} {
		if got := evalExpr(t, ev, row, src); !got.IsNull() {
			t.Errorf("%q = %v, want NULL", src, got)
		}
	}
}

// TestUnresolvableColumnFailsPerRow: an unknown column is an error of
// the row that evaluates it, not of Open — an operator over an empty
// input, or behind a predicate that short-circuits, never reports it.
func TestUnresolvableColumnFailsPerRow(t *testing.T) {
	schema, rows := intRows(3)
	f := NewFilter(NewSliceIter(schema, nil), mustExpr(t, "nosuchcol > 0"), nil)
	if err := f.Open(nil); err != nil {
		t.Fatalf("Open must not resolve eagerly: %v", err)
	}
	f.Close()
	if out, err := Collect(nil, f); err != nil || len(out) != 0 {
		t.Fatalf("empty input: %d rows, %v", len(out), err)
	}
	f = NewFilter(NewSliceIter(schema, rows), mustExpr(t, "nosuchcol > 0"), nil)
	if _, err := Collect(nil, f); err == nil || !strings.Contains(err.Error(), "nosuchcol") {
		t.Fatalf("first row must report the column: %v", err)
	}
}

func TestEvalRawAnnotationFallback(t *testing.T) {
	ev, row := evalRow()
	ev.Lookup = func(id int64) (*model.Annotation, bool) {
		if id == 9 {
			return &model.Annotation{ID: 9, Text: "full raw article mentioning migration"}, true
		}
		return nil, false
	}
	got := evalExpr(t, ev, row, "$.getSummaryObject('T1').containsUnion('migration')")
	if !got.Bool {
		t.Error("raw-annotation fallback failed")
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false}, // too short without %
		{"hello", "", false},
		{"", "%", true},
		{"abc", "%%%", true},
		{"abc", "a%c", true},
		{"abc", "a%d", false},
		{"aXbXc", "a%b%c", true},
		{"swan goose", "SWAN%", true}, // case-insensitive
	}
	for _, c := range cases {
		if got := matchLike(c.s, c.p); got != c.want {
			t.Errorf("matchLike(%q,%q) = %v", c.s, c.p, got)
		}
	}
}

func TestRowSetForAndClone(t *testing.T) {
	_, row := evalRow()
	// Without alias sets, any qualifier resolves to the tuple's set.
	if row.SetFor("r") == nil || row.SetFor("") == nil {
		t.Error("SetFor fallback failed")
	}
	other := model.SummarySet{{InstanceID: "X", Type: model.SummaryCluster}}
	row.AliasSets = map[string]model.SummarySet{"s": other}
	if row.SetFor("s").Get("X") == nil {
		t.Error("alias set not used")
	}
	// Unknown alias with alias sets present falls back to the tuple set.
	if row.SetFor("zzz").Get("C1") == nil {
		t.Error("unknown-alias fallback failed")
	}
	// Single-entry alias map serves the empty qualifier.
	if row.SetFor("").Get("X") == nil {
		t.Error("single-alias empty-qualifier resolution failed")
	}
	cl := row.Clone()
	cl.Tuple.Values[0] = model.NewInt(99)
	cl.AliasSets["s"][0].InstanceID = "mutated"
	if row.Tuple.Values[0].Int != 5 || other[0].InstanceID != "X" {
		t.Error("Clone not deep")
	}
}
