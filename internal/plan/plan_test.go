package plan

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/sql"
)

func planFixture(t *testing.T) (*catalog.Catalog, *Builder) {
	t.Helper()
	cat := catalog.New(nil, 8)
	if _, err := cat.CreateTable("Birds", model.NewSchema("",
		model.Column{Name: "id", Kind: model.KindInt},
		model.Column{Name: "name", Kind: model.KindText},
		model.Column{Name: "family", Kind: model.KindText},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("Synonyms", model.NewSchema("",
		model.Column{Name: "syn_id", Kind: model.KindInt},
		model.Column{Name: "bird_id", Kind: model.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	cat.DefineInstance(&catalog.SummaryInstance{
		Name: "ClassBird1", Type: model.SummaryClassifier,
		Labels: []string{"Disease", "Other"}}, nil)
	cat.LinkInstance("Birds", "ClassBird1")
	return cat, &Builder{Cat: cat}
}

func buildPlan(t *testing.T, b *Builder, q string) Node {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := b.Build(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestConjunctsAndAndAll(t *testing.T) {
	e, _ := sql.ParseExpr("a = 1 AND b = 2 AND (c = 3 OR d = 4)")
	cs := Conjuncts(e)
	if len(cs) != 3 {
		t.Fatalf("conjuncts = %d", len(cs))
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) must be nil")
	}
	re := AndAll(cs)
	if len(Conjuncts(re)) != 3 {
		t.Error("AndAll round trip")
	}
	if Conjuncts(nil) != nil {
		t.Error("Conjuncts(nil)")
	}
}

func TestAnalyzeExpr(t *testing.T) {
	resolver := &AliasResolver{Schemas: map[string]*model.Schema{
		"r": model.NewSchema("r", model.Column{Name: "a", Kind: model.KindInt}),
		"s": model.NewSchema("s", model.Column{Name: "x", Kind: model.KindInt}),
	}}
	e, _ := sql.ParseExpr("r.$.getSummaryObject('C1').getLabelValue('D') > 5 AND s.x = 1")
	info := Analyze(e, resolver)
	if !ReadsSummaries(e) || !info.UsesData {
		t.Error("uses flags")
	}
	if !info.Aliases["r"] || !info.Aliases["s"] {
		t.Errorf("aliases: %v", info.Aliases)
	}
	if len(info.Instances) != 1 || info.Instances[0] != "C1" {
		t.Errorf("instances: %v", info.Instances)
	}
	// Unqualified column resolves to its owner.
	e2, _ := sql.ParseExpr("a = 1")
	if got := Analyze(e2, resolver).Aliases; len(got) != 1 || !got["r"] {
		t.Errorf("owner of a: %v", got)
	}
	// Aggregate detection.
	e3, _ := sql.ParseExpr("count(*)")
	if !Analyze(e3, nil).HasAggregate {
		t.Error("aggregate missed")
	}
}

func TestMatchClassifierPredicate(t *testing.T) {
	cases := []struct {
		src string
		op  index.CmpOp
		c   int
		ok  bool
	}{
		{"r.$.getSummaryObject('C1').getLabelValue('D') = 5", index.OpEq, 5, true},
		{"r.$.getSummaryObject('C1').getLabelValue('D') > 3", index.OpGt, 3, true},
		{"r.$.getSummaryObject('C1').getLabelValue('D') <= 9", index.OpLe, 9, true},
		{"7 < r.$.getSummaryObject('C1').getLabelValue('D')", index.OpGt, 7, true}, // flipped
		{"r.$.getSummaryObject('C1').getLabelValue('D') <> 5", 0, 0, false},        // no NE
		{"r.$.getSummaryObject('C1').getLabelValue(0) = 5", 0, 0, false},           // positional
		{"r.$.getSize() = 2", 0, 0, false},
		{"r.a = 5", 0, 0, false},
	}
	for _, c := range cases {
		e, err := sql.ParseExpr(c.src)
		if err != nil {
			t.Fatal(err)
		}
		cp, ok := MatchClassifierPredicate(e)
		if ok != c.ok {
			t.Errorf("%q: ok=%v, want %v", c.src, ok, c.ok)
			continue
		}
		if ok && (cp.Op != c.op || cp.Constant != c.c || cp.Instance != "C1" || cp.Label != "D" || cp.Alias != "r") {
			t.Errorf("%q: %+v", c.src, cp)
		}
	}
}

func TestMatchLabelValueExprAndEquiJoin(t *testing.T) {
	e, _ := sql.ParseExpr("r.$.getSummaryObject('C1').getLabelValue('D')")
	alias, inst, label, ok := MatchLabelValueExpr(e)
	if !ok || alias != "r" || inst != "C1" || label != "D" {
		t.Errorf("MatchLabelValueExpr: %q %q %q %v", alias, inst, label, ok)
	}
	resolver := &AliasResolver{Schemas: map[string]*model.Schema{
		"r": model.NewSchema("r", model.Column{Name: "id", Kind: model.KindInt}),
		"s": model.NewSchema("s", model.Column{Name: "bird_id", Kind: model.KindInt}),
	}}
	ej, _ := sql.ParseExpr("r.id = s.bird_id")
	if _, _, ok := MatchEquiJoin(ej, resolver); !ok {
		t.Error("equi join not matched")
	}
	same, _ := sql.ParseExpr("r.id = r.id")
	if _, _, ok := MatchEquiJoin(same, resolver); ok {
		t.Error("same-alias pred must not match")
	}
	lit, _ := sql.ParseExpr("r.id = 5")
	if _, _, ok := MatchEquiJoin(lit, resolver); ok {
		t.Error("literal pred must not match")
	}
	unq, _ := sql.ParseExpr("id = bird_id")
	if _, _, ok := MatchEquiJoin(unq, resolver); !ok {
		t.Error("unqualified equi join should resolve through owners")
	}
}

func TestBuildCanonicalSingleTable(t *testing.T) {
	_, b := planFixture(t)
	root := buildPlan(t, b, `SELECT name FROM Birds r
		WHERE family = 'X' AND r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 1
		ORDER BY name LIMIT 5`)
	expl := Explain(root)
	for _, want := range []string{"Limit 5", "Project", "Sort[", "SummarySelect", "Select σ", "SeqScan Birds AS r"} {
		if !strings.Contains(expl, want) {
			t.Errorf("canonical plan missing %q:\n%s", want, expl)
		}
	}
	// Canonical order: selections above scan, sort above selections.
	if strings.Index(expl, "Sort") > strings.Index(expl, "SummarySelect") {
		t.Errorf("sort below selection:\n%s", expl)
	}
}

func TestBuildJoinPlacesEquiPredInJoin(t *testing.T) {
	_, b := planFixture(t)
	root := buildPlan(t, b, `SELECT r.id FROM Birds r, Synonyms s WHERE r.id = s.bird_id AND r.family = 'F'`)
	expl := Explain(root)
	if !strings.Contains(expl, "NLJoin ⋈[(r.id = s.bird_id)]") {
		t.Errorf("join pred not in join node:\n%s", expl)
	}
	if !strings.Contains(expl, "Select σ[(r.family = 'F')]") {
		t.Errorf("data selection missing:\n%s", expl)
	}
}

func TestBuildSummaryJoinForMixedPredicates(t *testing.T) {
	cat, b := planFixture(t)
	cat.CreateTable("BirdsV2", model.NewSchema("",
		model.Column{Name: "id", Kind: model.KindInt}))
	cat.DefineInstance(&catalog.SummaryInstance{
		Name: "ClassBird1x", Type: model.SummaryClassifier, Labels: []string{"D"}}, nil)
	cat.LinkInstance("BirdsV2", "ClassBird1x")
	root := buildPlan(t, b, `SELECT v1.id FROM Birds v1, BirdsV2 v2
		WHERE v1.id = v2.id
		AND v1.$.getSummaryObject('ClassBird1').getLabelValue('Disease')
		 <> v2.$.getSummaryObject('ClassBird1').getLabelValue('Disease')`)
	expl := Explain(root)
	if !strings.Contains(expl, "SummaryJoin J[") {
		t.Errorf("mixed join not a SummaryJoin:\n%s", expl)
	}
	// Both the data and summary conjuncts live in the J predicate.
	if !strings.Contains(expl, "v1.id = v2.id") {
		t.Errorf("data conjunct missing from J:\n%s", expl)
	}
}

func TestBuildGroupByRewritesAggregates(t *testing.T) {
	_, b := planFixture(t)
	root := buildPlan(t, b, `SELECT family, count(*), sum(id) FROM Birds GROUP BY family ORDER BY count(*) DESC`)
	expl := Explain(root)
	if !strings.Contains(expl, "GroupBy[family] aggs=2") {
		t.Errorf("groupby:\n%s", expl)
	}
	// ORDER BY count(*) rewritten to the aggregate output column.
	if !strings.Contains(expl, "Sort[agg0 DESC]") {
		t.Errorf("order key not rewritten:\n%s", expl)
	}
	// SELECT items match the group-by output exactly: the identity
	// projection is elided and the schema is (family, agg0, agg1).
	s := root.Schema()
	if s.Len() != 3 || s.Col(0).Name != "family" || s.Col(1).Name != "agg0" || s.Col(2).Name != "agg1" {
		t.Errorf("output schema: %s", s)
	}
}

func TestBuildStarExpansion(t *testing.T) {
	_, b := planFixture(t)
	root := buildPlan(t, b, "SELECT * FROM Birds")
	// Identity projection is skipped: root is the scan itself.
	if _, ok := root.(*Scan); !ok {
		t.Errorf("SELECT * should compile to a bare scan, got:\n%s", Explain(root))
	}
	root2 := buildPlan(t, b, "SELECT s.*, r.id FROM Birds r, Synonyms s")
	if root2.Schema().Len() != 3 {
		t.Errorf("qualified star schema: %s", root2.Schema())
	}
}

func TestBuildErrors(t *testing.T) {
	_, b := planFixture(t)
	bad := []string{
		"SELECT * FROM Missing",
		"SELECT * FROM Birds r, Birds r", // duplicate alias
	}
	for _, q := range bad {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.Build(stmt.(*sql.SelectStmt)); err == nil {
			t.Errorf("Build(%q) should fail", q)
		}
	}
}

func TestKeptColumnsDriveSummaryProject(t *testing.T) {
	cat, b := planFixture(t)
	birds, _ := cat.Table("Birds")
	// No column-attached annotations: no SummaryProject even for narrow
	// projections.
	root := buildPlan(t, b, "SELECT id FROM Birds")
	if strings.Contains(Explain(root), "SummaryProject") {
		t.Errorf("needless SummaryProject:\n%s", Explain(root))
	}
	// With column-attached annotations, narrow queries get the node.
	birds.ColAttachedAnns = 1
	root2 := buildPlan(t, b, "SELECT id FROM Birds")
	if !strings.Contains(Explain(root2), "SummaryProject birds keep(id)") {
		t.Errorf("SummaryProject missing:\n%s", Explain(root2))
	}
	// SELECT * keeps everything: identity, no node.
	root3 := buildPlan(t, b, "SELECT * FROM Birds")
	if strings.Contains(Explain(root3), "SummaryProject") {
		t.Errorf("identity SummaryProject:\n%s", Explain(root3))
	}
	// WITHOUT SUMMARIES never needs it.
	root4 := buildPlan(t, b, "SELECT id FROM Birds WITHOUT SUMMARIES")
	if strings.Contains(Explain(root4), "SummaryProject") {
		t.Errorf("SummaryProject with propagation off:\n%s", Explain(root4))
	}
	birds.ColAttachedAnns = 0
}

// nodeTable holds at least one instance of every node kind (and of
// every Describe variant of the kinds that have several), over the
// fixture's Birds table and the given indexes.
func nodeTable(t *testing.T, cat *catalog.Catalog, sidx *index.SummaryBTree, bidx *index.Baseline) []Node {
	t.Helper()
	birds, err := cat.Table("Birds")
	if err != nil {
		t.Fatal(err)
	}
	scan := NewScan(birds, "r")
	ordered := NewSummaryIndexScanNode(birds, "", sidx, "C1", "D", index.OpGe, 0)
	ordered.Ordered, ordered.FetchSorted = true, false
	e, _ := sql.ParseExpr("r.id = 1")
	key := []exec.SortKey{{Expr: e}}
	indexJoin := NewJoin(scan, NewScan(birds, "r4"), e)
	indexJoin.UseIndex, indexJoin.IndexColumn = true, "id"
	hashJoin := NewJoin(scan, &GatherNode{Child: NewScan(birds, "r5"), DOP: 2}, e)
	hashJoin.UseHash, hashJoin.HashLeft, hashJoin.HashRight = true, e, e
	sum, _ := sql.ParseExpr("r.$.getSummaryObject('C1').getLabelValue('D') > 1")
	summaryIndexJoin := NewJoin(scan, NewScan(birds, "r6"), sum)
	summaryIndexJoin.UseIndex, summaryIndexJoin.IndexColumn = true, "id"
	return []Node{
		scan, ordered,
		NewSummaryIndexScanNode(birds, "", sidx, "C1", "D", index.OpGe, 0),
		NewBaselineIndexScanNode(birds, "", bidx, "C1", "D", index.OpEq, 3),
		&SummaryProject{Child: scan, Alias: "r", Kept: []string{"id"}},
		&Select{Child: scan, Pred: e},
		&Select{Child: scan, Pred: sum},
		&SummaryFilterNode{Child: scan, Instances: []string{"C1"}, Types: []model.SummaryType{model.SummaryClassifier}},
		NewJoin(scan, NewScan(birds, "r2"), nil), indexJoin, hashJoin,
		NewJoin(scan, NewScan(birds, "r3"), sum), summaryIndexJoin,
		&SortNode{Child: scan, Keys: key},
		&SortNode{Child: ordered, Keys: key, SummaryBased: true, Eliminated: true},
		&GroupByNode{Child: &GatherNode{Child: scan, DOP: 2}, Keys: []sql.Expr{e}},
		&ProjectNode{Child: scan, Exprs: []sql.Expr{e}, Out: scan.Schema()},
		&DistinctNode{Child: scan},
		&LimitNode{Child: scan, N: 1},
		&GatherNode{Child: scan, DOP: 2},
	}
}

// describeWord is the operator name a Describe line (or an EXPLAIN
// golden line) starts with.
func describeWord(line string) string {
	line = strings.TrimLeft(line, " ")
	end := strings.IndexFunc(line, func(r rune) bool { return !unicode.IsLetter(r) })
	if end < 0 {
		return line
	}
	return line[:end]
}

// TestNodeTableCoversGoldenPlans: every operator that appears in an
// optimized plan of the engine's golden corpus is in nodeTable, so a new
// node kind cannot reach a plan without joining the table the
// WithChildren and Rebind tests run over.
func TestNodeTableCoversGoldenPlans(t *testing.T) {
	cat, _ := planFixture(t)
	known := map[string]bool{"Execution": true} // EXPLAIN ANALYZE footer
	for _, n := range nodeTable(t, cat, nil, nil) {
		if n.Describe() == "" {
			t.Errorf("%T: empty Describe", n)
		}
		known[describeWord(n.Describe())] = true
	}
	files, err := filepath.Glob("../engine/testdata/*.golden")
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden plans found: %v", err)
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
			if w := describeWord(line); !known[w] {
				t.Errorf("%s: operator %q is not in nodeTable", f, w)
			}
		}
	}
}

// TestWithChildrenAgreesWithChildren: for every node kind, WithChildren
// returns a new node of the same kind whose Children are the ones
// given, in order, that renders the same, and leaves the receiver as it
// was. A Gather child is replaced by a Gather, because a breaker over
// one renders its parallelism.
func TestWithChildrenAgreesWithChildren(t *testing.T) {
	cat, _ := planFixture(t)
	birds, _ := cat.Table("Birds")
	for _, n := range nodeTable(t, cat, nil, nil) {
		before := n.Children()
		repl := make([]Node, len(before))
		for i := range repl {
			repl[i] = NewScan(birds, "x")
			if g, ok := before[i].(*GatherNode); ok {
				repl[i] = &GatherNode{Child: repl[i], DOP: g.DOP}
			}
		}
		m := n.WithChildren(repl)
		if m == n || reflect.TypeOf(m) != reflect.TypeOf(n) {
			t.Errorf("%T: WithChildren returned %T (same node: %v)", n, m, m == n)
			continue
		}
		if got := m.Children(); !slices.Equal(got, repl) {
			t.Errorf("%T: copy has children %v, want %v", n, got, repl)
		}
		if got := n.Children(); !slices.Equal(got, before) {
			t.Errorf("%T: WithChildren changed the receiver's children", n)
		}
		if m.Describe() != n.Describe() {
			t.Errorf("%T: copy renders %q, want %q", n, m.Describe(), n.Describe())
		}
		got := MapChildren(n, func(c Node) Node { return c })
		if len(before) == 0 && got != n {
			t.Errorf("%T: MapChildren must return a leaf as it is", n)
		}
		if len(before) > 0 && (got == n || !slices.Equal(got.Children(), before)) {
			t.Errorf("%T: MapChildren(identity) = %v", n, Explain(got))
		}
	}
}

// TestRebindEveryNodeKind rebinds every node kind into a second catalog
// epoch: the output renders identically, shares no node with the input,
// and its leaves point at the new epoch's table and indexes.
func TestRebindEveryNodeKind(t *testing.T) {
	oldCat, _ := planFixture(t)
	newCat, _ := planFixture(t)
	oldS, oldB := index.NewSummaryBTree(nil, "C1"), index.NewBaseline(nil, 8, "C1")
	newS, newB := index.NewSummaryBTree(nil, "C1"), index.NewBaseline(nil, 8, "C1")
	env := RebindEnv{
		Table:         newCat.Table,
		SummaryIndex:  func(table, instance string) *index.SummaryBTree { return newS },
		BaselineIndex: func(table, instance string) *index.Baseline { return newB },
	}
	newBirds, _ := newCat.Table("Birds")
	nodesOf := func(root Node) map[Node]bool {
		seen := map[Node]bool{}
		var walk func(Node)
		walk = func(n Node) {
			seen[n] = true
			for _, c := range n.Children() {
				walk(c)
			}
		}
		walk(root)
		return seen
	}
	for _, n := range nodeTable(t, oldCat, oldS, oldB) {
		re, err := Rebind(n, env)
		if err != nil {
			t.Errorf("%T: %v", n, err)
			continue
		}
		if Explain(re) != Explain(n) {
			t.Errorf("%T: rebound plan renders\n%s\nwant\n%s", n, Explain(re), Explain(n))
		}
		old := nodesOf(n)
		for m := range nodesOf(re) {
			if old[m] {
				t.Errorf("%T: rebound tree shares %T with its input", n, m)
			}
			switch leaf := m.(type) {
			case *Scan:
				if leaf.Table != newBirds {
					t.Errorf("%T: scan still points at the old epoch's table", n)
				}
			case *SummaryIndexScanNode:
				if leaf.Table != newBirds || leaf.Index != newS {
					t.Errorf("%T: summary-index scan still points at the old epoch", n)
				}
			case *BaselineIndexScanNode:
				if leaf.Table != newBirds || leaf.Index != newB {
					t.Errorf("%T: baseline scan still points at the old epoch", n)
				}
			default:
				if len(m.Children()) == 0 {
					t.Errorf("%T: leaf kind %T is not checked here", n, m)
				}
			}
		}
	}
	env.SummaryIndex = func(table, instance string) *index.SummaryBTree { return nil }
	if _, err := Rebind(NewSummaryIndexScanNode(newBirds, "", oldS, "C1", "D", index.OpGe, 0), env); err == nil {
		t.Error("a dropped index must fail the rebind")
	}
}

func TestJoinDescribeVariants(t *testing.T) {
	cat, _ := planFixture(t)
	birds, _ := cat.Table("Birds")
	scan := NewScan(birds, "r")
	j := NewJoin(scan, NewScan(birds, "r4"), nil)
	if !strings.Contains(j.Describe(), "true") {
		t.Errorf("nil-pred join describe: %s", j.Describe())
	}
	j.UseIndex = true
	j.IndexColumn = "id"
	if !strings.Contains(j.Describe(), "IndexJoin(id)") {
		t.Errorf("index join describe: %s", j.Describe())
	}
}

// TestReadsSummaries: a predicate reads summaries when a $ appears
// anywhere in it — the test that makes a Select S and a Join J — and
// answering it allocates nothing.
func TestReadsSummaries(t *testing.T) {
	for src, want := range map[string]bool{
		"r.id = 1": false,
		"r.id = s.id AND NOT (r.family LIKE 'A%')":                                                       false,
		"r.id = s.id AND r.$.getSummaryObject('C1').getLabelValue('D') > 1":                              true,
		"-r.$.getSummaryObject('C1').getLabelValue('D') < 0":                                             true,
		"upper(r.name) = 'X' OR NOT s.$.getSummaryObject('T').containsUnion('ringed')":                   true,
		"r.$.getSummaryObject('C1').getLabelValue('D') <> s.$.getSummaryObject('C1').getLabelValue('D')": true,
	} {
		e, err := sql.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := ReadsSummaries(e); got != want {
			t.Errorf("ReadsSummaries(%s) = %v, want %v", src, got, want)
		}
		if got := ReadsSummaries(nil, e); got != want {
			t.Errorf("ReadsSummaries(nil, %s) = %v, want %v", src, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { ReadsSummaries(e) }); allocs != 0 {
			t.Errorf("ReadsSummaries(%s) allocates %.0f times", src, allocs)
		}
	}
	if ReadsSummaries() || ReadsSummaries(nil) {
		t.Error("no expression reads summaries")
	}
}
