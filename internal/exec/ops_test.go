package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/sql"
)

// opsFixture builds a catalog with R(a INT, b TEXT) carrying classifier
// summaries and S(x INT, z TEXT), plus raw annotations.
type opsFixture struct {
	cat  *catalog.Catalog
	r, s *catalog.Table
}

func newOpsFixture(t *testing.T, nR, nS int) *opsFixture {
	t.Helper()
	cat := catalog.New(nil, 8)
	r, err := cat.CreateTable("R", model.NewSchema("",
		model.Column{Name: "a", Kind: model.KindInt},
		model.Column{Name: "b", Kind: model.KindText}))
	if err != nil {
		t.Fatal(err)
	}
	s, err := cat.CreateTable("S", model.NewSchema("",
		model.Column{Name: "x", Kind: model.KindInt},
		model.Column{Name: "z", Kind: model.KindText}))
	if err != nil {
		t.Fatal(err)
	}
	cat.DefineInstance(&catalog.SummaryInstance{
		Name: "C1", Type: model.SummaryClassifier, Labels: []string{"Disease", "Other"}}, nil)
	cat.LinkInstance("R", "C1")
	for i := 1; i <= nR; i++ {
		oid, _ := r.Insert([]model.Value{model.NewInt(int64(i)), model.NewText(fmt.Sprintf("b%02d", i))})
		ann := cat.Anns.Add(oid, "note", nil, "u")
		set := model.SummarySet{{
			InstanceID: "C1", TupleOID: oid, Type: model.SummaryClassifier,
			Reps: []model.Rep{
				{Label: "Disease", Count: i % 4, Elements: seqIDs(ann.ID*100, i%4)},
				{Label: "Other", Count: 1, Elements: []int64{ann.ID}},
			},
		}}
		rid, _ := r.DiskTupleLoc(oid)
		r.PutSummaries(oid, rid, nil, set)
	}
	for j := 1; j <= nS; j++ {
		s.Insert([]model.Value{model.NewInt(int64(j % nR)), model.NewText(fmt.Sprintf("z%02d", j))})
	}
	return &opsFixture{cat: cat, r: r, s: s}
}

// newMergeFixture builds R(a INT, b TEXT) with n rows whose summary
// sets carry all three types, with annotation IDs shared across tuples
// so that every merge rule has work to do under grouping:
//
//   - C1 (classifier): "Disease" elements are shared by runs of three
//     consecutive rows, "Other" holds one annotation of the row's own.
//   - T1 (snippet): consecutive row pairs summarize the same annotation
//     (one of the two snippets must be dropped), plus a snippet with no
//     source annotation (never dropped).
//   - S1 (cluster): a chain group overlapping the next row's chain group
//     in exactly one annotation, with sizes cycling 3, 2, 4 — the
//     X/Y/Z shape on which pairwise re-election depends on how the rows
//     are split — and every fifth one without a representative; plus a
//     one-annotation group of the row's own that must propagate alone.
func newMergeFixture(t *testing.T, n int) *opsFixture {
	t.Helper()
	cat := catalog.New(nil, 8)
	r, err := cat.CreateTable("R", model.NewSchema("",
		model.Column{Name: "a", Kind: model.KindInt},
		model.Column{Name: "b", Kind: model.KindText}))
	if err != nil {
		t.Fatal(err)
	}
	chainFrom := int64(10000)
	for i := 1; i <= n; i++ {
		oid, _ := r.Insert([]model.Value{model.NewInt(int64(i)), model.NewText(fmt.Sprintf("b%02d", i))})
		id := int64(i)
		chain := seqIDs(chainFrom, []int{3, 2, 4}[i%3])
		chainFrom = chain[len(chain)-1]
		chainRep := model.Rep{Text: fmt.Sprintf("chain%d", i), RepAnnID: chain[0], Count: len(chain), Elements: chain}
		if i%5 == 0 {
			chainRep.RepAnnID = 0
		}
		rid, _ := r.DiskTupleLoc(oid)
		r.PutSummaries(oid, rid, nil, model.SummarySet{
			{InstanceID: "C1", TupleOID: oid, Type: model.SummaryClassifier, Reps: []model.Rep{
				{Label: "Disease", Count: 2, Elements: []int64{3000 + id/3, 3500 + id/3}},
				{Label: "Other", Count: 1, Elements: []int64{4000 + id}},
			}},
			{InstanceID: "T1", TupleOID: oid, Type: model.SummarySnippet, Reps: []model.Rep{
				{Text: fmt.Sprintf("pair%d", i), RepAnnID: 2000 + id/2, Elements: []int64{2000 + id/2}},
				{Text: fmt.Sprintf("loose%d", i)},
			}},
			{InstanceID: "S1", TupleOID: oid, Type: model.SummaryCluster, Reps: []model.Rep{
				chainRep,
				{Text: fmt.Sprintf("own%d", i), RepAnnID: 5000 + id, Count: 1, Elements: []int64{5000 + id}},
			}},
		})
	}
	return &opsFixture{cat: cat, r: r}
}

// fullKey renders a row's values and every field of its summary set —
// SummarySet.String abbreviates texts and leaves element lists out.
func fullKey(r *Row) string {
	var b strings.Builder
	b.WriteString(r.Tuple.String())
	if r.Tuple.Summaries == nil {
		b.WriteString(" <nil>")
	}
	for _, o := range r.Tuple.Summaries {
		fmt.Fprintf(&b, "\n %d %s %d %v", o.ObjID, o.InstanceID, o.TupleOID, o.Type)
		for _, rep := range o.Reps {
			fmt.Fprintf(&b, "\n  %q %d %q %d %v", rep.Label, rep.Count, rep.Text, rep.RepAnnID, rep.Elements)
		}
	}
	return b.String()
}

func fullKeys(rows []*Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = fullKey(r)
	}
	return strings.Join(keys, "\n")
}

func seqIDs(from int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = from + int64(i)
	}
	return out
}

func mustExpr(t *testing.T, src string) sql.Expr {
	t.Helper()
	e, err := sql.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// summaryScan is a SeqScan under the summary attach, as the compiler
// builds it when an operator above needs the sets.
func summaryScan(t *catalog.Table, alias string) *AttachSummaries {
	return NewAttachSummaries(NewSeqScan(t, alias), t)
}

func TestSeqScanWithAndWithoutSummaries(t *testing.T) {
	f := newOpsFixture(t, 10, 5)
	rows, err := Collect(nil, summaryScan(f.r, "r"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Tuple.Summaries.Get("C1") == nil {
		t.Error("summaries not attached")
	}
	bare, err := Collect(nil, NewSeqScan(f.r, "r"))
	if err != nil {
		t.Fatal(err)
	}
	if bare[0].Tuple.Summaries != nil {
		t.Error("a bare scan attached summaries")
	}
}

func TestPredicateFilterOverDataAndSummaries(t *testing.T) {
	f := newOpsFixture(t, 12, 0)
	scan := summaryScan(f.r, "r")
	filt := NewFilter(scan, mustExpr(t, "r.a > 8"), nil)
	rows, err := Collect(nil, filt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Errorf("data filter rows = %d", len(rows))
	}
	ssel := NewFilter(summaryScan(f.r, "r"),
		mustExpr(t, "r.$.getSummaryObject('C1').getLabelValue('Disease') = 2"), nil)
	rows, err = Collect(nil, ssel)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 1; i <= 12; i++ {
		if i%4 == 2 {
			want++
		}
	}
	if len(rows) != want {
		t.Errorf("summary select rows = %d, want %d", len(rows), want)
	}
}

func TestSummaryFilterKeepsMatchingObjects(t *testing.T) {
	f := newOpsFixture(t, 3, 0)
	sf := NewSummaryFilter(summaryScan(f.r, "r"), []string{"C1"}, nil)
	rows, err := Collect(nil, sf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatal("F must not drop tuples")
	}
	if rows[0].Tuple.Summaries.Get("C1") == nil {
		t.Error("matching object dropped")
	}
	// Filter by type that matches nothing: tuples remain, sets empty.
	sf2 := NewSummaryFilter(summaryScan(f.r, "r"), nil, []model.SummaryType{model.SummarySnippet})
	rows2, _ := Collect(nil, sf2)
	if len(rows2) != 3 || len(rows2[0].Tuple.Summaries) != 0 {
		t.Errorf("type filter: %d rows, %d objects", len(rows2), len(rows2[0].Tuple.Summaries))
	}
	// Instance+type combined.
	sf3 := NewSummaryFilter(summaryScan(f.r, "r"),
		[]string{"C1"}, []model.SummaryType{model.SummaryClassifier})
	rows3, _ := Collect(nil, sf3)
	if len(rows3[0].Tuple.Summaries) != 1 {
		t.Error("combined filter dropped matching object")
	}
}

func TestProjectComputesExpressions(t *testing.T) {
	f := newOpsFixture(t, 4, 0)
	out := model.NewSchema("",
		model.Column{Name: "doubled", Kind: model.KindInt},
		model.Column{Name: "d", Kind: model.KindInt})
	p := NewProject(summaryScan(f.r, "r"),
		[]sql.Expr{
			mustExpr(t, "r.a * 2"),
			mustExpr(t, "r.$.getSummaryObject('C1').getLabelValue('Disease')"),
		}, out, nil)
	rows, err := Collect(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Tuple.Values[0].Int != 4 || rows[1].Tuple.Values[1].Int != 2 {
		t.Errorf("projected row: %v", rows[1].Tuple.Values)
	}
	if rows[1].Tuple.Summaries == nil {
		t.Error("projection must pass summaries through")
	}
}

// TestDollarFormsResolveAlike: a row holds its summaries in one place,
// so a qualified, an unqualified and a differently-cased $ all read
// Tuple.Summaries — through a summary filter, a predicate
// filter and a projection — while the rows of all three joins resolve
// r.$ and s.$ to their own side before the merge and to the merged set
// after it.
func TestDollarFormsResolveAlike(t *testing.T) {
	const nR, nS = 6, 36
	f := newOpsFixture(t, nR, nS)
	var sOIDs []int64
	f.s.Scan(func(_ heap.RID, tu *model.Tuple) bool {
		sOIDs = append(sOIDs, tu.OID)
		return true
	})
	for k, oid := range sOIDs {
		j := int64(k + 1)
		rid, _ := f.s.DiskTupleLoc(oid)
		f.s.PutSummaries(oid, rid, nil, model.SummarySet{{InstanceID: "C1", TupleOID: oid, Type: model.SummaryClassifier,
			Reps: []model.Rep{
				{Label: "Disease", Count: int(j % 5), Elements: seqIDs(800000+10*j, int(j%5))},
				{Label: "Other", Count: 2, Elements: seqIDs(900000+2*j, 2)},
			}}})
	}
	label := func(form, l string) string {
		return form + ".getSummaryObject('C1').getLabelValue('" + l + "')"
	}
	values := func(rows []*Row) string {
		parts := make([]string, len(rows))
		for i, r := range rows {
			parts[i] = r.Tuple.String()
		}
		return strings.Join(parts, "\n")
	}

	// scan -> F -> filter -> project: r.a with Disease >= 2 is 2, 3, 6.
	out := model.NewSchema("", model.Column{Name: "a", Kind: model.KindInt}, model.Column{Name: "d", Kind: model.KindInt})
	for _, form := range []string{"r.$", "$", "R.$"} {
		pipe := NewProject(
			NewFilter(
				NewSummaryFilter(summaryScan(f.r, "r"), []string{"C1"}, nil),
				mustExpr(t, label(form, "Disease")+" >= 2"), nil),
			[]sql.Expr{mustExpr(t, "r.a"), mustExpr(t, label(form, "Disease"))}, out, nil)
		rows, err := Collect(nil, pipe)
		if err != nil {
			t.Fatalf("%s: %v", form, err)
		}
		if got, want := values(rows), "2|2\n3|3\n6|2"; got != want {
			t.Errorf("%s through scan, filters and project:\n%s\nwant\n%s", form, got, want)
		}
	}

	// Joins on r.a = s.x (x = j % nR) keeping r's Disease >= 2 and s's
	// Disease = 1, each read from its own side's set.
	var want []string
	for i := 1; i <= nR; i++ {
		for j := 1; j <= nS; j++ {
			if j%nR == i && i%4 >= 2 && j%5 == 1 {
				want = append(want, fmt.Sprintf("%d|z%02d|3|3|3", i, j))
			}
		}
	}
	residual := label("r.$", "Disease") + " >= 2 AND " + label("s.$", "Disease") + " = 1" +
		" AND " + label("r.$", "Other") + " = 1 AND " + label("S.$", "Other") + " = 2"
	if _, err := f.s.CreateDataIndex("x"); err != nil {
		t.Fatal(err)
	}
	joins := map[string]Operator{
		"nl": NewNLJoin(summaryScan(f.r, "r"), summaryScan(f.s, "s"),
			mustExpr(t, "r.a = s.x AND "+residual), true, nil),
		"hash": NewHashJoin(summaryScan(f.r, "r"), []Operator{summaryScan(f.s, "s")},
			mustExpr(t, "r.a"), mustExpr(t, "s.x"), mustExpr(t, residual), true, nil),
		"index": NewIndexJoin(summaryScan(f.r, "r"), f.s, "s", "x",
			mustExpr(t, "r.a"), mustExpr(t, residual), true, nil),
	}
	joined := model.NewSchema("",
		model.Column{Name: "a", Kind: model.KindInt}, model.Column{Name: "z", Kind: model.KindText},
		model.Column{Name: "ro", Kind: model.KindInt}, model.Column{Name: "so", Kind: model.KindInt},
		model.Column{Name: "o", Kind: model.KindInt})
	for name, j := range joins {
		// After the merge every form sees r's one and s's two Other
		// annotations together.
		rows, err := Collect(nil, NewProject(j, []sql.Expr{mustExpr(t, "r.a"), mustExpr(t, "s.z"),
			mustExpr(t, label("r.$", "Other")), mustExpr(t, label("s.$", "Other")), mustExpr(t, label("$", "Other"))}, joined, nil))
		if err != nil {
			t.Fatalf("%s join: %v", name, err)
		}
		if got := values(rows); got != strings.Join(want, "\n") || len(want) != 2 {
			t.Errorf("%s join:\n%s\nwant\n%s", name, got, strings.Join(want, "\n"))
		}
	}
}

func TestNLJoinMergesAndPreservesOuterOrder(t *testing.T) {
	f := newOpsFixture(t, 6, 12)
	j := NewNLJoin(summaryScan(f.r, "r"), summaryScan(f.s, "s"),
		mustExpr(t, "r.a = s.x"), true, nil)
	rows, err := Collect(nil, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no join output")
	}
	if j.Schema().Len() != 4 {
		t.Errorf("join schema: %s", j.Schema())
	}
	prev := int64(-1)
	for _, row := range rows {
		if row.Tuple.Values[0].Int < prev {
			t.Fatal("outer order not preserved")
		}
		prev = row.Tuple.Values[0].Int
		// The one output set is the merge of both sides' sets.
		if row.Tuple.Summaries.Get("C1") == nil || row.Inner != nil {
			t.Fatal("post-join summaries not merged into the output tuple")
		}
	}
}

// TestJoinOutputSpillsOneSummarySet: a joined row is a plain tuple, so
// an external sort spills exactly the bytes it spills for the same
// tuples read from a slice — one summary set per row.
func TestJoinOutputSpillsOneSummarySet(t *testing.T) {
	f := newOpsFixture(t, 40, 80)
	keys := []SortKey{{Expr: mustExpr(t, "r.a")}}
	spilled := func(in Operator) ([]*Row, int64) {
		t.Helper()
		budget := NewBudget(0, 0, 0)
		rows, err := Collect(NewQueryCtx(nil, budget, 1), NewExternalSort(in, keys, 7, nil))
		if err != nil {
			t.Fatal(err)
		}
		_, _, spill := budget.ChargeTotals()
		return rows, spill
	}
	join := NewNLJoin(summaryScan(f.r, "r"), summaryScan(f.s, "s"), mustExpr(t, "r.a = s.x"), true, nil)
	joined, joinSpill := spilled(join)
	plain := make([]*Row, len(joined))
	for i, row := range joined {
		plain[i] = &Row{Tuple: row.Tuple}
	}
	_, plainSpill := spilled(NewSliceIter(join.Schema(), plain))
	if len(joined) == 0 || joinSpill == 0 || joinSpill != plainSpill {
		t.Fatalf("%d joined rows spilled %d bytes; the same tuples as plain rows spill %d",
			len(joined), joinSpill, plainSpill)
	}
}

// TestJoinProbeRejectedPairsAllocateNothing: the probe evaluates its
// predicate on one reused pair row, so a join that rejects every pair
// allocates what its two inputs do and a constant for itself; and it
// carves accepted pairs' rows from a slab, so a join that accepts every
// pair adds a few allocations per 256 rows, not three per pair. The
// cross join runs at the widest capacity, so that its few batch
// containers, which sync.Pool may drop under -race, are not what is
// counted.
func TestJoinProbeRejectedPairsAllocateNothing(t *testing.T) {
	f := newOpsFixture(t, 40, 80)
	on := mustExpr(t, "r.a = s.x + 1000")
	drain := func(qc *QueryCtx, op func() Operator) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Collect(qc, op()); err != nil {
				t.Fatal(err)
			}
		})
	}
	scans := func(qc *QueryCtx) float64 {
		return drain(qc, func() Operator { return summaryScan(f.r, "r") }) +
			drain(qc, func() Operator { return summaryScan(f.s, "s") })
	}
	join := drain(nil, func() Operator {
		return NewNLJoin(summaryScan(f.r, "r"), summaryScan(f.s, "s"), on, true, nil)
	})
	if base := scans(nil); join > base+32 {
		t.Fatalf("rejecting all 40×80 pairs allocated %.0f times; its two scans allocate %.0f", join, base)
	}
	wide := NewQueryCtx(nil, nil, MaxBatchSize)
	cross := drain(wide, func() Operator {
		return NewNLJoin(summaryScan(f.r, "r"), summaryScan(f.s, "s"), nil, false, nil)
	})
	if base := scans(wide); cross > base+256 {
		t.Fatalf("accepting all 40×80 pairs allocated %.0f times; its two scans allocate %.0f", cross, base)
	}
}

func TestIndexJoinAgreesWithNLJoin(t *testing.T) {
	f := newOpsFixture(t, 8, 24)
	if _, err := f.s.CreateDataIndex("x"); err != nil {
		t.Fatal(err)
	}
	nl, err := Collect(nil, NewNLJoin(summaryScan(f.r, "r"), summaryScan(f.s, "s"),
		mustExpr(t, "r.a = s.x"), true, nil))
	if err != nil {
		t.Fatal(err)
	}
	ij, err := Collect(nil, NewIndexJoin(summaryScan(f.r, "r"), f.s, "s", "x",
		mustExpr(t, "r.a"), nil, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(nl) != len(ij) || len(nl) == 0 {
		t.Fatalf("NL %d vs Index %d rows", len(nl), len(ij))
	}
	key := func(r *Row) string { return r.Tuple.String() }
	seen := map[string]int{}
	for _, r := range nl {
		seen[key(r)]++
	}
	for _, r := range ij {
		seen[key(r)]--
	}
	for k, n := range seen {
		if n != 0 {
			t.Fatalf("join outputs differ at %q (%d)", k, n)
		}
	}
}

func TestIndexJoinResidualPredicate(t *testing.T) {
	f := newOpsFixture(t, 8, 24)
	if _, err := f.s.CreateDataIndex("x"); err != nil {
		t.Fatal(err)
	}
	ij, err := Collect(nil, NewIndexJoin(summaryScan(f.r, "r"), f.s, "s", "x",
		mustExpr(t, "r.a"), mustExpr(t, "s.z = 'z09'"), true, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(ij) != 1 {
		t.Fatalf("residual rows = %d", len(ij))
	}
}

func TestSortInMemoryAndExternalAgree(t *testing.T) {
	f := newOpsFixture(t, 40, 0)
	keys := []SortKey{
		{Expr: mustExpr(t, "r.$.getSummaryObject('C1').getLabelValue('Disease')"), Desc: true},
		{Expr: mustExpr(t, "r.a")},
	}
	mem, err := Collect(nil, NewSort(summaryScan(f.r, "r"), keys, nil))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := Collect(nil, NewExternalSort(summaryScan(f.r, "r"), keys, 7, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(mem) != 40 || len(ext) != 40 {
		t.Fatalf("rows: mem %d ext %d", len(mem), len(ext))
	}
	for i := range mem {
		if mem[i].Tuple.Values[0].Int != ext[i].Tuple.Values[0].Int {
			t.Fatalf("row %d differs: %v vs %v", i, mem[i].Tuple.Values, ext[i].Tuple.Values)
		}
	}
	// Verify ordering: Disease desc, then a asc.
	for i := 1; i < len(mem); i++ {
		d1 := (i - 1 + 1) // placeholder; recompute from summaries
		_ = d1
		prev, _ := mem[i-1].Tuple.Summaries.Get("C1").GetLabelValue("Disease")
		cur, _ := mem[i].Tuple.Summaries.Get("C1").GetLabelValue("Disease")
		if cur > prev {
			t.Fatalf("not sorted desc at %d: %d > %d", i, cur, prev)
		}
		if cur == prev && mem[i].Tuple.Values[0].Int < mem[i-1].Tuple.Values[0].Int {
			t.Fatalf("tiebreak not asc at %d", i)
		}
	}
	// External sort with summaries round-trips them through its run files.
	if ext[0].Tuple.Summaries.Get("C1") == nil {
		t.Error("summaries lost through external sort")
	}
}

func TestGroupByAggregates(t *testing.T) {
	f := newOpsFixture(t, 12, 0)
	aggs := []AggSpec{
		{Func: "count", Star: true, Name: "cnt"},
		{Func: "sum", Arg: mustExpr(t, "r.a"), Name: "total"},
		{Func: "min", Arg: mustExpr(t, "r.a"), Name: "lo"},
		{Func: "max", Arg: mustExpr(t, "r.a"), Name: "hi"},
		{Func: "avg", Arg: mustExpr(t, "r.a"), Name: "mean"},
	}
	// Group by a % 2 parity via an expression key.
	g := NewGroupBy([]Operator{summaryScan(f.r, "r")},
		[]sql.Expr{mustExpr(t, "r.a / 7")}, aggs, nil)
	rows, err := Collect(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // a/7 in {0, 1} for a in 1..12
		t.Fatalf("groups = %d", len(rows))
	}
	totalCnt := int64(0)
	for _, row := range rows {
		totalCnt += row.Tuple.Values[1].Int
		if row.Tuple.Summaries.Get("C1") == nil {
			t.Error("group summaries missing")
		}
	}
	if totalCnt != 12 {
		t.Errorf("count sum = %d", totalCnt)
	}
	if g.Schema().Len() != 6 {
		t.Errorf("groupby schema: %s", g.Schema())
	}
}

func TestLimitAndDistinct(t *testing.T) {
	f := newOpsFixture(t, 10, 0)
	rows, err := Collect(nil, NewLimit(NewSeqScan(f.r, "r"), 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Errorf("limit rows = %d", len(rows))
	}
	// Distinct over a constant projection collapses everything, merging
	// summaries.
	out := model.NewSchema("", model.Column{Name: "k", Kind: model.KindInt})
	p := NewProject(summaryScan(f.r, "r"), []sql.Expr{mustExpr(t, "1")}, out, nil)
	d, err := Collect(nil, NewDistinct(p, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 {
		t.Fatalf("distinct rows = %d", len(d))
	}
	obj := d[0].Tuple.Summaries.Get("C1")
	if obj == nil {
		t.Fatal("distinct lost merged summaries")
	}
	// All 10 tuples' Other elements merged (1 annotation each).
	if got, _ := obj.GetLabelValue("Other"); got != 10 {
		t.Errorf("merged Other = %d, want 10", got)
	}
}

// TestKeyedRowsAllocateNothingPerRow: GROUP BY and DISTINCT build a
// row's key in bytes they reuse and probe their maps with it uncopied,
// so a row of a group that exists, or a duplicate row, allocates
// nothing.
func TestKeyedRowsAllocateNothingPerRow(t *testing.T) {
	schema := model.NewSchema("r",
		model.Column{Name: "a", Kind: model.KindInt},
		model.Column{Name: "x", Kind: model.KindFloat},
		model.Column{Name: "b", Kind: model.KindText})
	row := &Row{Tuple: model.NewTuple(1, model.NewInt(7), model.NewFloat(0.15), model.NewText("Anatidae"))}
	acc := newGroupAcc(nil, schema, []sql.Expr{mustExpr(t, "r.b"), mustExpr(t, "r.x"), mustExpr(t, "r.a")},
		[]AggSpec{{Func: "count", Star: true, Name: "n"}, {Func: "sum", Arg: mustExpr(t, "r.a"), Name: "s"}}, nil)
	if err := acc.add(row); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { acc.add(row) }); n != 0 {
		t.Errorf("groupAcc.add of a row whose group exists: %.0f allocations, want 0", n)
	}
	// One batch of n duplicates: DISTINCT costs the same at any n (give
	// or take the few containers a sync.Pool may drop under -race).
	distinct := func(n int) float64 {
		rows := make([]*Row, n)
		for i := range rows {
			rows[i] = row
		}
		return testing.AllocsPerRun(20, func() {
			if out, err := Collect(NewQueryCtx(nil, nil, 1024), NewDistinct(NewSliceIter(schema, rows), nil)); err != nil || len(out) != 1 {
				t.Fatalf("distinct: %d rows, %v", len(out), err)
			}
		})
	}
	if few, many := distinct(10), distinct(1000); many > few+4 {
		t.Errorf("DISTINCT of 10 duplicates: %.0f allocations, of 1000: %.0f; want the same", few, many)
	}
}

// TestDistinctMergesAllSummaryTypes collapses rows whose sets carry all
// three summary types and share annotations: each surviving row must
// hold exactly the fold of its duplicates' sets in scan order, at every
// batch capacity.
func TestDistinctMergesAllSummaryTypes(t *testing.T) {
	f := newMergeFixture(t, 96)
	scanned, err := Collect(nil, summaryScan(f.r, "r"))
	if err != nil {
		t.Fatal(err)
	}
	var want []*Row // one per a/12, summaries folded by the accumulator directly
	var accs []*model.SetAccumulator
	for i, row := range scanned {
		k := (i + 1) / 12
		if k == len(want) {
			want = append(want, &Row{Tuple: &model.Tuple{Values: []model.Value{model.NewInt(int64(k))}}})
			accs = append(accs, model.NewSetAccumulator(nil))
		}
		accs[k].Add(row.Tuple.Summaries)
	}
	for k, acc := range accs {
		want[k].Tuple.Summaries = acc.Result()
	}
	for _, capacity := range []int{1, 7, 1024} {
		out := model.NewSchema("", model.Column{Name: "k", Kind: model.KindInt})
		p := NewProject(summaryScan(f.r, "r"), []sql.Expr{mustExpr(t, "r.a / 12")}, out, nil)
		got, err := Collect(NewQueryCtx(nil, nil, capacity), NewDistinct(p, nil))
		if err != nil {
			t.Fatal(err)
		}
		if fullKeys(got) != fullKeys(want) {
			t.Fatalf("capacity %d:\ngot\n%s\nwant\n%s", capacity, fullKeys(got), fullKeys(want))
		}
	}
	// Nine rows, all three types, and the chain groups of a key's twelve
	// consecutive rows combined into one group next to twelve lone ones.
	if len(want) != 9 || len(want[1].Tuple.Summaries) != 3 {
		t.Fatalf("fixture drifted: %d rows\n%s", len(want), fullKey(want[1]))
	}
	if s1 := want[1].Tuple.Summaries.Get("S1"); len(s1.Reps) != 13 || s1.Reps[0].Count != 25 {
		t.Errorf("S1 of key 1: %d groups, first of %d", len(s1.Reps), s1.Reps[0].Count)
	}
}

func TestSummaryEffectProjectEliminates(t *testing.T) {
	f := newOpsFixture(t, 1, 0)
	// The fixture's annotations are row-level; add one column-level
	// annotation on b and rebuild the summary to include it.
	rows, _ := Collect(nil, summaryScan(f.r, "r"))
	oid := rows[0].Tuple.OID
	colAnn := f.cat.Anns.Add(oid, "column note", []string{"b"}, "u")
	old := f.r.GetSummaries(oid)
	set := old.Clone()
	c1 := set.Get("C1")
	li := c1.RepIndexByLabel("Other")
	c1.Reps[li].Elements = append(c1.Reps[li].Elements, colAnn.ID)
	c1.Reps[li].Count = len(c1.Reps[li].Elements)
	rid, _ := f.r.DiskTupleLoc(oid)
	f.r.PutSummaries(oid, rid, old, set)

	// Keep only column a: the b-attached annotation's effect vanishes.
	sp := NewSummaryEffectProject(summaryScan(f.r, "r"), []string{"a"},
		f.cat.Anns.ForTuple, f.cat.Anns.Lookup())
	got, err := Collect(nil, sp)
	if err != nil {
		t.Fatal(err)
	}
	obj := got[0].Tuple.Summaries.Get("C1")
	if v, _ := obj.GetLabelValue("Other"); v != 1 {
		t.Errorf("projected Other = %d, want 1", v)
	}
	// Keeping b retains it.
	sp2 := NewSummaryEffectProject(summaryScan(f.r, "r"), []string{"a", "b"},
		f.cat.Anns.ForTuple, f.cat.Anns.Lookup())
	got2, _ := Collect(nil, sp2)
	if v, _ := got2[0].Tuple.Summaries.Get("C1").GetLabelValue("Other"); v != 2 {
		t.Errorf("full Other = %d, want 2", v)
	}
}

// Property: external sort equals in-memory sort on random data sizes and
// run lengths.
func TestExternalSortProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	schema := model.NewSchema("t", model.Column{Name: "v", Kind: model.KindInt})
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(200) + 1
		rows := make([]*Row, n)
		for i := range rows {
			rows[i] = &Row{Tuple: model.NewTuple(int64(i), model.NewInt(int64(rng.Intn(50))))}
		}
		keys := []SortKey{{Expr: mustExpr(t, "v")}}
		mem, err := Collect(nil, NewSort(NewSliceIter(schema, rows), keys, nil))
		if err != nil {
			t.Fatal(err)
		}
		runLen := rng.Intn(20) + 2
		ext, err := Collect(nil, NewExternalSort(NewSliceIter(schema, rows), keys, runLen, nil))
		if err != nil {
			t.Fatal(err)
		}
		if len(mem) != len(ext) {
			t.Fatalf("trial %d: %d vs %d rows", trial, len(mem), len(ext))
		}
		for i := range mem {
			if mem[i].Tuple.Values[0].Int != ext[i].Tuple.Values[0].Int {
				t.Fatalf("trial %d row %d: %d vs %d (runLen %d)", trial, i,
					mem[i].Tuple.Values[0].Int, ext[i].Tuple.Values[0].Int, runLen)
			}
		}
	}
}
