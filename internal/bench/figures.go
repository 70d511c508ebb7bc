package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// Figure is one entry of the registry: the figure numbers it
// regenerates and the function that regenerates them.
type Figure struct {
	Nums []int
	Run  func(*Harness) (*Table, error)
}

// Name names the entry by its last figure number, e.g. "Fig07".
func (f Figure) Name() string { return fmt.Sprintf("Fig%02d", f.Nums[len(f.Nums)-1]) }

// Figures is the registry: every figure this package regenerates, each
// defined once, in paper order. cmd/benchreport's -fig filter, the root
// package's BenchmarkFigures and TestAllFiguresSmoke range over it.
var Figures = []Figure{
	{[]int{7}, Fig07Storage},
	{[]int{8}, Fig08Bulk},
	{[]int{9}, Fig09Incremental},
	{[]int{10}, Fig10Selection},
	{[]int{11}, Fig11TwoPredicates},
	{[]int{12}, Fig12DenormalizedPropagation},
	{[]int{13}, Fig13BackwardPointers},
	{[]int{14}, Fig14Rules25},
	{[]int{15}, Fig15Rule11},
	{[]int{2, 16}, Fig16CaseStudy},
	{[]int{17}, Fig17Parallel},
	{[]int{18}, Fig18BufferPool},
	{[]int{19}, Fig19FetchPath},
	{[]int{22}, Fig22Ingest},
	{[]int{23}, Fig23ServerQPS},
	{[]int{24}, Fig24Vectorized},
}

// Harness caches built datasets per annotations-per-bird grid point.
type Harness struct {
	Scale Scale
	cache map[int]*entry
}

type entry struct {
	ds           *workload.Dataset
	buildTime    time.Duration
	sbtreeTime   time.Duration
	baselineTime time.Duration
	indexed      bool
}

// NewHarness builds an empty harness.
func NewHarness(s Scale) *Harness {
	return &Harness{Scale: s, cache: map[int]*entry{}}
}

// dataset returns the (cached) dataset for one grid point, without
// indexes.
func (h *Harness) dataset(avg int) (*entry, error) {
	if e, ok := h.cache[avg]; ok {
		return e, nil
	}
	var ds *workload.Dataset
	buildTime, err := timeIt(func() error {
		var err error
		ds, err = workload.Build(workload.Config{
			Seed:                   h.Scale.Seed,
			Birds:                  h.Scale.Birds,
			AvgAnnotationsPerBird:  avg,
			SynonymsPerBird:        h.Scale.SynonymsPerBird,
			LongAnnotationFraction: 0.01,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	e := &entry{ds: ds, buildTime: buildTime}
	h.cache[avg] = e
	return e, nil
}

// indexed returns the dataset with both index schemes built (timed on
// first use).
func (h *Harness) indexed(avg int) (*entry, error) {
	e, err := h.dataset(avg)
	if err != nil {
		return nil, err
	}
	if e.indexed {
		return e, nil
	}
	e.sbtreeTime, err = timeIt(func() error {
		return e.ds.DB.CreateSummaryIndex("Birds", "ClassBird1")
	})
	if err != nil {
		return nil, err
	}
	e.baselineTime, err = timeIt(func() error {
		return e.ds.DB.CreateBaselineIndex("Birds", "ClassBird1")
	})
	if err != nil {
		return nil, err
	}
	e.indexed = true
	return e, nil
}

// pickConstant returns the count value of a classifier label whose
// equality selectivity is closest to target.
func pickConstant(t *catalog.Table, instance, label string, target float64) int {
	ls := t.Stats(instance).Label(label)
	n := ls.N()
	if n == 0 {
		return 0
	}
	best, bestDiff := 0, 2.0
	for v, c := range ls.Values() {
		sel := float64(c) / float64(n)
		diff := sel - target
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff || (diff == bestDiff && v < best) {
			best, bestDiff = v, diff
		}
	}
	return best
}

// pickGreaterConstant returns the smallest constant c such that the
// fraction of objects with count > c is at most target — the paper's
// "classLabel > constant" predicates at a chosen selectivity.
func pickGreaterConstant(t *catalog.Table, instance, label string, target float64) int {
	ls := t.Stats(instance).Label(label)
	n := ls.N()
	if n == 0 {
		return 0
	}
	values := ls.Values()
	var counts []int
	for v := range values {
		counts = append(counts, v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	above := 0
	for _, v := range counts {
		next := above + values[v]
		if float64(next)/float64(n) > target {
			return v
		}
		above = next
	}
	return 0
}

// --- Figure 7: storage overhead ---------------------------------------------

// Fig07Storage compares the storage footprint of the Baseline scheme
// (replicated normalized table + indexes) against the Summary-BTree
// scheme (de-normalized objects + index only).
func Fig07Storage(h *Harness) (*Table, error) {
	t := &Table{
		Figure:  "Figure 7",
		Title:   "Storage overhead: Baseline vs Summary-BTree scheme",
		Headers: []string{"annotations", "objects KB", "baseline KB", "sbtree KB", "index saving"},
	}
	for _, avg := range h.Scale.AnnGrid {
		e, err := h.indexed(avg)
		if err != nil {
			return nil, err
		}
		db := e.ds.DB
		birds, _ := db.Table("Birds")
		objects := summaryStorageBytes(birds)
		base := db.BaselineIndex("Birds", "ClassBird1").SizeBytes()
		sb := db.SummaryIndex("Birds", "ClassBird1").SizeBytes()
		if base <= sb {
			return nil, fmt.Errorf("fig07: baseline index %d bytes <= Summary-BTree %d bytes at %s",
				base, sb, h.Scale.PaperAnnotations(avg))
		}
		t.AddRow(h.Scale.PaperAnnotations(avg), kb(objects), kb(base), kb(sb),
			fmt.Sprintf("%.0f%%", 100*(1-float64(sb)/float64(base))))
	}
	t.AddNote("paper: index sizes comparable; Summary-BTree scheme avoids replicating the objects (~65%% total saving)")
	t.AddNote("overhead flat in annotation volume: classifier objects have fixed size once every tuple is annotated")
	return t, nil
}

func summaryStorageBytes(t *catalog.Table) int {
	total := 0
	t.SummaryStorage.Scan(func(_ heap.RID, _ int64, set model.SummarySet) bool {
		total += catalog.EstimateSetSize(set)
		return true
	})
	return total
}

// --- Figure 8: bulk index creation -------------------------------------------

// Fig08Bulk reports index-creation time relative to data-loading time
// for both schemes.
func Fig08Bulk(h *Harness) (*Table, error) {
	t := &Table{
		Figure:  "Figure 8",
		Title:   "Bulk index creation (% of data-loading time)",
		Headers: []string{"annotations", "load ms", "sbtree ms", "sbtree %", "baseline ms", "baseline %"},
	}
	for _, avg := range h.Scale.AnnGrid {
		e, err := h.indexed(avg)
		if err != nil {
			return nil, err
		}
		t.AddRow(h.Scale.PaperAnnotations(avg), ms(e.buildTime),
			ms(e.sbtreeTime), pct(e.sbtreeTime, e.buildTime),
			ms(e.baselineTime), pct(e.baselineTime, e.buildTime))
	}
	t.AddNote("paper: both within ~12%% of loading; Summary-BTree up to 35%% cheaper than baseline (no normalization pass)")
	return t, nil
}

// --- Figure 9: incremental indexing ------------------------------------------

// Fig09Incremental measures the per-annotation insertion time with no
// indexes, with the Summary-BTree, and with the baseline index.
func Fig09Incremental(h *Harness) (*Table, error) {
	t := &Table{
		Figure: "Figure 9",
		Title:  "Incremental maintenance: avg insert time per annotation (100-insert batches)",
		Headers: []string{"annotations", "no-index ms", "sbtree ms", "overhead",
			"baseline ms", "overhead", "pages/insert n/s/b"},
	}
	const batch = 100
	for _, avg := range h.Scale.AnnGrid {
		ds, err := workload.Build(workload.Config{
			Seed:                  h.Scale.Seed + 100,
			Birds:                 h.Scale.Birds / 2,
			AvgAnnotationsPerBird: avg,
			SkipSynonyms:          true,
			// No LSA-long annotations: a single long annotation's
			// summarization would dominate a 100-insert batch and mask
			// the index-maintenance overhead being measured.
			LongAnnotationFraction: -1,
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(99))
		acct := ds.DB.Accountant()
		// Minimum over three 100-insert batches per configuration, to
		// suppress allocator/GC noise at microsecond batch times; page
		// accesses (deterministic) carry the maintenance-cost signal.
		insertBatch := func() (time.Duration, int64, error) {
			before := acct.Stats()
			d, err := timeBest(3, func() error {
				for i := 0; i < batch; i++ {
					if err := ds.AddAnnotations(rng, rng.Intn(len(ds.Birds)), 1); err != nil {
						return err
					}
				}
				return nil
			})
			pages := acct.Stats().Sub(before).Total() / (3 * batch)
			return d, pages, err
		}
		none, pagesNone, err := insertBatch()
		if err != nil {
			return nil, err
		}
		if err := ds.DB.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
			return nil, err
		}
		withSB, pagesSB, err := insertBatch()
		if err != nil {
			return nil, err
		}
		if err := ds.DB.DropSummaryIndex("Birds", "ClassBird1"); err != nil {
			return nil, err
		}
		if err := ds.DB.CreateBaselineIndex("Birds", "ClassBird1"); err != nil {
			return nil, err
		}
		withBase, pagesBase, err := insertBatch()
		if err != nil {
			return nil, err
		}
		t.AddRow(h.Scale.PaperAnnotations(avg),
			ms(none/batch), ms(withSB/batch), pct(withSB-none, none),
			ms(withBase/batch), pct(withBase-none, none),
			fmt.Sprintf("%d/%d/%d", pagesNone, pagesSB, pagesBase))
	}
	t.AddNote("paper: Summary-BTree adds 10–15%% per insert, baseline 20–37%% (extra de-normalization writes)")
	t.AddNote("here mining dominates the insert path, so wall-clock overheads sit inside noise at small sizes;")
	t.AddNote("the page column isolates maintenance I/O: none < Summary-BTree < baseline")
	return t, nil
}

// --- Figure 10: summary-based selection --------------------------------------

// Fig10Selection runs the SP query with a classifier equality predicate
// (~1%% selectivity) under NoIndex / Baseline / Summary-BTree.
func Fig10Selection(h *Harness) (*Table, error) {
	t := &Table{
		Figure:  "Figure 10",
		Title:   "Summary-based selection (classifier), ~1% selectivity, time in ms (log-scale plot in paper)",
		Headers: []string{"annotations", "noindex ms", "baseline ms", "sbtree ms", "base/sbtree", "noidx/sbtree", "pages n/b/s"},
	}
	for _, avg := range h.Scale.AnnGrid {
		e, err := h.indexed(avg)
		if err != nil {
			return nil, err
		}
		db := e.ds.DB
		birds, _ := db.Table("Birds")
		c := pickConstant(birds, "ClassBird1", "Disease", 0.01)
		q := fmt.Sprintf(`SELECT * FROM Birds r
			WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = %d`, c)
		m, err := timeArms(db, 7, arm{q: q, opts: &optimizer.Options{NoSummaryIndex: true}},
			arm{q: q, opts: &optimizer.Options{UseBaseline: true}}, arm{q: q})
		if err != nil {
			return nil, fmt.Errorf("fig10: %w", err)
		}
		noIdx, base, sb := m[0].best, m[1].best, m[2].best
		t.AddRow(h.Scale.PaperAnnotations(avg), ms(noIdx), ms(base), ms(sb),
			ratio(base, sb), ratio(noIdx, sb), fmt.Sprintf("%d/%d/%d", m[0].reads, m[1].reads, m[2].reads))
	}
	t.AddNote("paper: both indexes ~2 orders of magnitude over NoIndex; Summary-BTree ~3x over baseline (fewer indirections)")
	return t, nil
}

// --- Figure 11: two-predicate query -------------------------------------------

// Fig11TwoPredicates combines an anatomy-count range predicate with a
// snippet keyword-search predicate.
func Fig11TwoPredicates(h *Harness) (*Table, error) {
	t := &Table{
		Figure:  "Figure 11",
		Title:   "Two-predicate selection (classifier range + snippet keyword search)",
		Headers: []string{"annotations", "noindex ms", "baseline ms", "sbtree ms", "base/sbtree"},
	}
	for _, avg := range h.Scale.AnnGrid {
		e, err := h.indexed(avg)
		if err != nil {
			return nil, err
		}
		db := e.ds.DB
		birds, _ := db.Table("Birds")
		lo := pickConstant(birds, "ClassBird1", "Anatomy", 0.05)
		q := fmt.Sprintf(`SELECT * FROM Birds r
			WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Anatomy') >= %d
			AND r.$.getSummaryObject('ClassBird1').getLabelValue('Anatomy') <= %d
			AND r.$.getSummaryObject('TextSummary1').containsUnion('stonewort')`, lo, lo+2)
		m, err := timeArms(db, 5, arm{q: q, opts: &optimizer.Options{NoSummaryIndex: true}},
			arm{q: q, opts: &optimizer.Options{UseBaseline: true}}, arm{q: q})
		if err != nil {
			return nil, fmt.Errorf("fig11: %w", err)
		}
		t.AddRow(h.Scale.PaperAnnotations(avg), ms(m[0].best), ms(m[1].best), ms(m[2].best), ratio(m[1].best, m[2].best))
	}
	t.AddNote("paper: Summary-BTree ~2x over baseline; index answers the range, S applies the keyword predicate on top")
	return t, nil
}

// --- Figure 12: de-normalized propagation --------------------------------------

// Fig12DenormalizedPropagation compares summary propagation read from
// the de-normalized storage (Summary-BTree scheme) against rebuilding
// the objects from the baseline's normalized rows.
func Fig12DenormalizedPropagation(h *Harness) (*Table, error) {
	t := &Table{
		Figure:  "Figure 12",
		Title:   "Propagation source: baseline normalized rebuild vs de-normalized storage",
		Headers: []string{"annotations", "baseline-rebuild ms", "sbtree ms", "ratio", "pages b/s"},
	}
	for _, avg := range h.Scale.AnnGrid {
		e, err := h.indexed(avg)
		if err != nil {
			return nil, err
		}
		db := e.ds.DB
		birds, _ := db.Table("Birds")
		lo := pickConstant(birds, "ClassBird1", "Anatomy", 0.1)
		q := fmt.Sprintf(`SELECT * FROM Birds r
			WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Anatomy') >= %d
			AND r.$.getSummaryObject('ClassBird1').getLabelValue('Anatomy') <= %d`, lo, lo+3)
		m, err := timeArms(db, 5, arm{q: q, opts: &optimizer.Options{UseBaseline: true, BaselineReconstruct: true}},
			arm{q: q})
		if err != nil {
			return nil, fmt.Errorf("fig12: %w", err)
		}
		base, sb := m[0].best, m[1].best
		t.AddRow(h.Scale.PaperAnnotations(avg), ms(base), ms(sb), ratio(base, sb),
			fmt.Sprintf("%d/%d", m[0].reads, m[1].reads))
	}
	t.AddNote("paper: rebuilding summaries from normalized primitives is ~7x slower than reading the de-normalized storage")
	return t, nil
}

// --- Figure 13: backward pointers ----------------------------------------------

// Fig13BackwardPointers ablates the backward-referencing mechanism:
// {backward, conventional} × {propagation, no propagation}.
func Fig13BackwardPointers(h *Harness) (*Table, error) {
	t := &Table{
		Figure:  "Figure 13",
		Title:   "Backward vs conventional index pointers",
		Headers: []string{"annotations", "bwd+prop ms", "bwd ms", "conv+prop ms", "conv ms", "conv/bwd (noprop)", "pages conv/bwd"},
	}
	for _, avg := range h.Scale.AnnGrid {
		e, err := h.indexed(avg)
		if err != nil {
			return nil, err
		}
		db := e.ds.DB
		birds, _ := db.Table("Birds")
		c := pickConstant(birds, "ClassBird1", "Disease", 0.05)
		withProp := fmt.Sprintf(`SELECT * FROM Birds r
			WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = %d`, c)
		noProp := withProp + " WITHOUT SUMMARIES"
		conventional := &optimizer.Options{ConventionalPointers: true}
		m, err := timeArms(db, 15, arm{q: withProp}, arm{q: noProp},
			arm{q: withProp, opts: conventional}, arm{q: noProp, opts: conventional})
		if err != nil {
			return nil, fmt.Errorf("fig13: %w", err)
		}
		t.AddRow(h.Scale.PaperAnnotations(avg), ms(m[0].best), ms(m[1].best), ms(m[2].best), ms(m[3].best),
			ratio(m[3].best, m[1].best), fmt.Sprintf("%d/%d", m[3].reads, m[1].reads))
	}
	t.AddNote("paper: with propagation both are similar (1-1 storage join); without it, backward pointers save the join (~4x)")
	return t, nil
}

// --- Figure 14: rules 2 and 5 ---------------------------------------------------

// Fig14Rules25 runs Example 4's query — Birds ⋈ Synonyms, a classifier
// selection, and a summary-based sort — with the rules disabled/enabled
// across {NLoop, Index} × {Mem, Disk}.
func Fig14Rules25(h *Harness) (*Table, error) {
	avg := h.Scale.AnnGrid[len(h.Scale.AnnGrid)-1] // largest point, as in the paper
	e, err := h.indexed(avg)
	if err != nil {
		return nil, err
	}
	db := e.ds.DB
	if err := db.CreateDataIndex("Synonyms", "bird_id"); err != nil {
		return nil, err
	}
	birds, _ := db.Table("Birds")
	c := pickGreaterConstant(birds, "ClassBird1", "Disease", 0.10)
	q := fmt.Sprintf(`SELECT r.id FROM Birds r, Synonyms s
		WHERE r.id = s.bird_id
		AND r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > %d
		ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease')`, c)

	t := &Table{
		Figure:  "Figure 14",
		Title:   fmt.Sprintf("Rules {2,5}: push S below ⋈ + index order eliminates sort (%s annotations)", h.Scale.PaperAnnotations(avg)),
		Headers: []string{"join/sort", "disabled ms", "enabled ms", "speedup"},
	}
	for _, jc := range []struct{ join, sort string }{
		{"nl", "mem"}, {"nl", "disk"}, {"index", "mem"}, {"index", "disk"},
	} {
		disabledOpts := &optimizer.Options{
			DisableRules: true, ForceJoin: jc.join, ForceSort: jc.sort, SortRunLen: 256,
		}
		enabledOpts := &optimizer.Options{ForceJoin: jc.join}
		m, err := timeArms(db, 3, arm{q: q, opts: disabledOpts}, arm{q: q, opts: enabledOpts})
		if err != nil {
			return nil, fmt.Errorf("fig14 %v: %w", jc, err)
		}
		// The contrast is the rules' plan against the plan without them:
		// the index answers the selection and its order stands in for
		// the sort only when the rules run.
		for _, gate := range []struct {
			opts  *optimizer.Options
			want  bool
			frags []string
		}{
			{disabledOpts, false, []string{"SummaryBTreeScan", "(eliminated: index order)"}},
			{enabledOpts, true, []string{fmt.Sprintf("SummaryBTreeScan Birds AS r ON ClassBird1.Disease > %d", c),
				"(eliminated: index order)"}},
		} {
			p, err := db.Explain(q, gate.opts)
			if err != nil {
				return nil, err
			}
			for _, frag := range gate.frags {
				if strings.Contains(p, frag) != gate.want {
					return nil, fmt.Errorf("fig14 %v (rules enabled: %v): plan has %q = %v:\n%s",
						jc, gate.want, frag, !gate.want, p)
				}
			}
		}
		t.AddRow(fmt.Sprintf("%s/%s", jc.join, jc.sort), ms(m[0].best), ms(m[1].best), ratio(m[0].best, m[1].best))
	}
	t.AddNote("paper: ~15x across all four join/sort combinations")
	return t, nil
}

// --- Figure 15: rule 11 ----------------------------------------------------------

// Fig15Rule11 switches the order of a data join and a summary join: the
// default plan runs J(Birds, Synonyms) — a keyword search over the
// COMBINED TextSummary1 objects of both sides — first with a nested
// loop, then block-NL-joins the (large) intermediate with the replica T;
// the optimized plan applies rule 11 and joins Birds with T through T's
// id index first. The keyword is the workload's rare marker phrase, so
// the summary join is selective but non-empty.
func Fig15Rule11(h *Harness) (*Table, error) {
	t := &Table{
		Figure:  "Figure 15",
		Title:   "Rule {11}: switching data- and summary-join order",
		Headers: []string{"annotations", "rows", "disabled ms", "enabled ms", "speedup"},
	}
	// The summary join is evaluated |R|×|S| times in both plans; its
	// cost grows with annotation volume, so this figure runs a reduced
	// grid on a half-size Birds table (documented in EXPERIMENTS.md).
	grid := h.Scale.SortedGrid()
	if len(grid) > 2 {
		grid = grid[:2]
	}
	for _, avg := range grid {
		ds, err := workload.Build(workload.Config{
			Seed:                     h.Scale.Seed + 200,
			Birds:                    h.Scale.Birds / 2,
			AvgAnnotationsPerBird:    avg,
			SynonymsPerBird:          h.Scale.SynonymsPerBird,
			AnnotateSynonymsFraction: 0.15,
			LongAnnotationFraction:   -1,
		})
		if err != nil {
			return nil, err
		}
		db := ds.DB
		// T: a 1-1 replica of Birds joined through an indexed id column.
		if _, err := db.CreateTable("BirdsT", workload.BirdsSchema()); err != nil {
			return nil, err
		}
		birds, _ := db.Table("Birds")
		birds.Scan(func(_ heap.RID, tu *model.Tuple) bool {
			db.Insert("BirdsT", tu.Values...)
			return true
		})
		if err := db.CreateDataIndex("BirdsT", "id"); err != nil {
			return nil, err
		}
		if err := db.CreateDataIndex("Birds", "id"); err != nil {
			return nil, err
		}
		q := `SELECT r.id FROM Birds r, Synonyms s, BirdsT t
		      WHERE t.id = r.id
		      AND (r.$.getSummaryObject('TextSummary1').containsUnion('ringed')
		        OR s.$.getSummaryObject('TextSummary1').containsUnion('ringed'))`
		m, err := timeArms(db, 1, arm{q: q, opts: &optimizer.Options{DisableRules: true}}, arm{q: q})
		if err != nil {
			return nil, fmt.Errorf("fig15: %w", err)
		}
		// Rule 11's plan: the index join with BirdsT runs below the
		// summary join.
		p, err := db.Explain(q, nil)
		if err != nil {
			return nil, err
		}
		if !subtreeHas(p, "SummaryJoin J[", "IndexJoin(") || !subtreeHas(p, "IndexJoin(", "BirdsT") {
			return nil, fmt.Errorf("fig15: the optimized plan does not run the BirdsT index join below the summary join:\n%s", p)
		}
		t.AddRow(h.Scale.PaperAnnotations(avg), fmt.Sprint(m[0].rows),
			ms(m[0].best), ms(m[1].best), ratio(m[0].best, m[1].best))
	}
	t.AddNote("paper: ~3.5x from performing the indexed data join first (rule 11)")
	return t, nil
}

// subtreeHas reports whether, in the EXPLAIN text p, a line containing
// inner sits in the subtree of (is indented under) a line containing
// outer.
func subtreeHas(p, outer, inner string) bool {
	lines := strings.Split(p, "\n")
	indent := func(l string) int { return len(l) - len(strings.TrimLeft(l, " ")) }
	for i, l := range lines {
		if !strings.Contains(l, outer) {
			continue
		}
		for _, m := range lines[i+1:] {
			if indent(m) <= indent(l) {
				break
			}
			if strings.Contains(m, inner) {
				return true
			}
		}
	}
	return false
}

// --- Figures 2 and 16: usability case study ---------------------------------------

// Fig16CaseStudy reproduces the case-study comparison. Human time for
// the manual group cannot be measured here: the paper's reported values
// are shown as "modeled" context, while the InsightNotes+ column is the
// measured automated time on this engine.
func Fig16CaseStudy(h *Harness) (*Table, error) {
	avg := h.Scale.AnnGrid[0]
	e, err := h.indexed(avg)
	if err != nil {
		return nil, err
	}
	db := e.ds.DB
	if _, err := db.Table("BirdsV2"); err != nil {
		diff := map[int]bool{}
		for i := 0; i < 5 && i < len(e.ds.Birds); i++ {
			diff[i*7%len(e.ds.Birds)] = true
		}
		if err := e.ds.BuildVersionTable("BirdsV2", diff); err != nil {
			return nil, err
		}
		if err := db.CreateDataIndex("BirdsV2", "id"); err != nil {
			return nil, err
		}
	}

	t := &Table{
		Figure:  "Figure 16 (and 2)",
		Title:   "Usability case study: InsightNotes (manual post-processing, paper-reported) vs InsightNotes+ (measured)",
		Headers: []string{"query", "rows", "basic InsightNotes (paper)", "InsightNotes+ measured"},
	}

	birds, _ := db.Table("Birds")
	c := pickConstant(birds, "ClassBird1", "Disease", 0.02)
	for _, cq := range []struct{ name, q, paper string }{
		{"Q1 summary-based sort", `SELECT id FROM Birds r
		 ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC LIMIT 100`,
			"5.2 min (manual sort of 100 tuples)"},
		{"Q2 version-diff summary join", `SELECT v1.id FROM Birds v1, BirdsV2 v2
		 WHERE v1.id = v2.id
		 AND v1.$.getSummaryObject('ClassBird1').getLabelValue('Disease')
		  <> v2.$.getSummaryObject('ClassBird1').getLabelValue('Disease')`,
			"8.1 min (manual check of joined tuples)"},
		{"Q3 summary-based selection", fmt.Sprintf(`SELECT id FROM Birds r
		 WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > %d`, c),
			"infeasible (45K tuples to inspect)"},
	} {
		m, err := timeArms(db, 3, arm{q: cq.q})
		if err != nil {
			return nil, err
		}
		t.AddRow(cq.name, fmt.Sprint(m[0].rows), cq.paper, ms(m[0].best)+" ms")
	}

	t.AddNote("the 'basic InsightNotes' column is the paper's reported human time (modeled context, not measured here);")
	t.AddNote("the structural claim — these queries run automatically in sub-second time instead of manual minutes — is measured")
	return t, nil
}

// SortedGrid returns the grid ascending (defensive copy).
func (s Scale) SortedGrid() []int {
	g := append([]int(nil), s.AnnGrid...)
	sort.Ints(g)
	return g
}
