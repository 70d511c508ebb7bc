package harness

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// CheckMode says how a response is compared with the reference rows.
type CheckMode int

const (
	// CheckSet: the statement has no total order; the multiset of rows
	// (with their propagated summaries) must equal the reference's.
	CheckSet CheckMode = iota
	// CheckTopK: ORDER BY a summary count with LIMIT leaves ties free, so
	// two correct plans may return different rows. The sequence of sort
	// keys must equal the reference's and every row must belong to the
	// reference result of the same statement without LIMIT.
	CheckTopK
)

// Shape is one statement shape. A run draws the rows of constants for
// its placeholders from the seed (Instantiate), so the set of (shape,
// constant) pairs is finite and every expected result is precomputed
// once at set-up.
type Shape struct {
	Name string
	SQL  string // `?` placeholders
	// Rows draws the run's rows of constants — int or string — from the
	// run's generator, for a dataset of that many birds.
	Rows   func(rng *rand.Rand, birds int) [][]any
	Params [][]any // the rows drawn for this run
	Check  CheckMode
	KeyCol int // CheckTopK: the column that holds the ORDER BY key

	// The Summary-BTree probe the access path makes (IndexOp "" for
	// none), replayed directly as index.search in the traced run:
	// IndexLabel and IndexParam are the positions in a Params row of the
	// probe's label and count.
	IndexOp                string // "=", ">", ">="
	IndexLabel, IndexParam int
}

// Inline returns the statement text with the constants spliced in, the
// form the ad-hoc endpoint receives and the reference plan runs.
func (s *Shape) Inline(params []any) string {
	var b strings.Builder
	i := 0
	for _, r := range s.SQL {
		if r != '?' {
			b.WriteRune(r)
			continue
		}
		switch v := params[i].(type) {
		case int:
			b.WriteString(strconv.Itoa(v))
		case string:
			b.WriteString("'" + strings.ReplaceAll(v, "'", "''") + "'")
		default:
			panic(fmt.Sprintf("harness: unsupported constant %T", v))
		}
		i++
	}
	return b.String()
}

// countShare is the share of the birds that carry exactly c annotations
// of a label that an annotation gets with probability w, a bird having
// avgAnnotations/2 to 3·avgAnnotations/2 annotations, each count equally
// likely (as the loader draws them).
func countShare(w float64, c int) float64 {
	lo, hi := avgAnnotations/2, avgAnnotations/2+avgAnnotations
	var sum float64
	for n := max(lo, c); n <= hi; n++ {
		choose := 1.0
		for k := 0; k < c; k++ {
			choose *= float64(n-k) / float64(k+1)
		}
		sum += choose * math.Pow(w, float64(c)) * math.Pow(1-w, float64(n-c))
	}
	return sum / float64(hi-lo+1)
}

func countShareAtLeast(w float64, c int) float64 {
	var sum float64
	for k := c; k <= avgAnnotations/2+avgAnnotations; k++ {
		sum += countShare(w, k)
	}
	return sum
}

// nearestCount returns the count above the label's mean at which
// share(w, c) comes nearest to want. It is worked out from the
// distribution the loader draws from, not from the seed's dataset, so a
// statement asks for the same counts under every seed and the share of
// the birds that meet it differs between seeds only by what the draw of
// the dataset gives (±15% for one label, a few percent over the four).
func nearestCount(w, want float64, share func(float64, int) float64) int {
	nearest, dist := 0, math.Inf(1)
	for c := int(w*avgAnnotations) + 1; c <= avgAnnotations/2+avgAnnotations; c++ {
		if d := math.Abs(math.Log(share(w, c) / want)); d < dist {
			nearest, dist = c, d
		}
	}
	return nearest
}

// perLabel draws per rows for every ClassBird1 label, so that a shape's
// probes spread evenly over the Summary-BTree. row gets the label and
// the probability that an annotation carries it.
func perLabel(per int, row func(label string, w float64) []any) [][]any {
	var rows [][]any
	for i, label := range workloadLabels {
		for k := 0; k < per; k++ {
			rows = append(rows, row(label, labelWeights[i]))
		}
	}
	return rows
}

// draw draws n rows.
func draw(n int, row func() []any) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = row()
	}
	return rows
}

// Workload is one traffic mix with the target it runs against.
type Workload struct {
	Name    string
	Clients int
	// Adhoc sends each read as POST /v1/exec with inlined constants
	// (parsed and optimized cold) instead of executing a prepared
	// statement.
	Adhoc bool
	// WriteShare of the ops are single-annotation POST /v1/annotations.
	WriteShare float64
	Shapes     []Shape
	// TracedOps is how many ops of the traced pass are written to the
	// trace file; every traced op counts in the per-layer medians.
	TracedOps int
	// Target is what the workload asks of the system under test; the run
	// adds the seed, the dataset size and the scratch directory.
	Target TargetConfig
}

// Instantiate draws every shape's rows of constants from the seed.
func (w *Workload) Instantiate(seed int64, birds int) {
	rng := rand.New(rand.NewSource(seed*2654435761 + 97))
	for i := range w.Shapes {
		w.Shapes[i].Params = w.Shapes[i].Rows(rng, birds)
	}
}

const (
	classCall = "r.$.getSummaryObject('ClassBird1').getLabelValue"
	// wingspan_cm is uniform on [30, 280) and weight_g on [15, 12015), as
	// birdValues draws them.
	wingspanLo, wingspanN = 30, 250
	weightLo, weightN     = 15, 12000
	// Rows of constants per shape: adhocRows for a shape of data
	// constants, and for a shape that probes the Summary-BTree one row (or
	// eqRowsPerLabel, with different data constants) per label.
	adhocRows      = 8
	eqRowsPerLabel = 4
)

// lookupShapes is the prepared statement mix of the three lookup
// workloads: north-star path 1. The label is a parameter as well.
var lookupShapes = []Shape{
	{
		// Figure 23's statement: summary equality (≈1% of the birds) +
		// data predicate + summary sort + LIMIT 5.
		Name: "eq_sort_limit5",
		SQL: "SELECT id, common_name, " + classCall + "('Anatomy') FROM Birds r" +
			" WHERE " + classCall + "(?) = ?" +
			" AND " + classCall + "('Behavior') >= 1 AND r.wingspan_cm > ?" +
			" ORDER BY " + classCall + "('Anatomy') DESC LIMIT 5",
		Rows: func(rng *rand.Rand, _ int) [][]any {
			return perLabel(eqRowsPerLabel, func(label string, w float64) []any {
				return []any{label, nearestCount(w, 0.01, countShare), wingspanLo + rng.Intn(wingspanN/2)}
			})
		},
		Check: CheckTopK, KeyCol: 2,
		IndexOp: "=", IndexLabel: 0, IndexParam: 1,
	},
	{
		// Top-20 in Summary-BTree order, of ≈2% of the birds: the index
		// order stands in for the sort.
		Name: "top20_index_order",
		SQL: "SELECT id, common_name, " + classCall + "(?) FROM Birds r" +
			" WHERE " + classCall + "(?) >= ?" +
			" ORDER BY " + classCall + "(?) DESC LIMIT 20",
		Rows: func(*rand.Rand, int) [][]any {
			return perLabel(1, func(label string, w float64) []any {
				return []any{label, label, nearestCount(w, 0.02, countShareAtLeast), label}
			})
		},
		Check: CheckTopK, KeyCol: 2,
		IndexOp: ">=", IndexLabel: 1, IndexParam: 2,
	},
	{
		// A ≈0.5%-selective summary range whose rows carry their
		// propagated summaries in the result.
		Name: "range_with_summaries",
		SQL: "SELECT id, common_name FROM Birds r" +
			" WHERE " + classCall + "(?) >= ?",
		Rows: func(*rand.Rand, int) [][]any {
			return perLabel(1, func(label string, w float64) []any {
				return []any{label, nearestCount(w, 0.005, countShareAtLeast)}
			})
		},
		Check:   CheckSet,
		IndexOp: ">=", IndexLabel: 0, IndexParam: 1,
	},
}

// analyticShapes are sent ad hoc, constants inlined, over Birds ⋈
// Synonyms.
var analyticShapes = []Shape{
	{
		Name: "filter4_no_summaries",
		SQL: "SELECT id FROM Birds r WHERE r.wingspan_cm > ? AND r.weight_g > ?" +
			" AND r.family <> ? AND r.status <> 'LC' WITHOUT SUMMARIES",
		Rows: func(rng *rand.Rand, _ int) [][]any {
			return draw(adhocRows, func() []any {
				return []any{wingspanLo + wingspanN/4 + rng.Intn(wingspanN/2), weightLo + weightN/4 + rng.Intn(weightN/2),
					families[rng.Intn(len(families))]}
			})
		},
		Check: CheckSet,
	},
	{
		// ≈1% of the rows qualify and carry their summaries: the wingspan
		// bound keeps 8–24% of the birds, the weight bound the share of
		// those that makes 1% of all.
		Name: "filter_with_summaries",
		SQL:  "SELECT id, common_name FROM Birds r WHERE r.wingspan_cm > ? AND r.weight_g > ?",
		Rows: func(rng *rand.Rand, _ int) [][]any {
			return draw(adhocRows, func() []any {
				keep := 20 + rng.Intn(41) // wingspan values above the bound
				byWeight := 0.01 * wingspanN / float64(keep)
				return []any{wingspanLo + wingspanN - 1 - keep, weightLo + weightN - 1 - int(byWeight*weightN)}
			})
		},
		Check: CheckSet,
	},
	{
		Name: "groupby_no_summaries",
		SQL: "SELECT family, count(*), max(id) FROM Birds r WHERE r.wingspan_cm > ?" +
			" GROUP BY family WITHOUT SUMMARIES",
		Rows: func(rng *rand.Rand, _ int) [][]any {
			return draw(adhocRows, func() []any { return []any{wingspanLo + rng.Intn(3*wingspanN/4)} })
		},
		Check: CheckSet,
	},
	{
		// The summary merge is bounded to a 500-bird id range: the
		// unbounded form is superlinear today (README, open questions).
		Name: "groupby_merge_500",
		SQL:  "SELECT family, count(*) FROM Birds r WHERE r.id >= ? AND r.id < ? GROUP BY family",
		Rows: func(rng *rand.Rand, birds int) [][]any {
			return draw(adhocRows, func() []any {
				lo := 1
				if birds > mergeRange {
					lo += rng.Intn(birds - mergeRange)
				}
				return []any{lo, lo + mergeRange}
			})
		},
		Check: CheckSet,
	},
	{
		// Figure 14: join + summary predicate (≈1% of the birds) + summary
		// sort. Ties in the sort key leave the row order free, so rows
		// compare as a set.
		Name: "join_summary_sort",
		SQL: "SELECT r.id FROM Birds r, Synonyms s WHERE r.id = s.bird_id" +
			" AND " + classCall + "(?) > ?" +
			" ORDER BY " + classCall + "(?)",
		Rows: func(*rand.Rand, int) [][]any {
			above := func(w float64, c int) float64 { return countShareAtLeast(w, c+1) }
			return perLabel(1, func(label string, w float64) []any {
				return []any{label, nearestCount(w, 0.01, above), label}
			})
		},
		Check:   CheckSet,
		IndexOp: ">", IndexLabel: 0, IndexParam: 1,
	},
}

const mergeRange = 500

// Workloads are the four traffic mixes, in the order BENCHMARK.json
// lists them and says why each exists.
var Workloads = []Workload{
	{
		Name:    "summary_lookup",
		Clients: 2, Shapes: lookupShapes, TracedOps: 2000,
	},
	{
		Name:    "pool_lookup",
		Clients: 2, Shapes: lookupShapes, TracedOps: 2000,
		Target: TargetConfig{PoolFraction: poolFraction, GCPercent: poolGCPercent},
	},
	{
		Name:    "analytic_scan",
		Clients: 1, Adhoc: true, Shapes: analyticShapes, TracedOps: 200,
		Target: TargetConfig{Synonyms: true},
	},
	{
		Name:    "mixed_ingest",
		Clients: 2, WriteShare: 0.2, Shapes: lookupShapes, TracedOps: 2000,
		Target: TargetConfig{Durable: true, CheckpointEveryN: checkpointEveryN},
	},
}

// poolFraction of the pages the dataset occupies is pool_lookup's pool:
// 156 frames at 10,000 birds, half of the 314 pages of Birds rows and
// summary storage the lookup mix reads, so the hot set is twice the
// cache. The issue's 25% holds everything the mix touches (no misses),
// and half of that sits where hot set ≈ pool, where the miss count swings
// by a fifth between seeds (README, open questions).
const poolFraction = 0.05

// poolGCPercent is the GOGC pool_lookup is served with. Behind the pool
// the heap is 30 MB and every missed page allocates into it, so at the
// runtime's default of 100 the collector runs 44 cycles a second and
// keeps the second of the reference machine's 2 cores busy; the run then
// follows whatever else the host gives that core to do: −22% ops/s
// beside a one-thread busy loop, −9% at 400 (README, fixed conditions).
// The resident workloads collect 3 to 5 times a second and keep the
// default.
const poolGCPercent = 400

// checkpointEveryN is sized so that at least 3 checkpoints fall inside
// the measured pass of a traced run (half of the run's seconds) at the
// write rate of the reference machine (README, mixed_ingest).
const checkpointEveryN = 300

// WorkloadByName returns a copy of a workload, which the run
// instantiates with its own constants.
func WorkloadByName(name string) *Workload {
	for i := range Workloads {
		if Workloads[i].Name == name {
			w := Workloads[i]
			w.Shapes = append([]Shape(nil), w.Shapes...)
			return &w
		}
	}
	return nil
}

// Op is one generated request.
type Op struct {
	Write bool
	Shape int // read: index into the workload's shapes
	Const int // read: index into the shape's Params
	Bird  int // write: 1-based bird number
	Text  string
}

// opStream generates one client's ops from the seed: the shapes rotate,
// and everything else — the read's constants, whether the op is a write,
// its bird and its text — is drawn from the client's own generator, so
// a client's sequence does not depend on how fast the others run.
type opStream struct {
	w     *Workload
	rng   *rand.Rand
	birds int
	k     int // reads generated, plus the client's offset in the rotation
	hash  uint64
}

func newOpStream(w *Workload, seed int64, client, birds int) *opStream {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 17))
	return &opStream{w: w, rng: rng, birds: birds, k: client}
}

func (s *opStream) next() Op {
	var op Op
	if s.w.WriteShare > 0 && s.rng.Float64() < s.w.WriteShare {
		op = Op{Write: true, Bird: 1 + s.rng.Intn(s.birds), Text: AnnotationText(s.rng)}
	} else {
		shape := s.k % len(s.w.Shapes)
		op = Op{Shape: shape, Const: s.rng.Intn(len(s.w.Shapes[shape].Params))}
		s.k++
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|%v|%d|%d|%d|%s", s.hash, op.Write, op.Shape, op.Const, op.Bird, op.Text)
	s.hash = h.Sum64()
	return op
}
