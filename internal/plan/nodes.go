// Package plan defines the logical query plan of the extended engine —
// the standard relational operators plus the paper's summary-based
// operators (F, S, J, O) — together with the builder that translates a
// parsed SELECT statement into a canonical (unoptimized) plan and the
// predicate-analysis helpers the optimizer's rewrite rules need.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/sql"
)

// Node is a logical plan operator.
type Node interface {
	Schema() *model.Schema
	Children() []Node
	// WithChildren returns a shallow copy of the node over the given
	// children — as many, in the same order, as Children returns — and
	// leaves the receiver untouched. It is the one way a plan pass
	// replaces a node's inputs (see MapChildren, Rebind).
	WithChildren(children []Node) Node
	// Describe renders the node (without children) for EXPLAIN output.
	Describe() string
}

// MapChildren returns n over fn applied to each of its children — a
// copy, never n modified; a leaf is returned as it is.
func MapChildren(n Node, fn func(Node) Node) Node {
	kids := n.Children()
	if len(kids) == 0 {
		return n
	}
	for i, c := range kids {
		kids[i] = fn(c)
	}
	return n.WithChildren(kids)
}

// StreamingChild returns the input of a streaming, row-preserving unary
// node: σ, S, F and an eliminated sort emit a subsequence of their
// input's rows in the input's order, one at a time, so a rule that
// holds for the input's row stream holds for theirs. ok is false for
// every other node.
func StreamingChild(n Node) (child Node, ok bool) {
	switch v := n.(type) {
	case *Select:
		return v.Child, true
	case *SummarySelect:
		return v.Child, true
	case *SummaryFilterNode:
		return v.Child, true
	case *SortNode:
		return v.Child, v.Eliminated
	}
	return nil, false
}

// Scan reads a base table.
type Scan struct {
	Table *catalog.Table
	Alias string

	schema *model.Schema
}

// NewScan builds a scan node.
func NewScan(t *catalog.Table, alias string) *Scan {
	if alias == "" {
		alias = t.Name
	}
	return &Scan{Table: t, Alias: alias, schema: t.Schema.Rename(alias)}
}

// Schema returns the aliased table schema.
func (s *Scan) Schema() *model.Schema { return s.schema }

// Children returns no children.
func (s *Scan) Children() []Node { return nil }

// WithChildren returns a copy (a leaf has no children to replace).
func (s *Scan) WithChildren([]Node) Node {
	cp := *s
	return &cp
}

// Describe renders the node.
func (s *Scan) Describe() string {
	return fmt.Sprintf("SeqScan %s AS %s", s.Table.Name, s.Alias)
}

// SummaryIndexScanNode is an access path replacing a Scan: a
// Summary-BTree probe for "label <op> const" on one classifier instance.
type SummaryIndexScanNode struct {
	Table    *catalog.Table
	Alias    string
	Index    *index.SummaryBTree
	Instance string
	Label    string
	Op       index.CmpOp
	Constant int
	// Ordered marks that downstream operators rely on the index's
	// count order (sort elimination, rules 3–6).
	Ordered    bool
	Descending bool
	// FetchSorted selects the page-ordered (bitmap-style) heap fetch:
	// the hit list is sorted by RID so each data page is pinned once,
	// giving up the index's count order. False preserves count order
	// with per-RID fetches — required when Ordered, or chosen when the
	// cost model prices the random-I/O penalty below the compensating
	// Sort it would otherwise keep (see optimizer fetch-path decision).
	FetchSorted bool

	schema *model.Schema
}

// NewSummaryIndexScanNode builds the node; the fetch mode defaults to
// the page-ordered sorted fetch (the optimizer's order decision flips
// it when the count order is worth preserving).
func NewSummaryIndexScanNode(t *catalog.Table, alias string, idx *index.SummaryBTree,
	instance, label string, op index.CmpOp, constant int) *SummaryIndexScanNode {
	if alias == "" {
		alias = t.Name
	}
	return &SummaryIndexScanNode{Table: t, Alias: alias, Index: idx, Instance: instance,
		Label: label, Op: op, Constant: constant, FetchSorted: true,
		schema: t.Schema.Rename(alias)}
}

// Schema returns the aliased table schema.
func (s *SummaryIndexScanNode) Schema() *model.Schema { return s.schema }

// Children returns no children.
func (s *SummaryIndexScanNode) Children() []Node { return nil }

// WithChildren returns a copy (a leaf has no children to replace).
func (s *SummaryIndexScanNode) WithChildren([]Node) Node {
	cp := *s
	return &cp
}

// Describe renders the node.
func (s *SummaryIndexScanNode) Describe() string {
	ord := ""
	if s.Ordered {
		ord = " (ordered)"
	}
	fetch := " fetch=sorted"
	if !s.FetchSorted {
		fetch = " fetch=ordered"
	}
	return fmt.Sprintf("SummaryBTreeScan %s AS %s ON %s.%s %s %d%s%s",
		s.Table.Name, s.Alias, s.Instance, s.Label, s.Op, s.Constant, ord, fetch)
}

// BaselineIndexScanNode is the baseline-scheme access path.
type BaselineIndexScanNode struct {
	Table    *catalog.Table
	Alias    string
	Index    *index.Baseline
	Instance string
	Label    string
	Op       index.CmpOp
	Constant int
	// Reconstruct propagates summaries rebuilt from the normalized rows
	// (Figure 12) instead of reading the de-normalized storage.
	Reconstruct bool

	schema *model.Schema
}

// NewBaselineIndexScanNode builds the node.
func NewBaselineIndexScanNode(t *catalog.Table, alias string, idx *index.Baseline,
	instance, label string, op index.CmpOp, constant int) *BaselineIndexScanNode {
	if alias == "" {
		alias = t.Name
	}
	return &BaselineIndexScanNode{Table: t, Alias: alias, Index: idx, Instance: instance,
		Label: label, Op: op, Constant: constant, schema: t.Schema.Rename(alias)}
}

// Schema returns the aliased table schema.
func (s *BaselineIndexScanNode) Schema() *model.Schema { return s.schema }

// Children returns no children.
func (s *BaselineIndexScanNode) Children() []Node { return nil }

// WithChildren returns a copy (a leaf has no children to replace).
func (s *BaselineIndexScanNode) WithChildren([]Node) Node {
	cp := *s
	return &cp
}

// Describe renders the node.
func (s *BaselineIndexScanNode) Describe() string {
	return fmt.Sprintf("BaselineIndexScan %s AS %s ON %s.%s %s %d",
		s.Table.Name, s.Alias, s.Instance, s.Label, s.Op, s.Constant)
}

// SummaryProject eliminates the effects of annotations attached only to
// unused columns, directly above an access path (Theorems 1–2 of [22]).
type SummaryProject struct {
	Child Node
	Alias string
	// Kept lists the referenced columns of this alias (lower-case).
	Kept []string
}

// Schema returns the child schema.
func (p *SummaryProject) Schema() *model.Schema { return p.Child.Schema() }

// Children returns the child.
func (p *SummaryProject) Children() []Node { return []Node{p.Child} }

// WithChildren returns a copy over the given child.
func (p *SummaryProject) WithChildren(c []Node) Node {
	cp := *p
	cp.Child = c[0]
	return &cp
}

// Describe renders the node.
func (p *SummaryProject) Describe() string {
	return fmt.Sprintf("SummaryProject %s keep(%s)", p.Alias, strings.Join(p.Kept, ","))
}

// Select is the standard data-based selection σ.
type Select struct {
	Child Node
	Pred  sql.Expr
}

// Schema returns the child schema.
func (s *Select) Schema() *model.Schema { return s.Child.Schema() }

// Children returns the child.
func (s *Select) Children() []Node { return []Node{s.Child} }

// WithChildren returns a copy over the given child.
func (s *Select) WithChildren(c []Node) Node {
	cp := *s
	cp.Child = c[0]
	return &cp
}

// Describe renders the node.
func (s *Select) Describe() string {
	return fmt.Sprintf("Select σ[%s]", s.Pred)
}

// SummarySelect is the summary-based selection S of Section 3.2.
type SummarySelect struct {
	Child Node
	Pred  sql.Expr
	// Instances are the summary instances the predicate references —
	// the precondition data for rules 2 and 10.
	Instances []string
}

// Schema returns the child schema.
func (s *SummarySelect) Schema() *model.Schema { return s.Child.Schema() }

// Children returns the child.
func (s *SummarySelect) Children() []Node { return []Node{s.Child} }

// WithChildren returns a copy over the given child.
func (s *SummarySelect) WithChildren(c []Node) Node {
	cp := *s
	cp.Child = c[0]
	return &cp
}

// Describe renders the node.
func (s *SummarySelect) Describe() string {
	return fmt.Sprintf("SummarySelect S[%s]", s.Pred)
}

// SummaryFilterNode is the F operator: tuples pass, summary objects are
// filtered structurally.
type SummaryFilterNode struct {
	Child     Node
	Instances []string
	Types     []model.SummaryType
}

// Schema returns the child schema.
func (f *SummaryFilterNode) Schema() *model.Schema { return f.Child.Schema() }

// Children returns the child.
func (f *SummaryFilterNode) Children() []Node { return []Node{f.Child} }

// WithChildren returns a copy over the given child.
func (f *SummaryFilterNode) WithChildren(c []Node) Node {
	cp := *f
	cp.Child = c[0]
	return &cp
}

// Describe renders the node.
func (f *SummaryFilterNode) Describe() string {
	parts := append([]string{}, f.Instances...)
	for _, t := range f.Types {
		parts = append(parts, "type:"+t.String())
	}
	return fmt.Sprintf("SummaryFilter F[%s]", strings.Join(parts, ","))
}

// Join is the standard data join ⋈ (with summary merge on output).
type Join struct {
	Left, Right Node
	On          sql.Expr
	// UseIndex selects an index-based join: probe the right side's data
	// index on IndexColumn with OuterKey per left row.
	UseIndex    bool
	IndexColumn string
	OuterKey    sql.Expr
	// UseHash selects a hash join on (HashLeft = HashRight) — an
	// implementation choice beyond the paper's two (its stated future
	// work).
	UseHash   bool
	HashLeft  sql.Expr
	HashRight sql.Expr
	// Residual holds the remaining predicate under UseIndex/UseHash.
	Residual sql.Expr
	// BuildDOP parallelizes the hash-join build side across that many
	// partition workers (0 or 1 = serial; requires UseHash and a
	// partitionable right child).
	BuildDOP int

	schema *model.Schema
}

// NewJoin builds a data join.
func NewJoin(left, right Node, on sql.Expr) *Join {
	return &Join{Left: left, Right: right, On: on,
		schema: left.Schema().Concat(right.Schema())}
}

// Schema returns the concatenated schema.
func (j *Join) Schema() *model.Schema { return j.schema }

// Children returns both inputs.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// WithChildren returns a copy over the given inputs.
func (j *Join) WithChildren(c []Node) Node {
	cp := *j
	cp.Left, cp.Right = c[0], c[1]
	return &cp
}

// Describe renders the node.
func (j *Join) Describe() string {
	kind := "NLJoin"
	switch {
	case j.UseIndex:
		kind = "IndexJoin(" + j.IndexColumn + ")"
	case j.UseHash:
		kind = fmt.Sprintf("HashJoin(%s=%s)", j.HashLeft, j.HashRight)
	}
	suffix := ""
	if j.BuildDOP > 1 {
		suffix = fmt.Sprintf(" (parallel build workers=%d)", j.BuildDOP)
	}
	if j.On == nil {
		return kind + " ⋈[true]" + suffix
	}
	return fmt.Sprintf("%s ⋈[%s]%s", kind, j.On, suffix)
}

// SummaryJoin is the J operator: tuples join on summary-based
// predicates (possibly mixed with data predicates), evaluated over both
// sides' pre-merge summary sets.
type SummaryJoin struct {
	Left, Right Node
	Pred        sql.Expr
	Instances   []string
	// UseIndex probes the right side's data index on IndexColumn for a
	// data equi-conjunct of Pred; Residual (including the summary
	// predicates) is evaluated pre-merge on each probe match.
	UseIndex    bool
	IndexColumn string
	OuterKey    sql.Expr
	Residual    sql.Expr

	schema *model.Schema
}

// NewSummaryJoin builds a J node.
func NewSummaryJoin(left, right Node, pred sql.Expr, instances []string) *SummaryJoin {
	return &SummaryJoin{Left: left, Right: right, Pred: pred, Instances: instances,
		schema: left.Schema().Concat(right.Schema())}
}

// Schema returns the concatenated schema.
func (j *SummaryJoin) Schema() *model.Schema { return j.schema }

// Children returns both inputs.
func (j *SummaryJoin) Children() []Node { return []Node{j.Left, j.Right} }

// WithChildren returns a copy over the given inputs.
func (j *SummaryJoin) WithChildren(c []Node) Node {
	cp := *j
	cp.Left, cp.Right = c[0], c[1]
	return &cp
}

// Describe renders the node.
func (j *SummaryJoin) Describe() string {
	kind := "SummaryJoin"
	if j.UseIndex {
		kind = "SummaryIndexJoin(" + j.IndexColumn + ")"
	}
	return fmt.Sprintf("%s J[%s]", kind, j.Pred)
}

// SortNode orders rows; with summary-based keys it is the O operator.
type SortNode struct {
	Child Node
	Keys  []exec.SortKey
	// SummaryBased marks the O operator.
	SummaryBased bool
	// Disk forces the external (disk-based) sort implementation.
	Disk bool
	// Eliminated marks a sort the optimizer removed because an index
	// provides the interesting order; it compiles to a no-op but stays
	// in EXPLAIN as documentation.
	Eliminated bool
}

// Schema returns the child schema.
func (s *SortNode) Schema() *model.Schema { return s.Child.Schema() }

// Children returns the child.
func (s *SortNode) Children() []Node { return []Node{s.Child} }

// WithChildren returns a copy over the given child.
func (s *SortNode) WithChildren(c []Node) Node {
	cp := *s
	cp.Child = c[0]
	return &cp
}

// Describe renders the node.
func (s *SortNode) Describe() string {
	name := "Sort"
	if s.SummaryBased {
		name = "SummarySort O"
	}
	keys := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		keys[i] = k.Expr.String()
		if k.Desc {
			keys[i] += " DESC"
		}
	}
	suffix := ""
	if s.Disk {
		suffix = " (disk)"
	}
	if s.Eliminated {
		suffix += " (eliminated: index order)"
	}
	return fmt.Sprintf("%s[%s]%s", name, strings.Join(keys, ","), suffix)
}

// GroupByNode aggregates with summary merge per group. With DOP > 1 its
// child must be a partial GatherNode: each worker accumulates one
// partition and the final aggregation merges the partials in partition
// order.
type GroupByNode struct {
	Child Node
	Keys  []sql.Expr
	Aggs  []exec.AggSpec
	// DOP is the degree of parallelism of the partial-aggregation phase
	// (0 or 1 = serial).
	DOP int

	schema *model.Schema
}

// Schema returns the aggregation output schema (computed at compile).
func (g *GroupByNode) Schema() *model.Schema { return g.schema }

// Children returns the child.
func (g *GroupByNode) Children() []Node { return []Node{g.Child} }

// WithChildren returns a copy over the given child.
func (g *GroupByNode) WithChildren(c []Node) Node {
	cp := *g
	cp.Child = c[0]
	return &cp
}

// Describe renders the node.
func (g *GroupByNode) Describe() string {
	keys := make([]string, len(g.Keys))
	for i, k := range g.Keys {
		keys[i] = k.String()
	}
	out := fmt.Sprintf("GroupBy[%s] aggs=%d", strings.Join(keys, ","), len(g.Aggs))
	if g.DOP > 1 {
		out += fmt.Sprintf(" (parallel workers=%d)", g.DOP)
	}
	return out
}

// ProjectNode computes the final projection.
type ProjectNode struct {
	Child Node
	Exprs []sql.Expr
	Out   *model.Schema
}

// Schema returns the projection schema.
func (p *ProjectNode) Schema() *model.Schema { return p.Out }

// Children returns the child.
func (p *ProjectNode) Children() []Node { return []Node{p.Child} }

// WithChildren returns a copy over the given child.
func (p *ProjectNode) WithChildren(c []Node) Node {
	cp := *p
	cp.Child = c[0]
	return &cp
}

// Describe renders the node.
func (p *ProjectNode) Describe() string {
	exprs := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		exprs[i] = e.String()
	}
	return fmt.Sprintf("Project π[%s]", strings.Join(exprs, ","))
}

// DistinctNode eliminates duplicate rows, merging collapsed duplicates'
// summary sets (summary-aware duplicate elimination).
type DistinctNode struct {
	Child Node
}

// Schema returns the child schema.
func (d *DistinctNode) Schema() *model.Schema { return d.Child.Schema() }

// Children returns the child.
func (d *DistinctNode) Children() []Node { return []Node{d.Child} }

// WithChildren returns a copy over the given child.
func (d *DistinctNode) WithChildren(c []Node) Node {
	cp := *d
	cp.Child = c[0]
	return &cp
}

// Describe renders the node.
func (d *DistinctNode) Describe() string { return "Distinct" }

// LimitNode caps the row count.
type LimitNode struct {
	Child Node
	N     int
}

// Schema returns the child schema.
func (l *LimitNode) Schema() *model.Schema { return l.Child.Schema() }

// Children returns the child.
func (l *LimitNode) Children() []Node { return []Node{l.Child} }

// WithChildren returns a copy over the given child.
func (l *LimitNode) WithChildren(c []Node) Node {
	cp := *l
	cp.Child = c[0]
	return &cp
}

// Describe renders the node.
func (l *LimitNode) Describe() string {
	return fmt.Sprintf("Limit %d", l.N)
}

// GatherNode is the exchange boundary of a parallel plan fragment: the
// subtree below it is compiled once per partition and executed by DOP
// worker goroutines, whose rows are emitted in partition order (equal
// to the serial scan order, so parallel plans return identical
// results). With Partial set the gather feeds a parallel GroupBy and
// the workers run the partial-aggregation phase instead of streaming
// rows.
type GatherNode struct {
	Child Node
	DOP   int
	// Partial marks a gather consumed by a parallel final aggregation
	// (the workers fold their partition into per-group partial states).
	Partial bool
}

// Schema returns the child schema.
func (g *GatherNode) Schema() *model.Schema { return g.Child.Schema() }

// Children returns the child.
func (g *GatherNode) Children() []Node { return []Node{g.Child} }

// WithChildren returns a copy over the given child.
func (g *GatherNode) WithChildren(c []Node) Node {
	cp := *g
	cp.Child = c[0]
	return &cp
}

// Describe renders the node.
func (g *GatherNode) Describe() string {
	out := fmt.Sprintf("Gather workers=%d", g.DOP)
	if g.Partial {
		out += " (partial aggregation)"
	}
	return out
}

// IsParallel reports whether the plan contains a parallel fragment
// (any GatherNode or parallel build) — the engine's parallel-plan
// metric and tests use it.
func IsParallel(n Node) bool {
	if n == nil {
		return false
	}
	switch v := n.(type) {
	case *GatherNode:
		return true
	case *Join:
		if v.BuildDOP > 1 {
			return true
		}
	}
	for _, c := range n.Children() {
		if IsParallel(c) {
			return true
		}
	}
	return false
}

// Explain renders the plan tree, one node per line, children indented.
func Explain(n Node) string {
	var b strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Describe())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}
