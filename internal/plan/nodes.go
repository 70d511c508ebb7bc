// Package plan defines the logical query plan of the extended engine —
// the standard relational operators plus the paper's summary-based
// operators (F, S, J, O) — together with the builder that translates a
// parsed SELECT statement into a canonical (unoptimized) plan and the
// predicate-analysis helpers the optimizer's rewrite rules need. S and
// J are not node kinds of their own: a Select is S, and a Join is J,
// exactly when its predicate reads a $ variable (ReadsSummaries).
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

// Select is a selection: the standard σ, or the summary-based
// selection S of Section 3.2 when its predicate reads summaries.
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

// Describe renders the node, as S when its predicate reads summaries.
func (s *Select) Describe() string {
	if ReadsSummaries(s.Pred) {
		return fmt.Sprintf("SummarySelect S[%s]", s.Pred)
	}
	return fmt.Sprintf("Select σ[%s]", s.Pred)
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

// Join joins two inputs and merges the joined tuples' summary sets on
// output: the standard data join ⋈, or the summary join J of Section
// 3.2 when its predicate reads summaries. J's predicate — summary
// comparisons possibly mixed with data conjuncts — is evaluated over
// both sides' pre-merge summary sets, and J has no hash implementation.
// A hash join whose Right is a GatherNode builds partition-parallel.
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

	schema *model.Schema
}

// NewJoin builds a join, nested-loop until an implementation is chosen.
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

// Describe renders the node, as J when its predicate reads summaries.
func (j *Join) Describe() string {
	if ReadsSummaries(j.On) {
		kind := "SummaryJoin"
		if j.UseIndex {
			kind = "SummaryIndexJoin(" + j.IndexColumn + ")"
		}
		return fmt.Sprintf("%s J[%s]", kind, j.On)
	}
	kind := "NLJoin"
	switch {
	case j.UseIndex:
		kind = "IndexJoin(" + j.IndexColumn + ")"
	case j.UseHash:
		kind = fmt.Sprintf("HashJoin(%s=%s)", j.HashLeft, j.HashRight)
	}
	suffix := ""
	if g, ok := j.Right.(*GatherNode); ok {
		suffix = fmt.Sprintf(" (parallel build workers=%d)", g.DOP)
	}
	if j.On == nil {
		return kind + " ⋈[true]" + suffix
	}
	return fmt.Sprintf("%s ⋈[%s]%s", kind, j.On, suffix)
}

// SortNode orders rows; with summary-based keys it is the O operator.
type SortNode struct {
	Child Node
	Keys  []exec.SortKey
	// SummaryBased marks the O operator.
	SummaryBased bool
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
	if s.Eliminated {
		suffix = " (eliminated: index order)"
	}
	return fmt.Sprintf("%s[%s]%s", name, strings.Join(keys, ","), suffix)
}

// GroupByNode aggregates with summary merge per group. Over a
// GatherNode child it aggregates in parallel: each worker accumulates
// one partition and the partials merge in partition order.
type GroupByNode struct {
	Child Node
	Keys  []sql.Expr
	Aggs  []exec.AggSpec

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
	if c, ok := g.Child.(*GatherNode); ok {
		out += fmt.Sprintf(" (parallel workers=%d)", c.DOP)
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

// GatherNode is the one marker of a parallel plan fragment: the
// subtree below it is compiled once per partition and executed by DOP
// worker goroutines. As a GroupBy's child or a hash join's Right it is
// the list of partitions that breaker folds itself, in partition order;
// anywhere else it is an exchange whose rows are emitted in partition
// order. Either way partition order is the serial order, so parallel
// plans return identical results.
type GatherNode struct {
	Child Node
	DOP   int
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
func (g *GatherNode) Describe() string { return fmt.Sprintf("Gather workers=%d", g.DOP) }

// IsParallel reports whether the plan contains a parallel fragment (a
// GatherNode) — the engine's parallel-plan metric and tests use it.
func IsParallel(n Node) bool {
	if n == nil {
		return false
	}
	if _, ok := n.(*GatherNode); ok {
		return true
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
