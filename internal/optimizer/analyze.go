package optimizer

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
)

// AnalyzedNode pairs one logical plan node with the cost model's
// estimate and — when the node compiled to an executed operator — the
// runtime stats its recorder accumulated. Stats is nil for nodes the
// compiler collapsed (an eliminated sort's child stands in for it) or
// never drove (an index join's inner side is probed, not iterated).
type AnalyzedNode struct {
	Node     plan.Node
	Est      Estimate
	Stats    *exec.OpStats
	Children []*AnalyzedNode
}

// Annotate walks the optimized plan, attaching estimates from the cost
// model and actuals from the collector (which may be nil for a plain
// estimate-only annotation).
func Annotate(root plan.Node, r *plan.AliasResolver, env *Env, opts Options) *AnalyzedNode {
	rw := &rewriter{env: env, opts: opts, resolver: r}
	var walk func(n plan.Node, need bool) *AnalyzedNode
	walk = func(n plan.Node, need bool) *AnalyzedNode {
		an := &AnalyzedNode{Node: n, Est: rw.estimateAt(n, need), Stats: opts.Collector.Stats(n)}
		for _, c := range n.Children() {
			an.Children = append(an.Children, walk(c, childNeed(n, need)))
		}
		return an
	}
	return walk(root, env.Propagate)
}

// SelfIO is the node's I/O delta minus its children's — the pages this
// operator itself touched. Children with nil stats contribute nothing
// (their traffic is indistinguishable from the parent's).
func (a *AnalyzedNode) SelfIO() (reads, writes int64) {
	if a.Stats == nil {
		return 0, 0
	}
	reads, writes = a.Stats.IO.PageReads, a.Stats.IO.PageWrites
	for _, c := range a.Children {
		if c.Stats != nil {
			reads -= c.Stats.IO.PageReads
			writes -= c.Stats.IO.PageWrites
		}
	}
	return reads, writes
}

// Walk visits the annotated tree depth-first, parents before children.
func (a *AnalyzedNode) Walk(visit func(*AnalyzedNode)) {
	visit(a)
	for _, c := range a.Children {
		c.Walk(visit)
	}
}

// String renders the annotated plan: the EXPLAIN tree with each node's
// estimated rows/cost and, when executed, its actual rows, Next calls,
// wall time, page/node I/O, and buffering/spill charges.
func (a *AnalyzedNode) String() string {
	var b strings.Builder
	var walk func(n *AnalyzedNode, depth int)
	walk = func(n *AnalyzedNode, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Node.Describe())
		fmt.Fprintf(&b, "  (est rows=%.0f cost=%.1f)", n.Est.Rows, n.Est.Cost)
		switch {
		case n.Stats == nil:
			b.WriteString(" (not executed)")
		default:
			sr, sw := n.SelfIO()
			fmt.Fprintf(&b, " (actual rows=%d nexts=%d time=%s io self=%d+%d total=%d+%d",
				n.Stats.Rows, n.Stats.NextCalls, n.Stats.Wall().Round(time.Microsecond),
				sr, sw, n.Stats.IO.PageReads, n.Stats.IO.PageWrites)
			if nodes := n.Stats.IO.NodeAccesses(); nodes > 0 {
				fmt.Fprintf(&b, " nodes=%d", nodes)
			}
			// Buffer-pool traffic renders only when a pool produced some,
			// keeping pool-off output identical to the pre-pool engine.
			if n.Stats.IO.CacheAccesses() > 0 {
				fmt.Fprintf(&b, " buffers hit=%d miss=%d phys=%d+%d",
					n.Stats.IO.CacheHits, n.Stats.IO.CacheMisses,
					n.Stats.IO.PhysReads, n.Stats.IO.PhysWrites)
			}
			// Fetch-stage counters exist only on index scans (FetchMode
			// empty elsewhere), so non-index plans render unchanged.
			if n.Stats.FetchMode != "" {
				fmt.Fprintf(&b, " fetch=%s pinned=%d distinct=%d",
					n.Stats.FetchMode, n.Stats.PagesPinned, n.Stats.DistinctPages)
			}
			if n.Stats.SpillBytes > 0 {
				fmt.Fprintf(&b, " spill=%dB", n.Stats.SpillBytes)
			}
			if n.Stats.BufferedRows > 0 {
				fmt.Fprintf(&b, " buffered=%d rows/%dB", n.Stats.BufferedRows, n.Stats.BufferedBytes)
			}
			b.WriteString(")")
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(a, 0)
	return b.String()
}
