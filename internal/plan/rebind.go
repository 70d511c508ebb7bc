package plan

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/index"
)

// RebindEnv resolves catalog objects by name in the caller's current
// MVCC epoch. Rebind uses it to re-anchor a cached plan skeleton.
type RebindEnv struct {
	Table         func(name string) (*catalog.Table, error)
	SummaryIndex  func(table, instance string) *index.SummaryBTree
	BaselineIndex func(table, instance string) *index.Baseline
}

// Rebind deep-copies a plan tree, re-resolving every epoch-stamped
// pointer (base tables, Summary-BTrees, baseline indexes) by name
// through env. Plan nodes embed the *catalog.Table and index shells of
// the epoch they were optimized under; executing such a node in a later
// epoch would read a stale snapshot. Rebinding is only sound when the
// catalog shape is unchanged — the plan cache guarantees that by keying
// entries on the catalog version — so schemas and structural fields are
// carried over as-is and only the storage pointers are refreshed. The
// input tree is never modified: a leaf is copied and re-pointed here,
// every other node is WithChildren over its rebound children — so the
// output shares no node with the input and one cached skeleton can be
// rebound by any number of concurrent executions. Shared expression
// trees are read-only to the planner and executor and are reused
// directly.
//
// A resolution failure (table or index gone despite a matching catalog
// version) returns an error; callers fall back to a full re-plan.
func Rebind(n Node, env RebindEnv) (Node, error) {
	if n == nil {
		return nil, nil
	}
	switch v := n.(type) {
	case *Scan:
		t, err := env.Table(v.Table.Name)
		if err != nil {
			return nil, fmt.Errorf("plan: rebind scan: %w", err)
		}
		cp := *v
		cp.Table = t
		return &cp, nil

	case *SummaryIndexScanNode:
		t, err := env.Table(v.Table.Name)
		if err != nil {
			return nil, fmt.Errorf("plan: rebind summary-index scan: %w", err)
		}
		if env.SummaryIndex == nil {
			return nil, fmt.Errorf("plan: rebind summary-index scan: no index resolver")
		}
		idx := env.SummaryIndex(v.Table.Name, v.Instance)
		if idx == nil {
			return nil, fmt.Errorf("plan: rebind summary-index scan: index %s.%s gone",
				v.Table.Name, v.Instance)
		}
		cp := *v
		cp.Table = t
		cp.Index = idx
		return &cp, nil

	case *BaselineIndexScanNode:
		t, err := env.Table(v.Table.Name)
		if err != nil {
			return nil, fmt.Errorf("plan: rebind baseline scan: %w", err)
		}
		if env.BaselineIndex == nil {
			return nil, fmt.Errorf("plan: rebind baseline scan: no index resolver")
		}
		idx := env.BaselineIndex(v.Table.Name, v.Instance)
		if idx == nil {
			return nil, fmt.Errorf("plan: rebind baseline scan: index %s.%s gone",
				v.Table.Name, v.Instance)
		}
		cp := *v
		cp.Table = t
		cp.Index = idx
		return &cp, nil

	}
	kids := n.Children()
	if len(kids) == 0 {
		// A leaf holds epoch-stamped pointers; copying one this switch
		// does not know would keep a stale snapshot alive.
		return nil, fmt.Errorf("plan: rebind: unknown leaf %T", n)
	}
	for i, c := range kids {
		re, err := Rebind(c, env)
		if err != nil {
			return nil, err
		}
		kids[i] = re
	}
	return n.WithChildren(kids), nil
}
