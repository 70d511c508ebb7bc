package catalog

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/cell"
	"repro/internal/model"
)

// SummaryInstance is the catalog entry for one summary instance linked
// to a relation (Section 2.1): a customization of one of the three
// summarization families. Instances are created by DB admins and drive
// the summarization pipeline.
type SummaryInstance struct {
	Name string
	Type model.SummaryType

	// Labels is the ordered class-label vocabulary (classifier only).
	// The order is fixed at creation and defines getLabelName(i).
	Labels []string

	// Parents optionally arranges classifier labels into a hierarchy
	// (child -> parent), the paper's multi-level summarization future
	// work. The classifier assigns annotations to LEAF labels; every
	// ancestor label's representative accumulates the union of its
	// descendants' elements, so parent counts stay exact under merge and
	// projection, parent labels are indexable like any other, and
	// zooming on a parent label drills into the combined subtree.
	Parents map[string]string

	// SnippetMinChars / SnippetMaxChars configure snippet instances: only
	// annotations longer than SnippetMinChars are summarized, into at
	// most SnippetMaxChars (paper defaults: 1000 / 400).
	SnippetMinChars int
	SnippetMaxChars int

	// ClusterMaxGroups bounds the micro-cluster count (cluster only).
	ClusterMaxGroups int
}

// AppendInstance appends si in the cell encoding, its label hierarchy in
// child order.
func AppendInstance(dst []byte, si *SummaryInstance) []byte {
	dst = cell.AppendStrings(append(cell.AppendString(dst, si.Name), byte(si.Type)), si.Labels)
	children := make([]string, 0, len(si.Parents))
	for c := range si.Parents {
		children = append(children, c)
	}
	sort.Strings(children)
	dst = binary.AppendUvarint(dst, uint64(len(children)))
	for _, c := range children {
		dst = cell.AppendString(cell.AppendString(dst, c), si.Parents[c])
	}
	for _, n := range []int{si.SnippetMinChars, si.SnippetMaxChars, si.ClusterMaxGroups} {
		dst = binary.AppendVarint(dst, int64(n))
	}
	return dst
}

// ReadInstance reads an instance written by AppendInstance; a hierarchy
// out of child order is malformed.
func ReadInstance(r *cell.Reader) SummaryInstance {
	si := SummaryInstance{Name: r.Text(), Type: model.SummaryType(r.Byte()), Labels: r.Texts()}
	for i, n, prev := 0, r.Len(), ""; i < n; i++ {
		c, p := r.Text(), r.Text()
		if i == 0 {
			si.Parents = make(map[string]string, n)
		} else if c <= prev {
			r.Fail("label hierarchy out of child order")
		}
		prev, si.Parents[c] = c, p
	}
	si.SnippetMinChars, si.SnippetMaxChars, si.ClusterMaxGroups = int(r.Varint()), int(r.Varint()), int(r.Varint())
	return si
}

// Validate checks the instance definition for internal consistency.
func (si *SummaryInstance) Validate() error {
	if si.Name == "" {
		return fmt.Errorf("catalog: summary instance needs a name")
	}
	switch si.Type {
	case model.SummaryClassifier:
		if len(si.Labels) == 0 {
			return fmt.Errorf("catalog: classifier instance %q needs labels", si.Name)
		}
		seen := map[string]bool{}
		for _, l := range si.Labels {
			if seen[l] {
				return fmt.Errorf("catalog: classifier instance %q has duplicate label %q", si.Name, l)
			}
			seen[l] = true
		}
		for child, parent := range si.Parents {
			if !seen[child] || !seen[parent] {
				return fmt.Errorf("catalog: instance %q hierarchy references unknown label (%s -> %s)",
					si.Name, child, parent)
			}
		}
		// Reject cycles: following parents from any label must terminate.
		for l := range si.Parents {
			steps := 0
			for cur := l; cur != ""; cur = si.Parents[cur] {
				steps++
				if steps > len(si.Labels) {
					return fmt.Errorf("catalog: instance %q has a label-hierarchy cycle at %q", si.Name, l)
				}
			}
		}
	case model.SummarySnippet:
		if si.SnippetMaxChars <= 0 {
			si.SnippetMaxChars = 400
		}
		if si.SnippetMinChars < 0 {
			return fmt.Errorf("catalog: snippet instance %q has negative MinChars", si.Name)
		}
	case model.SummaryCluster:
		if si.ClusterMaxGroups <= 0 {
			si.ClusterMaxGroups = 8
		}
	default:
		return fmt.Errorf("catalog: instance %q has unknown type %d", si.Name, si.Type)
	}
	return nil
}

// LeafLabels returns the labels with no children (classification
// targets in a hierarchical instance; all labels when flat).
func (si *SummaryInstance) LeafLabels() []string {
	hasChild := map[string]bool{}
	for _, parent := range si.Parents {
		hasChild[parent] = true
	}
	var out []string
	for _, l := range si.Labels {
		if !hasChild[l] {
			out = append(out, l)
		}
	}
	return out
}

// Ancestors returns the chain of ancestors of a label, nearest first.
func (si *SummaryInstance) Ancestors(label string) []string {
	var out []string
	for cur := si.Parents[label]; cur != ""; cur = si.Parents[cur] {
		out = append(out, cur)
		if len(out) > len(si.Labels) {
			break // defensive against unvalidated cycles
		}
	}
	return out
}
