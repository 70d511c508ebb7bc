package model

import "strings"

// Tuple is one row of a relation or of an intermediate result, together
// with the summary objects attached to it. In the paper's conceptual
// schema a tuple is r = <a1, ..., an, {s1, ..., sk}>; Values holds the
// data attributes and Summaries holds the attached summary-object set
// (the "$" variable of the manipulation-function interface).
type Tuple struct {
	// OID is the engine-wide unique identifier of the base tuple this row
	// descends from; intermediate results produced by joins carry the OID
	// of their left-most base tuple. Zero means "no identity".
	OID int64

	Values []Value

	// Summaries is the set of summary objects currently attached to this
	// row. It is nil when the query does not propagate summaries.
	Summaries SummarySet
}

// NewTuple builds a tuple over the given values.
func NewTuple(oid int64, values ...Value) *Tuple {
	return &Tuple{OID: oid, Values: values}
}

// Clone returns a deep copy of t. Operators that mutate a tuple in place
// (projection, merge) must clone first so that shared inputs stay intact.
func (t *Tuple) Clone() *Tuple {
	out := &Tuple{OID: t.OID, Values: append([]Value(nil), t.Values...)}
	out.Summaries = t.Summaries.Clone()
	return out
}

// String renders the data values separated by "|"; summaries are not
// included (see SummarySet.String).
func (t *Tuple) String() string {
	parts := make([]string, len(t.Values))
	for i, v := range t.Values {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}
