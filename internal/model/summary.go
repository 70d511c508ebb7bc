package model

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// SummaryType enumerates the three summarization families supported by
// InsightNotes: clustering, classification, and text summarization.
type SummaryType uint8

// The supported summary-object types.
const (
	SummaryCluster SummaryType = iota
	SummaryClassifier
	SummarySnippet
)

// String returns the paper's name for the type.
func (t SummaryType) String() string {
	switch t {
	case SummaryCluster:
		return "Cluster"
	case SummaryClassifier:
		return "Classifier"
	case SummarySnippet:
		return "Snippet"
	default:
		return fmt.Sprintf("SummaryType(%d)", uint8(t))
	}
}

// Rep is one representative inside a summary object — one entry of the
// paper's Rep[] array, together with its Elements[][] row (the IDs of the
// contributing raw annotations). Which fields are meaningful depends on
// the owning object's type:
//
//	Classifier: Label + Count            (Text classLabel, Number annotationCnt)
//	Snippet:    Text                     (Text snippetValue)
//	Cluster:    Text + Count + RepAnnID  (Text annotation, Number groupSize)
type Rep struct {
	// Label is the classifier class label.
	Label string
	// Count is the classifier's annotationCnt or the cluster's groupSize.
	Count int
	// Text is the snippet value, or the cluster group's representative
	// annotation text.
	Text string
	// RepAnnID identifies the annotation serving as a cluster group's
	// representative (or a snippet's source annotation), enabling
	// representative re-election and zoom-in.
	RepAnnID int64
	// Elements lists the contributing raw-annotation IDs, kept sorted.
	Elements []int64
}

// CloneRep returns a deep copy of r.
func (r Rep) CloneRep() Rep {
	r.Elements = append([]int64(nil), r.Elements...)
	return r
}

// HasElement reports whether annotation id contributed to this
// representative. Elements is kept sorted, so this is a binary search.
func (r Rep) HasElement(id int64) bool {
	i := sort.Search(len(r.Elements), func(i int) bool { return r.Elements[i] >= id })
	return i < len(r.Elements) && r.Elements[i] == id
}

// SummaryObject is the paper's five-ary vector
// {ObjID, InstanceID, TupleID, Rep[], Elements[][]}. Elements is folded
// into each Rep. Objects flowing through the query pipeline are treated
// as immutable: operators clone before mutating.
type SummaryObject struct {
	ObjID      int64
	InstanceID string
	TupleOID   int64
	Type       SummaryType
	Reps       []Rep
}

// Clone returns a deep copy of o.
func (o *SummaryObject) Clone() *SummaryObject {
	out := &SummaryObject{
		ObjID:      o.ObjID,
		InstanceID: o.InstanceID,
		TupleOID:   o.TupleOID,
		Type:       o.Type,
		Reps:       make([]Rep, len(o.Reps)),
	}
	for i, r := range o.Reps {
		out.Reps[i] = r.CloneRep()
	}
	return out
}

// Size returns the number of representatives, the getSize() manipulation
// function of Section 3.1.
func (o *SummaryObject) Size() int { return len(o.Reps) }

// TotalCount returns the sum of the representatives' counts: the total
// number of (distinct) annotations folded into a classifier, or the total
// population of a cluster object. For snippets it returns the number of
// snippets.
func (o *SummaryObject) TotalCount() int {
	if o.Type == SummarySnippet {
		return len(o.Reps)
	}
	total := 0
	for _, r := range o.Reps {
		total += r.Count
	}
	return total
}

// ElementIDs returns the sorted set of all annotation IDs contributing to
// any representative of o.
func (o *SummaryObject) ElementIDs() []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for _, r := range o.Reps {
		for _, id := range r.Elements {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RepIndexByLabel returns the position of the representative with the
// given classifier label, or -1.
func (o *SummaryObject) RepIndexByLabel(label string) int {
	for i, r := range o.Reps {
		if strings.EqualFold(r.Label, label) {
			return i
		}
	}
	return -1
}

// String renders a deterministic, paper-figure-like form, e.g.
// "ClassBird1[(Behavior,33),(Disease,8)]": a classifier rep as
// (label,count), a cluster rep as (quoted text,count), a snippet rep as
// (quoted text), texts quoted as strconv.Quote does. The form is built
// by appending into one buffer sized for it up front.
func (o *SummaryObject) String() string {
	size := len(o.InstanceID) + 2
	for _, r := range o.Reps {
		size += len(r.Label) + min(len(r.Text), 20) + 28
	}
	return string(o.AppendText(make([]byte, 0, size)))
}

// AppendText appends o's String form to b.
func (o *SummaryObject) AppendText(b []byte) []byte {
	b = append(b, o.InstanceID...)
	b = append(b, '[')
	for i, r := range o.Reps {
		if i > 0 {
			b = append(b, ',')
		}
		switch o.Type {
		case SummaryClassifier:
			b = append(b, '(')
			b = append(b, r.Label...)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(r.Count), 10)
			b = append(b, ')')
		case SummaryCluster:
			b = append(b, '(')
			b = appendRepText(b, r.Text)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(r.Count), 10)
			b = append(b, ')')
		case SummarySnippet:
			b = append(b, '(')
			b = appendRepText(b, r.Text)
			b = append(b, ')')
		}
	}
	return append(b, ']')
}

// appendRepText appends a representative text quoted, shortened to its
// first 17 bytes and "..." when it is longer than 20 bytes. Quoting is
// rune by rune, so quoting the kept prefix and splicing the dots in
// before the closing quote equals quoting prefix+"...".
func appendRepText(b []byte, text string) []byte {
	if len(text) <= 20 {
		return appendQuoted(b, text)
	}
	b = appendQuoted(b, text[:repCut(text)])
	return append(b[:len(b)-1], `..."`...)
}

// appendQuoted appends text as strconv.AppendQuote does, copying it whole
// when it is printable ASCII with no quote or backslash.
func appendQuoted(b []byte, text string) []byte {
	for i := 0; i < len(text); i++ {
		if c := text[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, text)
		}
	}
	return append(append(append(b, '"'), text...), '"')
}

// repCut is where a long representative text is cut: byte 17, or the
// first byte of a valid multi-byte character that would straddle it, so
// a cut never leaves half a character to render as \x escapes.
func repCut(text string) int {
	const cut = 17
	for i := cut - 1; i > cut-utf8.UTFMax; i-- {
		if !utf8.RuneStart(text[i]) {
			continue
		}
		if r, size := utf8.DecodeRuneInString(text[i:]); (r != utf8.RuneError || size > 1) && i+size > cut {
			return i
		}
		break
	}
	return cut
}

// Equal reports whether two summary objects carry the same logical
// content: same instance, type, and representative multiset including
// element sets. ObjID and TupleOID are identity, not content, and are
// ignored — propagation-equivalence tests compare content.
func (o *SummaryObject) Equal(p *SummaryObject) bool {
	if o == nil || p == nil {
		return o == p
	}
	if o.InstanceID != p.InstanceID || o.Type != p.Type || len(o.Reps) != len(p.Reps) {
		return false
	}
	ra, rb := canonicalReps(o), canonicalReps(p)
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

func canonicalReps(o *SummaryObject) []string {
	out := make([]string, len(o.Reps))
	for i, r := range o.Reps {
		ids := append([]int64(nil), r.Elements...)
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		out[i] = fmt.Sprintf("%s|%d|%v", r.Label, r.Count, ids)
	}
	sort.Strings(out)
	return out
}

// SummarySet is the set of summary objects attached to one tuple — the
// value of the tuple's "$" variable.
type SummarySet []*SummaryObject

// Clone deep-copies the set.
func (s SummarySet) Clone() SummarySet {
	if s == nil {
		return nil
	}
	out := make(SummarySet, len(s))
	for i, o := range s {
		out[i] = o.Clone()
	}
	return out
}

// Size returns the number of summary objects in the set: $.getSize().
func (s SummarySet) Size() int { return len(s) }

// Get returns the summary object with the given instance name:
// $.getSummaryObject(InstName). It returns nil when absent, matching the
// paper's Null return.
func (s SummarySet) Get(instance string) *SummaryObject {
	for _, o := range s {
		if strings.EqualFold(o.InstanceID, instance) {
			return o
		}
	}
	return nil
}

// At returns the summary object at position i: $.getSummaryObject(i).
// The set has no defined order, but positions are stable within one
// pipeline, which is what the UDF-iteration use case needs.
func (s SummarySet) At(i int) *SummaryObject {
	if i < 0 || i >= len(s) {
		return nil
	}
	return s[i]
}

// Instances returns the sorted instance names present in the set.
func (s SummarySet) Instances() []string {
	out := make([]string, len(s))
	for i, o := range s {
		out[i] = o.InstanceID
	}
	sort.Strings(out)
	return out
}

// Equal reports content equality of two sets, order-insensitively.
func (s SummarySet) Equal(t SummarySet) bool {
	if len(s) != len(t) {
		return false
	}
	used := make([]bool, len(t))
outer:
	for _, o := range s {
		for j, p := range t {
			if !used[j] && o.Equal(p) {
				used[j] = true
				continue outer
			}
		}
		return false
	}
	return true
}

// String renders the set deterministically, sorted by instance name.
func (s SummarySet) String() string { return string(s.AppendText(nil)) }

// AppendText appends String's form to b: objects rendered in place, and
// an out-of-order set copied behind them in byte (sort.Strings') order
// and back. Into a warm b, a set of at most 8 objects allocates nothing.
func (s SummarySet) AppendText(b []byte) []byte {
	b = append(b, '{')
	base := len(b)
	spans := make([][2]int, 0, 8)
	for i, o := range s {
		if i > 0 {
			b = append(b, "; "...)
		}
		from := len(b)
		b = o.AppendText(b)
		spans = append(spans, [2]int{from, len(b)})
	}
	byText := func(x, y [2]int) int { return bytes.Compare(b[x[0]:x[1]], b[y[0]:y[1]]) }
	if !slices.IsSortedFunc(spans, byText) {
		slices.SortFunc(spans, byText)
		end := len(b)
		for i, sp := range spans {
			if i > 0 {
				b = append(b, "; "...)
			}
			b = append(b, b[sp[0]:sp[1]]...)
		}
		b = append(b[:base], b[end:]...)
	}
	return append(b, '}')
}
