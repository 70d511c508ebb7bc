package harness

import (
	"sort"
	"time"
)

// Span is one layer boundary crossing of one op. Spans of an op share
// its op_id; parent names the span that caused this one ("" for the
// root, http.roundtrip). Times are nanoseconds since the process began
// measuring.
type Span struct {
	Name    string `json:"name"`
	OpID    int    `json:"op_id"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Span names measured in the same execution as the client's request.
// Every other span is replayed: the op's input is run against the
// layer's public function right after the response arrives, and the
// measured duration is placed inside the parent's interval.
const (
	SpanRoundtrip = "http.roundtrip"
	SpanHandler   = "server.handler"
)

// spanNode is a replayed call: how long it took, and the calls made
// inside it.
type spanNode struct {
	Name     string
	Dur      time.Duration
	Children []*spanNode
}

// place lays a replayed subtree out inside [start, start+avail) of its
// parent and appends the spans. A replay that ran longer than the room
// its parent has (instrumentation overhead, or a colder cache than the
// served execution had) is clamped to it, its children shrunk in
// proportion, so that a span never leaves its parent; clamped reports
// that this happened. The layout is for the trace file only: the
// per-layer metrics are taken from the durations as measured (measured).
func place(out []Span, op int, parent string, n *spanNode, start, avail int64) (spans []Span, clamped bool) {
	dur := int64(n.Dur)
	if dur > avail {
		dur, clamped = avail, true
	}
	if dur < 0 {
		dur = 0
	}
	// Centre the span in the room it has: the caller's work before and
	// after the call is not known from outside.
	s := start + (avail-dur)/2
	out = append(out, Span{Name: n.Name, OpID: op, Parent: parent, StartNs: s, EndNs: s + dur})
	var sum int64
	for _, c := range n.Children {
		sum += int64(c.Dur)
	}
	if sum == 0 {
		return out, clamped
	}
	scale := 1.0
	if sum > dur {
		scale, clamped = float64(dur)/float64(sum), true
	}
	at := s + (dur-int64(float64(sum)*scale))/2
	for _, c := range n.Children {
		room := int64(float64(c.Dur) * scale)
		var cl bool
		out, cl = place(out, op, n.Name, c, at, room)
		clamped = clamped || cl
		at += room
	}
	return out, clamped
}

// measured adds, per span name, the subtree's durations and self times
// (duration − children, not below 0) exactly as the replay measured
// them.
func (n *spanNode) measured(self, dur map[string]int64) {
	own := int64(n.Dur)
	dur[n.Name] += own
	for _, c := range n.Children {
		own -= int64(c.Dur)
		c.measured(self, dur)
	}
	self[n.Name] += max(own, 0)
}

// nested reports whether every span with a parent lies inside a span of
// that name of the same op.
func nested(spans []Span) bool {
	for i, sp := range spans {
		if sp.Parent == "" {
			continue
		}
		ok := false
		for j := i - 1; j >= 0; j-- {
			p := spans[j]
			if p.OpID != sp.OpID {
				break
			}
			if p.Name == sp.Parent && p.StartNs <= sp.StartNs && sp.EndNs <= p.EndNs {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func medianInt64(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return float64(s[len(s)/2])
	}
	return float64(s[len(s)/2-1]+s[len(s)/2]) / 2
}
