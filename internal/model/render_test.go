package model

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"
)

// fmtObjectString is the fmt-based renderer SummaryObject.String
// replaced, kept verbatim as the reference its output must match.
func fmtObjectString(o *SummaryObject) string {
	var b strings.Builder
	b.WriteString(o.InstanceID)
	b.WriteByte('[')
	for i, r := range o.Reps {
		if i > 0 {
			b.WriteByte(',')
		}
		switch o.Type {
		case SummaryClassifier:
			fmt.Fprintf(&b, "(%s,%d)", r.Label, r.Count)
		case SummaryCluster:
			text := r.Text
			if len(text) > 20 {
				text = text[:17] + "..."
			}
			fmt.Fprintf(&b, "(%q,%d)", text, r.Count)
		case SummarySnippet:
			text := r.Text
			if len(text) > 20 {
				text = text[:17] + "..."
			}
			fmt.Fprintf(&b, "(%q)", text)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// fmtSetString is the reference SummarySet rendering over
// fmtObjectString.
func fmtSetString(s SummarySet) string {
	parts := make([]string, len(s))
	for i, o := range s {
		parts[i] = fmtObjectString(o)
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, "; ") + "}"
}

// cutsMidRune reports whether the reference renderer's 17-byte cut of
// text splits a valid multi-byte character — the one case where the
// renderers differ on purpose.
func cutsMidRune(text string) bool {
	if len(text) <= 20 {
		return false
	}
	for i := 0; i < 17; {
		r, size := utf8.DecodeRuneInString(text[i:])
		if i+size > 17 && (r != utf8.RuneError || size > 1) {
			return true
		}
		i += size
	}
	return false
}

// renderFragments are the pieces random representative texts and labels
// are built from: plain ASCII, the bytes %q escapes (quotes,
// backslashes, control bytes, DEL), multi-byte characters of every
// width, and bytes that are not UTF-8 at all.
var renderFragments = []string{
	"a", "Bird", " ", "swan geese", "0", `"`, `\`, "'", "\x00", "\a", "\n", "\t", "\x1b", "\x7f",
	"é", "ß", "日本", "😀", " ", "�", "\xff", "\x80", "\xe6\x97", "\xf0\x9f",
}

func randomRenderText(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(14); n > 0; n-- {
		b.WriteString(renderFragments[rng.Intn(len(renderFragments))])
	}
	return b.String()
}

func randomRenderCount(rng *rand.Rand) int {
	switch rng.Intn(6) {
	case 0:
		return math.MaxInt
	case 1:
		return math.MinInt
	case 2:
		return -rng.Intn(1 << 20)
	default:
		return rng.Intn(1000)
	}
}

func randomRenderObject(rng *rand.Rand) *SummaryObject {
	o := &SummaryObject{
		InstanceID: randomRenderText(rng),
		Type:       SummaryType(rng.Intn(3)),
	}
	for n := rng.Intn(5); n > 0; n-- { // zero reps included
		o.Reps = append(o.Reps, Rep{
			Label: randomRenderText(rng),
			Count: randomRenderCount(rng),
			Text:  randomRenderText(rng),
		})
	}
	return o
}

// TestSummaryStringMatchesFmt checks the append renderer against the fmt
// renderer it replaced, byte for byte, on seeded random objects of all
// three types, and on sets of them — excepting only objects with a rep
// whose 17-byte cut splits a character, which now back off to the
// character's start.
func TestSummaryStringMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	compared, skipped := 0, 0
	var set SummarySet
	for i := 0; i < 5000; i++ {
		o := randomRenderObject(rng)
		midRune := false
		for _, r := range o.Reps {
			midRune = midRune || (o.Type != SummaryClassifier && cutsMidRune(r.Text))
		}
		if midRune {
			skipped++
			continue
		}
		if got, want := o.String(), fmtObjectString(o); got != want {
			t.Fatalf("object %d: String() = %q, fmt renders %q", i, got, want)
		}
		compared++
		set = append(set, o)
		if len(set) == 4 {
			if got, want := set.String(), fmtSetString(set); got != want {
				t.Fatalf("set: String() = %q, fmt renders %q", got, want)
			}
			set = nil
		}
	}
	if compared < 5*skipped {
		t.Fatalf("compared %d objects, skipped %d: the corpus exercises too little", compared, skipped)
	}
	for _, o := range []*SummaryObject{classBird1(), snippetObj(), clusterObj(), {InstanceID: "Empty"}} {
		if got, want := o.String(), fmtObjectString(o); got != want {
			t.Errorf("String() = %q, fmt renders %q", got, want)
		}
	}
}

// TestSummaryStringAllocs guards the renderer's cost: one buffer and the
// string made from it per object, and nothing at all for a set of up to
// 8 objects, in or out of order, appended into a warm buffer.
func TestSummaryStringAllocs(t *testing.T) {
	objs := []*SummaryObject{classBird1(), snippetObj(), clusterObj()}
	for _, o := range objs {
		if n := testing.AllocsPerRun(100, func() { _ = o.String() }); n > 2 {
			t.Errorf("%s: %.0f allocations per String, want at most 2", o.InstanceID, n)
		}
	}
	var set SummarySet
	buf := make([]byte, 0, 4096)
	for len(set) < 8 {
		o := objs[len(set)%len(objs)].Clone()
		o.InstanceID = fmt.Sprintf("I%d", 8-len(set)) // descending: every set is out of order
		set = append(set, o)
		if n := testing.AllocsPerRun(100, func() { buf = set.AppendText(buf[:0]) }); n != 0 {
			t.Errorf("%d objects: %.0f allocations per AppendText into a warm buffer, want 0", len(set), n)
		}
		if got, want := string(set.AppendText(buf[:0])), fmtSetString(set); got != want {
			t.Errorf("%d objects: AppendText = %q, fmt renders %q", len(set), got, want)
		}
	}
}

// TestRepresentativeCutKeepsRunes renders snippet and cluster
// representatives whose 17th byte falls inside a multi-byte character:
// the cut backs off to the character's first byte, so the rendering is
// valid UTF-8 with no \x escapes.
func TestRepresentativeCutKeepsRunes(t *testing.T) {
	cases := []struct {
		text, kept string
	}{
		{"abcdefghijklmnop" + "é" + "tail text", "abcdefghijklmnop"},   // 2-byte rune at bytes 16-17
		{"abcdefghijklmno" + "日本" + "tail text", "abcdefghijklmno"},    // 3-byte rune at bytes 15-17
		{"abcdefghijklmn" + "😀" + "tail text", "abcdefghijklmn"},       // 4-byte rune at bytes 14-17
		{"abcdefghijklmnopq" + "é" + "tail text", "abcdefghijklmnopq"}, // cut falls on a boundary
	}
	for _, c := range cases {
		for _, o := range []*SummaryObject{
			{InstanceID: "TextSummary1", Type: SummarySnippet, Reps: []Rep{{Text: c.text}}},
			{InstanceID: "SimCluster", Type: SummaryCluster, Reps: []Rep{{Text: c.text, Count: 3}}},
		} {
			got := o.String()
			if !utf8.ValidString(got) || strings.Contains(got, `\x`) {
				t.Errorf("%s of %q renders %q", o.Type, c.text, got)
			}
			if want := fmt.Sprintf("%q", c.kept+"..."); !strings.Contains(got, want) {
				t.Errorf("%s of %q renders %q, want it to contain %s", o.Type, c.text, got, want)
			}
			if set := (SummarySet{o}).String(); !utf8.ValidString(set) || strings.Contains(set, `\x`) {
				t.Errorf("set of %s renders %q", o.Type, set)
			}
		}
	}
}
