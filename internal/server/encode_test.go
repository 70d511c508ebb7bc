package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/model"
)

// jsonValue, resultPayload and toPayload are the reflection encoder's
// wire form that appendResult replaced, kept as the oracle its bytes
// must equal under json.Marshal.
func jsonValue(v model.Value) any {
	switch v.Kind {
	case model.KindInt:
		return v.Int
	case model.KindFloat:
		if math.IsInf(v.Float, 0) || math.IsNaN(v.Float) {
			return nil
		}
		return v.Float
	case model.KindText:
		return v.Text
	case model.KindBool:
		return v.Bool
	default:
		return nil
	}
}

type resultPayload struct {
	Columns    []string `json:"columns"`
	Rows       [][]any  `json:"rows"`
	RowCount   int      `json:"row_count"`
	Summaries  []string `json:"summaries,omitempty"`
	CachedPlan bool     `json:"cached_plan"`
	AsOfLSN    uint64   `json:"as_of_lsn,omitempty"`
}

func toPayload(res *engine.Result) *resultPayload {
	p := &resultPayload{
		Columns:    res.Columns,
		Rows:       make([][]any, len(res.Rows)),
		RowCount:   len(res.Rows),
		CachedPlan: res.CachedPlan,
		AsOfLSN:    res.AsOfLSN,
	}
	if p.Columns == nil {
		p.Columns = []string{}
	}
	for i, row := range res.Rows {
		vals := make([]any, len(row.Tuple.Values))
		for j, v := range row.Tuple.Values {
			vals[j] = jsonValue(v)
		}
		p.Rows[i] = vals
		if set := row.Tuple.Summaries; len(set) > 0 {
			if p.Summaries == nil {
				p.Summaries = make([]string, len(res.Rows))
			}
			p.Summaries[i] = set.String()
		}
	}
	return p
}

// fuzzSource turns fuzz input into result parts; an exhausted source
// reads zeros, so every input builds some result.
type fuzzSource []byte

func (f *fuzzSource) byte() byte {
	if len(*f) == 0 {
		return 0
	}
	c := (*f)[0]
	*f = (*f)[1:]
	return c
}

func (f *fuzzSource) uint64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = f.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// textFragments are what texts are built from besides raw input bytes:
// each byte class JSON escapes, the characters it escapes as \u, HTML
// escapes, multi-byte characters of every width, invalid UTF-8, and a
// 16-byte run that puts a following multi-byte character across the
// 17-byte cut of a representative text.
var textFragments = []string{
	"a", "Bird", " ", `"`, `\`, "'", "<", ">", "&", "\x00", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
	"é", "日本", "😀", "\u2028", "\u2029", "\ufffd", "\xff", "\x80", "\xe6\x97", "abcdefghijklmnop",
}

func (f *fuzzSource) text() string {
	var b []byte
	for n := f.byte() % 6; n > 0; n-- {
		if c := f.byte(); c < 128 {
			b = append(b, textFragments[int(c)%len(textFragments)]...)
		} else {
			for k := c % 8; k > 0; k-- {
				b = append(b, f.byte())
			}
		}
	}
	return string(b)
}

var fuzzFloats = []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e21, -1e21, 1e20, 1e-6, 0.1, 123.456,
	math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}

func (f *fuzzSource) value() model.Value {
	switch f.byte() % 7 {
	case 1:
		return model.NewInt(int64(f.uint64()))
	case 2:
		return model.NewFloat(fuzzFloats[int(f.byte())%len(fuzzFloats)])
	case 3:
		return model.NewFloat(math.Float64frombits(f.uint64()))
	case 4:
		return model.NewText(f.text())
	case 5:
		return model.NewBool(f.byte()%2 == 1)
	case 6:
		return model.Value{Kind: model.Kind(9)} // no JSON form: null
	}
	return model.Null()
}

func (f *fuzzSource) summaries() model.SummarySet {
	switch n := int(f.byte() % 6); n {
	case 0:
		return nil
	case 1:
		return model.SummarySet{}
	default:
		set := make(model.SummarySet, n-1)
		for i := range set {
			o := &model.SummaryObject{InstanceID: f.text(), Type: model.SummaryType(f.byte() % 3)}
			for k := f.byte() % 4; k > 0; k-- {
				o.Reps = append(o.Reps, model.Rep{Label: f.text(), Text: f.text(), Count: int(int32(f.uint64()))})
			}
			set[i] = o
		}
		return set
	}
}

func (f *fuzzSource) result() *engine.Result {
	res := &engine.Result{CachedPlan: f.byte()%2 == 1}
	if f.byte()%2 == 1 {
		res.AsOfLSN = f.uint64()
	}
	if n := f.byte() % 5; n > 0 {
		res.Columns = make([]string, n-1) // empty, not nil, at n == 1
		for i := range res.Columns {
			res.Columns[i] = f.text()
		}
	}
	for n := f.byte() % 9; n > 0; n-- {
		t := &model.Tuple{Summaries: f.summaries()}
		if k := f.byte() % 9; k > 0 {
			t.Values = make([]model.Value, k-1)
			for i := range t.Values {
				t.Values[i] = f.value()
			}
		}
		res.Rows = append(res.Rows, &exec.Row{Tuple: t})
	}
	return res
}

// FuzzResultEncoding builds results of every value kind, float edge,
// escapable text and summary shape from the input, and requires the
// single and the batch response body to equal what json.Marshal writes
// for the reflection encoder's payloads, byte for byte.
func FuzzResultEncoding(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzSource(data)
		results := make([]*engine.Result, 1+src.byte()%3)
		payloads := make([]*resultPayload, len(results))
		for i := range results {
			results[i] = src.result()
			payloads[i] = toPayload(results[i])
		}
		for _, batch := range []bool{false, true} {
			var v any = payloads[0]
			if batch {
				v = map[string]any{"results": payloads}
			}
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			writeResults(rec, batch, results...)
			if got := rec.Body.Bytes(); rec.Code != http.StatusOK || !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("batch=%v: %d\n%s\nencoding/json writes\n%s", batch, rec.Code, got, want)
			}
		}
	})
}
