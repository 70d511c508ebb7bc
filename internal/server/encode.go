package server

import (
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/model"
)

// maxPooledBody bounds the response buffers the pool keeps: a bigger
// one is left to the collector, not kept resident.
const maxPooledBody = 256 << 10

var bodies = sync.Pool{New: func() any { return new([]byte) }}

// writeResults sends a 200 whose body is built in one pass into a
// pooled buffer, complete before the status line: the one result's wire
// form, or the batch form {"results":[…]}.
func writeResults(w http.ResponseWriter, batch bool, results ...*engine.Result) {
	p := bodies.Get().(*[]byte)
	b := (*p)[:0]
	if batch {
		b = append(appendList(append(b, `{"results":`...), results, appendResult), '}')
	} else {
		b = appendResult(b, results[0])
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // a failed write means the client is gone
	if cap(b) <= maxPooledBody {
		*p = b
		bodies.Put(p)
	}
}

// appendResult appends res's wire form as encoding/json writes it:
// "summaries", one string per row ("" for none), only when some row has
// a set; "as_of_lsn" only when it is not 0.
func appendResult(b []byte, res *engine.Result) []byte {
	b = append(b, `{"columns":`...)
	b = appendList(b, res.Columns, appendString[string])
	b = append(b, `,"rows":`...)
	b = appendList(b, res.Rows, func(b []byte, row *exec.Row) []byte {
		return appendList(b, row.Tuple.Values, appendValue)
	})
	b = append(b, `,"row_count":`...)
	b = strconv.AppendInt(b, int64(len(res.Rows)), 10)
	if slices.ContainsFunc(res.Rows, func(row *exec.Row) bool { return len(row.Tuple.Summaries) > 0 }) {
		b = append(b, `,"summaries":`...)
		b = appendList(b, res.Rows, appendSummaries)
	}
	b = append(b, `,"cached_plan":`...)
	b = strconv.AppendBool(b, res.CachedPlan)
	if res.AsOfLSN != 0 {
		b = append(b, `,"as_of_lsn":`...)
		b = strconv.AppendUint(b, res.AsOfLSN, 10)
	}
	return append(b, '}')
}

// appendList appends the JSON array [f(x0),f(x1),…].
func appendList[T any](b []byte, xs []T, f func([]byte, T) []byte) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = f(b, x)
	}
	return append(b, ']')
}

// appendValue appends v as JSON: ±Inf and NaN as null, other floats as
// encoding/json writes them (the shortest 'f', or 'e' below 1e-6 and
// from 1e21 up, with e-07 written e-7).
func appendValue(b []byte, v model.Value) []byte {
	switch f := v.Float; {
	case v.Kind == model.KindInt:
		return strconv.AppendInt(b, v.Int, 10)
	case v.Kind == model.KindText:
		return appendString(b, v.Text)
	case v.Kind == model.KindBool:
		return strconv.AppendBool(b, v.Bool)
	case v.Kind != model.KindFloat || math.IsInf(f, 0) || math.IsNaN(f):
		return append(b, "null"...)
	case f != 0 && (math.Abs(f) < 1e-6 || math.Abs(f) >= 1e21):
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, v.Float, 'f', -1, 64)
}

// appendSummaries appends row's summary set as a JSON string ("" for
// none), rendered behind b's end and escaped from there into place.
func appendSummaries(b []byte, row *exec.Row) []byte {
	if len(row.Tuple.Summaries) == 0 {
		return append(b, `""`...)
	}
	from := len(b)
	b = row.Tuple.Summaries.AppendText(b)
	to := len(b)
	b = appendString(b, b[from:to])
	return append(b[:from], b[to:]...)
}

// appendString appends s as a JSON string escaped as encoding/json
// escapes it: quote and backslash; control bytes, \b \f \n \r \t short;
// <, > and & as \u003c, \u003e and \u0026; an invalid UTF-8 byte as
// \ufffd; U+2028 and U+2029 as \u2028 and \u2029.
func appendString[S string | []byte](b []byte, s S) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			// A copy of at most 4 bytes stays on the stack whatever S is.
			c, size = utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		}
		from := i
		i += size
		switch k := strings.IndexRune("\b\f\n\r\t\"\\", c); {
		case k >= 0:
			b = append(append(b, s[start:from]...), '\\', `bfnrt"\`[k])
		case c < utf8.RuneSelf || c == '\u2028' || c == '\u2029':
			b = append(append(b, s[start:from]...), '\\', 'u', hex[c>>12], hex[c>>8&0xf], hex[c>>4&0xf], hex[c&0xf])
		case c == utf8.RuneError && size == 1:
			b = append(append(b, s[start:from]...), `\ufffd`...)
		default:
			continue
		}
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
