// Package cell is the engine's one binary encoding for the records it
// stores, spills and persists: heap cells (rows, summary sets,
// annotations, normalized index rows), B-Tree node images, external-sort
// runs, and the payloads of log records and snapshots. It
// is encoding/binary varints and length-prefixed strings, with no
// reflection: each type's Append/Read pair lives beside the type.
//
// Decoding is strict. A Reader accepts exactly the bytes the Append
// functions produce — minimal varints, booleans of 0 or 1, lengths inside
// the input, no trailing bytes — so anything that decodes re-encodes
// byte-identically, and malformed input is an *Error, never a panic.
// Nothing a Reader returns aliases its input, which may be a page image
// the buffer pool recycles: the first string read copies the input once,
// and every string of that input is a substring of the copy.
package cell

import (
	"encoding/binary"
	"math"
	"strconv"
)

// Error reports input that is not a valid encoding.
type Error struct {
	Off    int // byte offset at which decoding failed
	Reason string
}

func (e *Error) Error() string {
	return "cell: malformed at byte " + strconv.Itoa(e.Off) + ": " + e.Reason
}

// AppendString appends s, prefixed with its length.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendStrings appends the number of strings, then each string.
func AppendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = AppendString(dst, s)
	}
	return dst
}

// AppendBool appends b as one byte, 0 or 1.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendFloat64 appends f's IEEE 754 bits, little-endian.
func AppendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// Reader decodes one input front to back. The first failure sticks: later
// reads return zero values, and Done reports it.
type Reader struct {
	src []byte
	off int
	blk string // src, copied on the first non-empty Text
	err error
}

// NewReader returns a reader over src.
func NewReader(src []byte) Reader { return Reader{src: src} }

// Fail records a malformed input at the current offset, unless an
// earlier failure is already recorded.
func (r *Reader) Fail(reason string) {
	if r.err == nil {
		r.err = &Error{Off: r.off, Reason: reason}
	}
}

// Done reports the first failure, or trailing bytes after a complete
// decode.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.src) {
		r.Fail("trailing bytes")
	}
	return r.err
}

// Uvarint reads a minimally encoded unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.src[r.off:])
	switch {
	case n <= 0:
		r.Fail("truncated or overflowing varint")
	case n > 1 && r.src[r.off+n-1] == 0:
		r.Fail("non-minimal varint")
	default:
		r.off += n
		return v
	}
	return 0
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Len reads a length or element count. Every element takes at least one
// byte, so a count larger than what remains is malformed; that bound
// keeps a corrupt count from allocating beyond the input's size.
func (r *Reader) Len() int {
	n := r.Uvarint()
	if n > uint64(len(r.src)-r.off) {
		r.Fail("length past the end of the input")
		return 0
	}
	return int(n)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.src) {
		r.Fail("truncated input")
		return 0
	}
	r.off++
	return r.src[r.off-1]
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Fail("boolean byte not 0 or 1")
	}
	return b == 1
}

// Float64 reads eight little-endian bytes of IEEE 754 bits.
func (r *Reader) Float64() float64 {
	if r.err == nil && len(r.src)-r.off < 8 {
		r.Fail("truncated float")
	}
	if r.err != nil {
		return 0
	}
	r.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(r.src[r.off-8:]))
}

// Text reads a length-prefixed string. It does not alias the input.
func (r *Reader) Text() string {
	n := r.Len()
	if r.err != nil || n == 0 {
		return ""
	}
	if r.blk == "" {
		r.blk = string(r.src)
	}
	r.off += n
	return r.blk[r.off-n : r.off]
}

// Texts reads strings written by AppendStrings; none decode as nil.
func (r *Reader) Texts() []string {
	n := r.Len()
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Text()
	}
	return out
}

// Varints reads n signed varints; n == 0 reads nil.
func (r *Reader) Varints(n int) []int64 {
	if r.err == nil && n > len(r.src)-r.off {
		r.Fail("more varints than bytes")
	}
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Varint()
	}
	return out
}

// Codec is how values of T become cells and back. Decode must copy out
// everything it returns and should accept only what Append produces, so
// that a decoded cell re-encodes byte-identically.
type Codec[T any] struct {
	Append func(dst []byte, v T) []byte
	Decode func(b []byte) (T, error)
}

// Decode reads one whole input with read, which must consume all of it.
func Decode[T any](b []byte, read func(*Reader) T) (T, error) {
	r := NewReader(b)
	v := read(&r)
	if err := r.Done(); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}
