package model

import (
	"encoding/binary"

	"repro/internal/cell"
)

// This file is the model's half of the cell encoding (package cell): how
// a value, a row, a summary set and an annotation are laid out when a
// heap page or a sort run stores them. Empty slices decode as nil.

// The cell codecs of the heap files the catalog keeps.
var (
	RowCodec        = cell.Codec[[]Value]{Append: AppendRow, Decode: DecodeRow}
	SummarySetCodec = cell.Codec[SummarySet]{Append: AppendSummarySet, Decode: DecodeSummarySet}
	AnnotationCodec = cell.Codec[*Annotation]{Append: AppendAnnotation, Decode: DecodeAnnotation}
)

// appendValue appends v: its kind byte, then the one field that kind
// uses (a zig-zag varint, eight float bytes, a string, or a bool byte).
func appendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KindInt:
		return binary.AppendVarint(dst, v.Int)
	case KindFloat:
		return cell.AppendFloat64(dst, v.Float)
	case KindText:
		return cell.AppendString(dst, v.Text)
	case KindBool:
		return cell.AppendBool(dst, v.Bool)
	}
	return dst
}

// readValue reads a value written by appendValue.
func readValue(r *cell.Reader) Value {
	switch Kind(r.Byte()) {
	case KindNull:
		return Value{}
	case KindInt:
		return NewInt(r.Varint())
	case KindFloat:
		return NewFloat(r.Float64())
	case KindText:
		return NewText(r.Text())
	case KindBool:
		return NewBool(r.Bool())
	}
	r.Fail("unknown value kind")
	return Value{}
}

// AppendRow appends a row: its length, then each value.
func AppendRow(dst []byte, row []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = appendValue(dst, v)
	}
	return dst
}

// ReadRow reads a row written by AppendRow.
func ReadRow(r *cell.Reader) []Value {
	n := r.Len()
	if n == 0 {
		return nil
	}
	row := make([]Value, n)
	for i := range row {
		row[i] = readValue(r)
	}
	return row
}

// DecodeRow decodes a cell holding exactly one row.
func DecodeRow(b []byte) ([]Value, error) { return cell.Decode(b, ReadRow) }

// AppendSummarySet appends a set: its size, then per object its ObjID,
// instance, TupleOID, type byte and representatives. A representative's
// Elements are delta-encoded, which keeps sorted ID lists short.
func AppendSummarySet(dst []byte, s SummarySet) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, o := range s {
		dst = binary.AppendVarint(dst, o.ObjID)
		dst = cell.AppendString(dst, o.InstanceID)
		dst = binary.AppendVarint(dst, o.TupleOID)
		dst = append(dst, byte(o.Type))
		dst = binary.AppendUvarint(dst, uint64(len(o.Reps)))
		for _, rp := range o.Reps {
			dst = cell.AppendString(dst, rp.Label)
			dst = binary.AppendVarint(dst, int64(rp.Count))
			dst = cell.AppendString(dst, rp.Text)
			dst = binary.AppendVarint(dst, rp.RepAnnID)
			dst = binary.AppendUvarint(dst, uint64(len(rp.Elements)))
			prev := int64(0)
			for _, id := range rp.Elements {
				dst = binary.AppendVarint(dst, id-prev)
				prev = id
			}
		}
	}
	return dst
}

// ReadSummarySet reads a set written by AppendSummarySet. Its objects
// share one allocation.
func ReadSummarySet(r *cell.Reader) SummarySet {
	n := r.Len()
	if n == 0 {
		return nil
	}
	s, objs := make(SummarySet, n), make([]SummaryObject, n)
	for i := range objs {
		o := &objs[i]
		o.ObjID, o.InstanceID, o.TupleOID = r.Varint(), r.Text(), r.Varint()
		if o.Type = SummaryType(r.Byte()); o.Type > SummarySnippet {
			r.Fail("unknown summary type")
		}
		if m := r.Len(); m > 0 {
			o.Reps = make([]Rep, m)
		}
		for j := range o.Reps {
			rp := &o.Reps[j]
			rp.Label, rp.Count, rp.Text, rp.RepAnnID = r.Text(), int(r.Varint()), r.Text(), r.Varint()
			if k := r.Len(); k > 0 {
				rp.Elements = make([]int64, k)
			}
			prev := int64(0)
			for e := range rp.Elements {
				prev += r.Varint()
				rp.Elements[e] = prev
			}
		}
		s[i] = o
	}
	return s
}

// DecodeSummarySet decodes a cell holding exactly one summary set.
func DecodeSummarySet(b []byte) (SummarySet, error) { return cell.Decode(b, ReadSummarySet) }

// AppendAnnotation appends a's ID, text, tuple, columns, author and
// logical timestamp.
func AppendAnnotation(dst []byte, a *Annotation) []byte {
	dst = binary.AppendVarint(dst, a.ID)
	dst = cell.AppendString(dst, a.Text)
	dst = binary.AppendVarint(dst, a.TupleOID)
	dst = cell.AppendStrings(dst, a.Columns)
	dst = cell.AppendString(dst, a.Author)
	return binary.AppendVarint(dst, a.Seq)
}

// DecodeAnnotation decodes a cell written by AppendAnnotation.
func DecodeAnnotation(b []byte) (*Annotation, error) {
	return cell.Decode(b, func(r *cell.Reader) *Annotation {
		return &Annotation{ID: r.Varint(), Text: r.Text(), TupleOID: r.Varint(), Columns: r.Texts(), Author: r.Text(), Seq: r.Varint()}
	})
}
