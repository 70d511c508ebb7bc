package index

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/cell"
	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/pager"
)

// NormRow is one row of the baseline scheme's normalized side table
// (Figure 4(c)): the classifier components replicated per (tuple, label)
// with the system-maintained derived column "label-NNN".
type NormRow struct {
	TupleOID int64
	Label    string
	Count    int
	Derived  string
}

// normRowCodec stores a NormRow as its tuple, label, count and derived
// key (package cell).
var normRowCodec = cell.Codec[NormRow]{
	Append: func(dst []byte, row NormRow) []byte {
		dst = binary.AppendVarint(dst, row.TupleOID)
		dst = cell.AppendString(dst, row.Label)
		dst = binary.AppendVarint(dst, int64(row.Count))
		return cell.AppendString(dst, row.Derived)
	},
	Decode: func(b []byte) (NormRow, error) {
		return cell.Decode(b, func(r *cell.Reader) NormRow {
			return NormRow{TupleOID: r.Varint(), Label: r.Text(), Count: int(r.Varint()), Derived: r.Text()}
		})
	},
}

// Baseline implements the straightforward indexing strategy of Section
// 4.1: normalize the classifier objects into a side table, and build a
// standard B-Tree over the derived concatenated column. Probes return
// normalized rows whose TupleOIDs must then be joined back to relation R
// through its OID index — the extra level of indirection that makes this
// scheme slower, and the replicated storage that makes it bigger.
type Baseline struct {
	Instance string
	norm     *heap.File[NormRow]
	derived  *btree.Tree // derived key -> RID in norm
	byOID    *btree.Tree // tuple-OID sort-key -> RID in norm (one per label)
	width    int
}

// NewBaseline builds an empty baseline index for the given instance.
func NewBaseline(acct *pager.Accountant, pageCap int, instance string) *Baseline {
	return &Baseline{
		Instance: instance,
		norm:     heap.NewFile(acct, pageCap, normRowCodec),
		derived:  btree.New(acct, btree.DefaultOrder),
		byOID:    btree.New(acct, btree.DefaultOrder),
		width:    DefaultWidth,
	}
}

// AsOf returns a read-only snapshot view of the baseline scheme frozen
// at epoch snap (see btree.Tree.AsOf for the contract).
func (b *Baseline) AsOf(snap uint64) *Baseline {
	return &Baseline{
		Instance: b.Instance,
		norm:     b.norm.AsOf(snap),
		derived:  b.derived.AsOf(snap),
		byOID:    b.byOID.AsOf(snap),
		width:    b.width,
	}
}

// Release frees the scheme's storage once no pinned epoch can still read
// it through a view. The index must not be used afterwards.
func (b *Baseline) Release() {
	b.norm.Release()
	b.derived.Release()
	b.byOID.Release()
}

// IndexObject normalizes and indexes a classifier object: one NormRow
// per class label, each indexed under its derived key.
func (b *Baseline) IndexObject(obj *model.SummaryObject) error {
	if obj.Type != model.SummaryClassifier {
		return fmt.Errorf("index: Baseline indexes Classifier objects, got %s", obj.Type)
	}
	for _, r := range obj.Reps {
		row := NormRow{
			TupleOID: obj.TupleOID,
			Label:    r.Label,
			Count:    r.Count,
			Derived:  ItemizeKey(r.Label, r.Count, b.width),
		}
		rid := b.norm.Insert(obj.TupleOID, row)
		b.derived.Insert(row.Derived, rid.Encode())
		b.byOID.Insert(model.OIDKey(obj.TupleOID), rid.Encode())
	}
	return nil
}

// RemoveObject deletes the object's normalized rows and index entries.
func (b *Baseline) RemoveObject(tupleOID int64) {
	rids := b.byOID.SearchEq(model.OIDKey(tupleOID))
	for _, enc := range rids {
		rid := heap.DecodeRID(enc)
		if _, row, ok := b.norm.Get(rid); ok {
			b.norm.Delete(rid)
			b.derived.Delete(row.Derived, enc)
			b.byOID.Delete(model.OIDKey(tupleOID), enc)
		}
	}
}

// UpdateLabel re-normalizes a single label's row after its count
// changed. It must locate the row through the byOID index and rewrite
// both the row and the derived-key entry — the de-normalization upkeep
// that makes baseline incremental maintenance more expensive.
func (b *Baseline) UpdateLabel(tupleOID int64, label string, newCount int) bool {
	for _, enc := range b.byOID.SearchEq(model.OIDKey(tupleOID)) {
		rid := heap.DecodeRID(enc)
		_, row, ok := b.norm.Get(rid)
		if !ok || row.Label != label {
			continue
		}
		b.derived.Delete(row.Derived, enc)
		row.Count = newCount
		row.Derived = ItemizeKey(label, newCount, b.width)
		b.norm.Update(rid, row)
		b.derived.Insert(row.Derived, enc)
		return true
	}
	return false
}

// Cursor answers "classLabel <Op> constant" with the qualifying tuple
// OIDs in count order (descending with desc). Unlike the Summary-BTree's
// backward pointers, each hit costs an extra read of the normalized
// table to recover the TupleOID; reaching the data tuple then needs a
// further OID-index join that the caller performs.
func (b *Baseline) Cursor(label string, op CmpOp, constant int, desc bool) Cursor[int64] {
	return newCursor(b.derived, b.width, label, op, constant, desc, func(enc int64) (int64, bool) {
		_, row, ok := b.norm.Get(heap.DecodeRID(enc)) // the indirection
		return row.TupleOID, ok
	})
}

// Search returns the hits of Cursor in ascending count order.
func (b *Baseline) Search(label string, op CmpOp, constant int) []int64 {
	return drain(b.Cursor(label, op, constant, false))
}

// ReconstructObject rebuilds the classifier summary object of a tuple
// from its normalized rows — the propagation path measured in Figure 12,
// where the baseline scheme must re-assemble summary objects from
// primitive components instead of reading them de-normalized. Element
// ID sets are not recoverable from the normalized representation; the
// rebuilt object carries counts only, which is what the baseline scheme
// can propagate.
func (b *Baseline) ReconstructObject(tupleOID int64) (*model.SummaryObject, bool) {
	encs := b.byOID.SearchEq(model.OIDKey(tupleOID))
	if len(encs) == 0 {
		return nil, false
	}
	obj := &model.SummaryObject{
		InstanceID: b.Instance,
		TupleOID:   tupleOID,
		Type:       model.SummaryClassifier,
	}
	for _, enc := range encs {
		if _, row, ok := b.norm.Get(heap.DecodeRID(enc)); ok {
			obj.Reps = append(obj.Reps, model.Rep{Label: row.Label, Count: row.Count})
		}
	}
	sort.Slice(obj.Reps, func(i, j int) bool { return obj.Reps[i].Label < obj.Reps[j].Label })
	return obj, true
}

// Len returns the number of normalized rows.
func (b *Baseline) Len() int { return b.norm.Len() }

// SizeBytes estimates the scheme's total storage: the replicated
// normalized table plus both B-Tree indexes.
func (b *Baseline) SizeBytes() int {
	total := treeBytes(b.derived) + treeBytes(b.byOID)
	b.norm.Scan(func(_ heap.RID, _ int64, row NormRow) bool {
		total += 8 + len(row.Label) + 8 + len(row.Derived) + 16
		return true
	})
	return total
}

// IndexSizeBytes estimates only the derived-column B-Tree (for the
// like-for-like index-size comparison of Figure 7).
func (b *Baseline) IndexSizeBytes() int { return treeBytes(b.derived) }
