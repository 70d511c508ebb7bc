package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/pager"
)

// Table is one user relation together with its physical storage: the
// data heap, a B-Tree on OID (backing the engine-internal diskTupleLoc()
// function), the de-normalized R_SummaryStorage side heap with its own
// OID index (Figure 4(b)), the linked summary instances, statistics, and
// every access path over them — data-column B-Trees and both summary
// index schemes.
type Table struct {
	Name   string
	Schema *model.Schema

	// Data holds the base tuples' values, addressed by RID.
	Data *heap.File[[]model.Value]

	// oidIndex maps OID sort-key -> encoded RID in Data. It is the index
	// diskTupleLoc() probes, costing O(log_B M) as in the Section 4.1.3
	// theorem.
	oidIndex *btree.Tree

	// SummaryStorage is R_SummaryStorage: one de-normalized summary set
	// per annotated tuple, linked 1-1 by OID.
	SummaryStorage *heap.File[model.SummarySet]

	// sumIndex maps data-tuple OID sort-key -> encoded RID in
	// SummaryStorage.
	sumIndex *btree.Tree

	// Instances are the summary instances linked to this relation.
	Instances []*SummaryInstance

	// InstStats maps instance name -> maintained statistics (Figure 6).
	InstStats map[string]*InstanceStats

	// ColStats holds per-column statistics, parallel to Schema.Columns.
	ColStats []*ColumnStats

	// ColAttachedAnns counts annotations attached to specific columns of
	// this relation (rather than whole rows). When zero, projection can
	// never eliminate an annotation's effect, so the summary-effect
	// projection is a no-op and the planner skips it — which in turn
	// keeps index access paths and sort elimination applicable.
	ColAttachedAnns int

	// dataIndexes holds standard B-Trees over data columns (lower-case
	// column name -> value-sort-key -> encoded RID), the access paths
	// data-based index joins use.
	dataIndexes map[string]*btree.Tree

	// summaryIdx and baselineIdx hold the two index schemes over linked
	// classifier instances (lower-case instance name -> index), kept in
	// step with SummaryStorage by PutSummaries.
	summaryIdx  map[string]*index.SummaryBTree
	baselineIdx map[string]*index.Baseline

	acct    *pager.Accountant
	nextOID *int64         // catalog-wide OID counter
	version *atomic.Uint64 // the catalog version (Catalog.Version)
}

// AsOf returns a read-only snapshot shell of the table frozen at epoch
// snap: storage and indexes resolve through their version stores, and
// mutable catalog containers (the instance list, the stats map) are
// copied so in-place catalog surgery on the live table cannot be seen.
// Statistics values themselves are shared — they are internally
// synchronized and estimates need not be epoch-exact. Must be taken
// while the table's current state IS the state at snap (the engine
// takes shells at epoch publication, under the writer lock).
func (t *Table) AsOf(snap uint64) *Table {
	cp := *t
	cp.Data = t.Data.AsOf(snap)
	cp.oidIndex = t.oidIndex.AsOf(snap)
	cp.SummaryStorage = t.SummaryStorage.AsOf(snap)
	cp.sumIndex = t.sumIndex.AsOf(snap)
	cp.Instances = append([]*SummaryInstance(nil), t.Instances...)
	cp.InstStats = make(map[string]*InstanceStats, len(t.InstStats))
	for k, v := range t.InstStats {
		cp.InstStats[k] = v
	}
	cp.dataIndexes = indexesAsOf(t.dataIndexes, snap)
	cp.summaryIdx = indexesAsOf(t.summaryIdx, snap)
	cp.baselineIdx = indexesAsOf(t.baselineIdx, snap)
	return &cp
}

// indexesAsOf snapshots every index of m at epoch snap (nil when m is
// empty).
func indexesAsOf[X interface{ AsOf(uint64) X }](m map[string]X, snap uint64) map[string]X {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]X, len(m))
	for k, v := range m {
		out[k] = v.AsOf(snap)
	}
	return out
}

// CreateDataIndex builds (or returns) a standard B-Tree index over a
// data column, back-filling from existing tuples.
func (t *Table) CreateDataIndex(col string) (*btree.Tree, error) {
	key := strings.ToLower(col)
	if idx, ok := t.dataIndexes[key]; ok {
		return idx, nil
	}
	ci, err := t.Schema.ColIndex("", col)
	if err != nil {
		return nil, err
	}
	idx := btree.New(t.acct, btree.DefaultOrder)
	t.Data.Scan(func(rid heap.RID, _ int64, values []model.Value) bool {
		idx.Insert(values[ci].SortKey(), rid.Encode())
		return true
	})
	if t.dataIndexes == nil {
		t.dataIndexes = make(map[string]*btree.Tree)
	}
	t.dataIndexes[key] = idx
	t.version.Add(1)
	return idx, nil
}

// DataIndex returns the index over a data column, or nil.
func (t *Table) DataIndex(col string) *btree.Tree {
	return t.dataIndexes[strings.ToLower(col)]
}

// DataIndexedColumns lists the indexed column names, sorted.
func (t *Table) DataIndexedColumns() []string {
	out := make([]string, 0, len(t.dataIndexes))
	for c := range t.dataIndexes {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func (t *Table) dataIndexInsert(values []model.Value, rid heap.RID) {
	for col, idx := range t.dataIndexes {
		if ci, err := t.Schema.ColIndex("", col); err == nil {
			idx.Insert(values[ci].SortKey(), rid.Encode())
		}
	}
}

func (t *Table) dataIndexDelete(values []model.Value, rid heap.RID) {
	for col, idx := range t.dataIndexes {
		if ci, err := t.Schema.ColIndex("", col); err == nil {
			idx.Delete(values[ci].SortKey(), rid.Encode())
		}
	}
}

// Insert appends a tuple and returns its OID. No summary-storage entry
// is created: that happens on first annotation.
func (t *Table) Insert(values []model.Value) (int64, error) {
	return t.InsertWithOID(*t.nextOID+1, values)
}

// PeekOID returns the OID the next Insert will assign, without
// consuming it — the WAL path records the OID before applying.
func (t *Table) PeekOID() int64 { return *t.nextOID + 1 }

// InsertWithOID appends a tuple under a caller-chosen OID — the WAL
// replay path, which must reproduce the OIDs the logged run assigned
// (including gaps left by uncommitted operations). The catalog-wide
// counter is bumped past oid so later organic Inserts never collide.
func (t *Table) InsertWithOID(oid int64, values []model.Value) (int64, error) {
	if len(values) != t.Schema.Len() {
		return 0, fmt.Errorf("catalog: %s expects %d values, got %d", t.Name, t.Schema.Len(), len(values))
	}
	if oid > *t.nextOID {
		*t.nextOID = oid
	}
	rid := t.Data.Insert(oid, values)
	t.oidIndex.Insert(model.OIDKey(oid), rid.Encode())
	t.dataIndexInsert(values, rid)
	for i, v := range values {
		t.ColStats[i].Add(v.SortKey())
	}
	return oid, nil
}

// DiskTupleLoc resolves an OID to its heap location — the paper's
// internal diskTupleLoc() function used by the Summary-BTree to build
// backward pointers.
func (t *Table) DiskTupleLoc(oid int64) (heap.RID, bool) {
	enc, ok := t.oidIndex.SearchFirst(model.OIDKey(oid))
	if !ok {
		return heap.RID{}, false
	}
	return heap.DecodeRID(enc), true
}

// Get fetches the tuple with the given OID (without summaries).
func (t *Table) Get(oid int64) (*model.Tuple, bool) {
	rid, ok := t.DiskTupleLoc(oid)
	if !ok {
		return nil, false
	}
	return t.GetAt(rid)
}

// GetAt fetches the tuple at a known heap location — the backward-
// pointer fast path that skips the OID index.
func (t *Table) GetAt(rid heap.RID) (*model.Tuple, bool) {
	oid, values, ok := t.Data.Get(rid)
	if !ok {
		return nil, false
	}
	return &model.Tuple{OID: oid, Values: values}, true
}

// Delete removes the tuple and its stored summary set, with the set's
// statistics and index entries.
func (t *Table) Delete(oid int64) bool {
	rid, ok := t.DiskTupleLoc(oid)
	if !ok {
		return false
	}
	t.PutSummaries(oid, rid, t.GetSummaries(oid), nil)
	_, old, _ := t.Data.Get(rid)
	for i, v := range old {
		t.ColStats[i].Remove(v.SortKey())
	}
	t.dataIndexDelete(old, rid)
	t.Data.Delete(rid)
	t.oidIndex.Delete(model.OIDKey(oid), rid.Encode())
	return true
}

// Scan iterates all tuples in physical order (no summaries attached).
func (t *Table) Scan(fn func(rid heap.RID, tuple *model.Tuple) bool) {
	t.Data.Scan(func(rid heap.RID, oid int64, values []model.Value) bool {
		return fn(rid, &model.Tuple{OID: oid, Values: values})
	})
}

// Len returns the number of tuples (the paper's M).
func (t *Table) Len() int { return t.Data.Len() }

// SummaryLoc resolves a data tuple's OID to the heap location of its
// R_SummaryStorage row.
func (t *Table) SummaryLoc(oid int64) (heap.RID, bool) {
	enc, ok := t.sumIndex.SearchFirst(model.OIDKey(oid))
	if !ok {
		return heap.RID{}, false
	}
	return heap.DecodeRID(enc), true
}

// GetSummaries fetches the summary set attached to a tuple; nil when the
// tuple has never been annotated. The returned set is shared — callers
// in the query pipeline must Clone before mutating.
func (t *Table) GetSummaries(oid int64) model.SummarySet {
	srid, ok := t.SummaryLoc(oid)
	if !ok {
		return nil
	}
	_, set, ok := t.SummaryStorage.Get(srid)
	if !ok {
		return nil
	}
	return set
}

// PutSummaries is the one writer of a tuple's stored summary set
// ("Adding/Deleting Annotation", Section 4.1.2). It replaces old — the
// set the caller read before changing a copy of it — with set, creating,
// updating or, once nothing is left, deleting the R_SummaryStorage row.
// An object in which no representative still holds an annotation is
// dropped. For every linked instance it keeps the statistics in step
// (the old object forgotten, the new one observed) and, for a
// classifier, both index schemes: a new object is indexed, a gone one
// removed, and each label whose count moved is re-keyed once. rid is
// the data tuple's heap location, the Summary-BTree's backward pointer.
func (t *Table) PutSummaries(oid int64, rid heap.RID, old, set model.SummarySet) {
	set = slices.DeleteFunc(set, emptyObject)
	for _, si := range t.Instances {
		o, n := old.Get(si.Name), set.Get(si.Name)
		if o == n {
			continue // absent from both, or the very same object
		}
		if o != nil {
			t.forget(o)
		}
		if n != nil {
			t.observe(n)
		}
		if si.Type == model.SummaryClassifier {
			t.reindex(si.Name, oid, rid, o, n)
		}
	}
	srid, ok := t.SummaryLoc(oid)
	switch {
	case len(set) == 0:
		if ok {
			t.SummaryStorage.Delete(srid)
			t.sumIndex.Delete(model.OIDKey(oid), srid.Encode())
		}
	case ok:
		t.SummaryStorage.Update(srid, set)
	default:
		srid = t.SummaryStorage.Insert(oid, set)
		t.sumIndex.Insert(model.OIDKey(oid), srid.Encode())
	}
}

// emptyObject reports whether no representative of o holds an
// annotation any more.
func emptyObject(o *model.SummaryObject) bool {
	for _, r := range o.Reps {
		if len(r.Elements) > 0 {
			return false
		}
	}
	return true
}

// reindex moves instance's entries in both index schemes from object o
// to object n of tuple oid (either may be nil).
func (t *Table) reindex(instance string, oid int64, rid heap.RID, o, n *model.SummaryObject) {
	key := strings.ToLower(instance)
	sIdx, bIdx := t.summaryIdx[key], t.baselineIdx[key]
	switch {
	case sIdx == nil && bIdx == nil:
	case o == nil:
		if sIdx != nil {
			sIdx.IndexObject(n, rid)
		}
		if bIdx != nil {
			bIdx.IndexObject(n)
		}
	case n == nil:
		if sIdx != nil {
			sIdx.RemoveObject(o, rid)
		}
		if bIdx != nil {
			bIdx.RemoveObject(oid)
		}
	default:
		for _, r := range n.Reps {
			was := 0
			if i := o.RepIndexByLabel(r.Label); i >= 0 {
				was = o.Reps[i].Count
			}
			if was == r.Count {
				continue
			}
			if sIdx != nil {
				sIdx.UpdateLabel(r.Label, was, r.Count, rid)
			}
			if bIdx != nil {
				bIdx.UpdateLabel(oid, r.Label, r.Count)
			}
		}
	}
}

// Instance returns the linked summary instance with the given name, or
// nil.
func (t *Table) Instance(name string) *SummaryInstance {
	for _, si := range t.Instances {
		if strings.EqualFold(si.Name, name) {
			return si
		}
	}
	return nil
}

// HasInstance reports whether the relation has the named instance — the
// optimizer's precondition for rules 2, 5–7, 10, and 11 ("p is on
// instances in R not in S").
func (t *Table) HasInstance(name string) bool { return t.Instance(name) != nil }

// Stats returns the InstanceStats of a linked instance (LinkInstance
// creates them); any other name yields an empty throwaway, so no read
// grows the map, which the readers of a snapshot shell share.
func (t *Table) Stats(instance string) *InstanceStats {
	if is, ok := t.InstStats[strings.ToLower(instance)]; ok {
		return is
	}
	return NewInstanceStats(nil)
}

// observe folds a stored summary object into the maintained statistics.
func (t *Table) observe(obj *model.SummaryObject) {
	is := t.Stats(obj.InstanceID)
	is.ObserveSize(EstimateObjectSize(obj))
	if obj.Type == model.SummaryClassifier {
		for _, r := range obj.Reps {
			is.Label(r.Label).Add(r.Count)
		}
	}
}

// forget removes a summary object's contribution from the statistics
// (before it is replaced or deleted).
func (t *Table) forget(obj *model.SummaryObject) {
	is := t.Stats(obj.InstanceID)
	is.ForgetSize(EstimateObjectSize(obj))
	if obj.Type == model.SummaryClassifier {
		for _, r := range obj.Reps {
			is.Label(r.Label).Remove(r.Count)
		}
	}
}

// IndexableInstance resolves a linked classifier instance, the only
// kind either index scheme covers.
func (t *Table) IndexableInstance(instance string) (*SummaryInstance, error) {
	si := t.Instance(instance)
	if si == nil {
		return nil, fmt.Errorf("catalog: table %q has no instance %q", t.Name, instance)
	}
	if si.Type != model.SummaryClassifier {
		return nil, fmt.Errorf("catalog: only Classifier instances are indexable, %q is %s", instance, si.Type)
	}
	return si, nil
}

// CreateSummaryIndex builds the Summary-BTree over a linked classifier
// instance, bulk-loading it from SummaryStorage (the Figure 8 bulk
// mode). A rebuild replaces the old index and releases it.
func (t *Table) CreateSummaryIndex(instance string) error {
	si, err := t.IndexableInstance(instance)
	if err != nil {
		return err
	}
	idx := index.NewSummaryBTree(t.acct, si.Name)
	return installIndex(t, t.summaryIdx, si.Name, idx, idx.IndexObject)
}

// CreateBaselineIndex builds the baseline scheme (normalized side table
// + derived-column B-Tree) over a linked classifier instance from
// SummaryStorage. A rebuild replaces the old index and releases it.
func (t *Table) CreateBaselineIndex(instance string) error {
	si, err := t.IndexableInstance(instance)
	if err != nil {
		return err
	}
	idx := index.NewBaseline(t.acct, t.Data.PageCap(), si.Name)
	return installIndex(t, t.baselineIdx, si.Name, idx, func(obj *model.SummaryObject, _ heap.RID) error {
		return idx.IndexObject(obj)
	})
}

// installIndex loads idx with the instance's stored objects and installs
// it in m, replacing (and releasing) any index there. On a load error
// idx is released and nothing changes.
func installIndex[X interface{ Release() }](t *Table, m map[string]X, instance string, idx X,
	add func(*model.SummaryObject, heap.RID) error) error {
	var err error
	t.SummaryStorage.Scan(func(_ heap.RID, oid int64, set model.SummarySet) bool {
		if obj := set.Get(instance); obj != nil {
			if rid, ok := t.DiskTupleLoc(oid); ok {
				err = add(obj, rid)
			}
		}
		return err == nil
	})
	if err != nil {
		idx.Release()
		return err
	}
	key := strings.ToLower(instance)
	releaseIndex(m, key)
	m[key] = idx
	t.version.Add(1)
	return nil
}

// DropSummaryIndex removes the Summary-BTree on instance and releases
// it.
func (t *Table) DropSummaryIndex(instance string) error {
	return dropIndex(t, t.summaryIdx, "Summary-BTree", instance)
}

// DropBaselineIndex removes the baseline index on instance and releases
// it.
func (t *Table) DropBaselineIndex(instance string) error {
	return dropIndex(t, t.baselineIdx, "baseline index", instance)
}

func dropIndex[X interface{ Release() }](t *Table, m map[string]X, kind, instance string) error {
	if !releaseIndex(m, strings.ToLower(instance)) {
		return fmt.Errorf("catalog: table %q has no %s on %q", t.Name, kind, instance)
	}
	t.version.Add(1)
	return nil
}

// releaseIndex removes the index under key from m, if there is one, and
// releases its storage (an index that is only unlinked would stay
// registered with the epoch clock and the buffer pool forever).
func releaseIndex[X interface{ Release() }](m map[string]X, key string) bool {
	x, ok := m[key]
	if ok {
		x.Release()
		delete(m, key)
	}
	return ok
}

// SummaryIndex returns the Summary-BTree on instance, or nil.
func (t *Table) SummaryIndex(instance string) *index.SummaryBTree {
	return t.summaryIdx[strings.ToLower(instance)]
}

// BaselineIndex returns the baseline index on instance, or nil.
func (t *Table) BaselineIndex(instance string) *index.Baseline {
	return t.baselineIdx[strings.ToLower(instance)]
}

// Accountant exposes the table's I/O accountant.
func (t *Table) Accountant() *pager.Accountant { return t.acct }

// EstimateObjectSize approximates the on-disk size of a summary object
// in bytes: representative payloads plus 8 bytes per element reference
// plus a fixed header. It feeds the AvgObjectSize statistic and the
// Figure 7 storage-overhead measurements.
func EstimateObjectSize(o *model.SummaryObject) int {
	size := 32 + len(o.InstanceID)
	for _, r := range o.Reps {
		size += len(r.Label) + len(r.Text) + 16 + 8*len(r.Elements)
	}
	return size
}

// EstimateSetSize sums EstimateObjectSize over a set.
func EstimateSetSize(s model.SummarySet) int {
	total := 0
	for _, o := range s {
		total += EstimateObjectSize(o)
	}
	return total
}
