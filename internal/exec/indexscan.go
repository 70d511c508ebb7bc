package exec

import (
	"sort"

	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/model"
)

// hitRIDBytes approximates the in-memory footprint of one materialized
// hit-list entry (an 8-byte RID plus slice overhead) for budget
// charging.
const hitRIDBytes = 16

// prefetchDepth is how many upcoming distinct pages a sorted fetch asks
// the buffer pool to warm each time it enters a new page run.
const prefetchDepth = 4

// SummaryIndexScan evaluates "classLabel <Op> constant" through a
// Summary-BTree and returns the qualifying data tuples. With backward
// pointers the leaf entries point straight at the data heap; with
// conventional pointers (the Figure 13 ablation) each hit goes through
// R_SummaryStorage first and joins back to the data table by OID.
//
// The hit list is dereferenced in one of two fetch modes. Ordered fetch
// (SortedFetch false) keeps ascending label-count order — the
// interesting order the optimizer exploits to eliminate sorts — at the
// price of one random page access per hit. Sorted fetch rearranges the
// hits into physical page order first and dereferences them page run by
// page run, pinning each data page exactly once (the bitmap-style
// fetch), so physical I/O is bounded by the distinct pages touched; row
// order becomes page order, and any requested order is restored by a
// compensating Sort above. The optimizer prices the tradeoff per scan.
type SummaryIndexScan struct {
	Table *catalog.Table
	Alias string
	Index *index.SummaryBTree

	Label    string
	Op       index.CmpOp
	Constant int

	// Propagate attaches the full summary set of each hit.
	Propagate bool
	// ConventionalPointers simulates leaf pointers into
	// R_SummaryStorage instead of backward pointers into the data heap.
	ConventionalPointers bool
	// Descending reverses the index order (for ORDER BY ... DESC).
	// Meaningless under SortedFetch, which gives the order up entirely.
	Descending bool
	// SortedFetch selects the page-ordered batched fetch.
	SortedFetch bool
	// Part, under SortedFetch, restricts the scan to one page-range
	// share of the sorted hit list: shares split on page boundaries, so
	// parallel workers never contend on a buffer frame, and
	// concatenating the shares in partition order reproduces the serial
	// sorted run exactly. Ignored (whole hit list) in ordered mode.
	Part PartitionSpec

	schema *model.Schema
	hits   []heap.RID
	pos    int

	// buf holds the rows of the current page run in sorted mode.
	buf    []*Row
	bufPos int

	// res holds the hit list's budget charge, returned on Close (or on
	// a failed Open).
	res reservation

	// pagesPinned counts data-heap page pins made by the fetch stage:
	// one per page run in batched mode, one per hit in per-RID modes.
	// distinctPages is the number of distinct data pages the hit list
	// addresses. Both reset at Open and survive Close so the stats
	// layer can sample them.
	pagesPinned   int64
	distinctPages int64
}

// NewSummaryIndexScan builds the scan.
func NewSummaryIndexScan(t *catalog.Table, alias string, idx *index.SummaryBTree,
	label string, op index.CmpOp, constant int, propagate bool) *SummaryIndexScan {
	if alias == "" {
		alias = t.Name
	}
	return &SummaryIndexScan{Table: t, Alias: alias, Index: idx,
		Label: label, Op: op, Constant: constant, Propagate: propagate,
		schema: t.Schema.Rename(alias)}
}

// Open probes the index and materializes the hit list (the paper's
// implementation collects qualifying pointers from the leaf chain).
// The probe polls cancellation and charges the query budget for the
// growing list as it streams off the leaf chain, so a huge range probe
// degrades with a typed *BudgetError or stops on cancel mid-scan. In
// sorted mode the list is then rearranged into page order and, under a
// parallel partition, trimmed to this worker's page-range share.
func (s *SummaryIndexScan) Open(qc *QueryCtx) (err error) {
	defer recoverOp("SummaryIndexScan", &err)
	if err := qc.check(); err != nil {
		return err
	}
	s.res.bind(qc, "SummaryIndexScan")
	charged := 0
	hits, err := s.Index.SearchWithCheck(s.Label, s.Op, s.Constant, func(collected int) error {
		if err := qc.check(); err != nil {
			return err
		}
		delta := int64(collected - charged)
		if delta <= 0 {
			return nil
		}
		if cerr := s.res.charge(delta, delta*hitRIDBytes); cerr != nil {
			return cerr
		}
		charged = collected
		return nil
	})
	if err != nil {
		s.releaseHits()
		return err
	}
	s.hits = hits
	if s.SortedFetch {
		sortRIDs(s.hits)
		if s.Part.Of > 1 {
			kept := partitionHits(s.hits, s.Part)
			// A worker keeps charges only for its retained share.
			if drop := int64(len(s.hits) - len(kept)); drop > 0 {
				s.res.release(drop, drop*hitRIDBytes)
			}
			s.hits = kept
		}
	} else if s.Descending {
		for i, j := 0, len(s.hits)-1; i < j; i, j = i+1, j-1 {
			s.hits[i], s.hits[j] = s.hits[j], s.hits[i]
		}
	}
	s.pos = 0
	s.buf, s.bufPos = nil, 0
	s.pagesPinned = 0
	s.distinctPages = int64(distinctPageCount(s.hits))
	return nil
}

// nextHit dereferences hits[pos] in the per-RID modes (ordered fetch,
// or any fetch with conventional pointers), advancing the cursor; ok is
// false for a stale hit the caller should skip.
func (s *SummaryIndexScan) nextHit() (*Row, bool) {
	rid := s.hits[s.pos]
	s.pos++
	s.pagesPinned++
	if s.ConventionalPointers {
		// Conventional pointers address the summary object in
		// R_SummaryStorage: read it there, then join back to the data
		// table through the OID index — the extra join the backward
		// pointers avoid. Sorted mode still helps here (the storage
		// detour follows data-page order), but every hit pays its own
		// page accesses.
		oid, _, ok := s.Table.SummaryStorage.Get(storageRIDFor(s.Table, rid))
		if !ok {
			return nil, false
		}
		dataRID, ok := s.Table.DiskTupleLoc(oid)
		if !ok {
			return nil, false
		}
		return fetchRow(s.Table, dataRID, s.Propagate)
	}
	return fetchRow(s.Table, rid, s.Propagate)
}

// NextBatch fills a row vector from the hit list, draining page runs in
// sorted mode and dereferencing hit by hit otherwise. Batching only
// groups consecutive rows, so both modes keep their fetch order at
// every capacity.
func (s *SummaryIndexScan) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("SummaryIndexScan", &err)
	size := qc.Capacity()
	if err := qc.tick(size); err != nil {
		return nil, err
	}
	b = GetBatch(size)
	for b.Len() < size {
		if s.bufPos < len(s.buf) {
			b.Append(s.buf[s.bufPos])
			s.buf[s.bufPos] = nil
			s.bufPos++
			continue
		}
		if s.pos >= len(s.hits) {
			break
		}
		if s.SortedFetch && !s.ConventionalPointers {
			s.fillRun()
			continue
		}
		if row, ok := s.nextHit(); ok {
			b.Append(row)
		}
	}
	return nonEmpty(b), nil
}

// fillRun dereferences the next page run of the sorted hit list with a
// single FetchMany call — one page read and one frame pin for the whole
// run — after hinting the pool to warm the next prefetchDepth pages.
func (s *SummaryIndexScan) fillRun() {
	pid := s.hits[s.pos].Page
	j := s.pos
	for j < len(s.hits) && s.hits[j].Page == pid {
		j++
	}
	var ahead []int32
	last := pid
	for k := j; k < len(s.hits) && len(ahead) < prefetchDepth; k++ {
		if s.hits[k].Page != last {
			last = s.hits[k].Page
			ahead = append(ahead, last)
		}
	}
	if len(ahead) > 0 {
		s.Table.Data.Prefetch(ahead)
	}
	s.buf = s.buf[:0]
	s.bufPos = 0
	run := s.hits[s.pos:j]
	s.pos = j
	s.pagesPinned += int64(s.Table.Data.FetchMany(run, func(rid heap.RID, oid int64, values []model.Value) bool {
		tu := &model.Tuple{OID: oid, Values: values}
		if s.Propagate {
			tu.Summaries = s.Table.GetSummaries(oid)
		}
		s.buf = append(s.buf, &Row{Tuple: tu})
		return true
	}))
}

// releaseHits returns the hit list's outstanding budget charges and
// drops the list.
func (s *SummaryIndexScan) releaseHits() {
	s.res.releaseAll()
	s.hits = nil
	s.buf = nil
	s.bufPos = 0
}

// sortRIDs orders a hit list by physical address (page, then slot).
func sortRIDs(rids []heap.RID) {
	sort.Slice(rids, func(i, j int) bool {
		if rids[i].Page != rids[j].Page {
			return rids[i].Page < rids[j].Page
		}
		return rids[i].Slot < rids[j].Slot
	})
}

// distinctPageCount counts the distinct data pages a hit list addresses.
func distinctPageCount(hits []heap.RID) int {
	seen := make(map[int32]struct{}, len(hits))
	for _, rid := range hits {
		seen[rid.Page] = struct{}{}
	}
	return len(seen)
}

// partitionHits returns partition part.Index of part.Of page-range
// shares of a page-sorted hit list. Shares split on page boundaries, so
// no data page is fetched (or its frame pinned) by two workers, and
// concatenating the shares in partition order reproduces the full
// sorted run exactly — the property the parallel differential tests
// assert.
func partitionHits(hits []heap.RID, part PartitionSpec) []heap.RID {
	var starts []int // index of the first hit of each distinct page
	for i := range hits {
		if i == 0 || hits[i].Page != hits[i-1].Page {
			starts = append(starts, i)
		}
	}
	d := len(starts)
	lo, hi := d*part.Index/part.Of, d*(part.Index+1)/part.Of
	if lo >= hi {
		return nil
	}
	end := len(hits)
	if hi < d {
		end = starts[hi]
	}
	return hits[starts[lo]:end]
}

// storageRIDFor maps a backward pointer to the tuple's summary-storage
// location, emulating an index whose leaves point at R_SummaryStorage.
// (A real conventional index would store that RID directly; the extra
// OID probe here charges the same page reads either way.)
func storageRIDFor(t *catalog.Table, dataRID heap.RID) heap.RID {
	tu, ok := t.GetAt(dataRID)
	if !ok {
		return heap.RID{Page: -1}
	}
	rid, ok := t.SummaryLoc(tu.OID)
	if !ok {
		return heap.RID{Page: -1}
	}
	return rid
}

// Close releases the hit list and returns its budget charges. The
// fetch counters stay readable for the stats layer, which samples them
// at Close; the next Open resets them.
func (s *SummaryIndexScan) Close() error { s.releaseHits(); return nil }

// Schema returns the output schema.
func (s *SummaryIndexScan) Schema() *model.Schema { return s.schema }

// FetchStats reports the fetch-stage counters EXPLAIN ANALYZE renders.
func (s *SummaryIndexScan) FetchStats() FetchStats {
	mode := "ordered"
	if s.SortedFetch {
		mode = "sorted"
	}
	return FetchStats{Mode: mode, PagesPinned: s.pagesPinned, DistinctPages: s.distinctPages}
}

// BaselineIndexScan answers the same predicate through the baseline
// scheme: probe the derived-column B-Tree, read the normalized rows for
// tuple OIDs, then join back to the data table via its OID index. With
// ReconstructSummaries the propagated summary objects are additionally
// re-assembled from the normalized primitives (the Figure 12 path)
// instead of read from the de-normalized storage.
type BaselineIndexScan struct {
	Table *catalog.Table
	Alias string
	Index *index.Baseline

	Label    string
	Op       index.CmpOp
	Constant int

	Propagate            bool
	ReconstructSummaries bool

	schema *model.Schema
	oids   []int64
	pos    int
}

// NewBaselineIndexScan builds the scan.
func NewBaselineIndexScan(t *catalog.Table, alias string, idx *index.Baseline,
	label string, op index.CmpOp, constant int, propagate bool) *BaselineIndexScan {
	if alias == "" {
		alias = t.Name
	}
	return &BaselineIndexScan{Table: t, Alias: alias, Index: idx,
		Label: label, Op: op, Constant: constant, Propagate: propagate,
		schema: t.Schema.Rename(alias)}
}

// Open probes the derived index.
func (s *BaselineIndexScan) Open(qc *QueryCtx) (err error) {
	defer recoverOp("BaselineIndexScan", &err)
	if err := qc.check(); err != nil {
		return err
	}
	s.oids = s.Index.Search(s.Label, s.Op, s.Constant)
	s.pos = 0
	return nil
}

// NextBatch joins the next normalized hits back to the data table.
func (s *BaselineIndexScan) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("BaselineIndexScan", &err)
	size := qc.Capacity()
	if err := qc.tick(size); err != nil {
		return nil, err
	}
	b = GetBatch(size)
	for b.Len() < size && s.pos < len(s.oids) {
		oid := s.oids[s.pos]
		s.pos++
		rid, ok := s.Table.DiskTupleLoc(oid) // extra OID-index join
		if !ok {
			continue
		}
		row, ok := fetchRow(s.Table, rid, s.Propagate && !s.ReconstructSummaries)
		if !ok {
			continue
		}
		if s.ReconstructSummaries {
			var set model.SummarySet
			if obj, ok := s.Index.ReconstructObject(oid); ok {
				set = model.SummarySet{obj}
			}
			row.Tuple.Summaries = set
		}
		b.Append(row)
	}
	return nonEmpty(b), nil
}

// Close releases the hit list.
func (s *BaselineIndexScan) Close() error { s.oids = nil; return nil }

// Schema returns the output schema.
func (s *BaselineIndexScan) Schema() *model.Schema { return s.schema }

// DataIndexScan probes a standard B-Tree over a data column for equality
// matches — the access path index-based data joins use.
type DataIndexScan struct {
	Table     *catalog.Table
	Alias     string
	Column    string
	Key       model.Value
	Propagate bool

	schema *model.Schema
	hits   []heap.RID
	pos    int
}

// NewDataIndexScan builds the scan; the column must have a data index.
func NewDataIndexScan(t *catalog.Table, alias, column string, key model.Value, propagate bool) *DataIndexScan {
	if alias == "" {
		alias = t.Name
	}
	return &DataIndexScan{Table: t, Alias: alias, Column: column, Key: key,
		Propagate: propagate, schema: t.Schema.Rename(alias)}
}

// Open probes the column index.
func (s *DataIndexScan) Open(qc *QueryCtx) (err error) {
	defer recoverOp("DataIndexScan", &err)
	if err := qc.check(); err != nil {
		return err
	}
	s.hits = nil
	s.pos = 0
	idx := s.Table.DataIndex(s.Column)
	if idx == nil {
		return nil
	}
	for _, enc := range idx.SearchEq(s.Key.SortKey()) {
		s.hits = append(s.hits, heap.DecodeRID(enc))
	}
	return nil
}

// NextBatch fetches the next matching tuples.
func (s *DataIndexScan) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("DataIndexScan", &err)
	size := qc.Capacity()
	if err := qc.tick(size); err != nil {
		return nil, err
	}
	b = GetBatch(size)
	for b.Len() < size && s.pos < len(s.hits) {
		rid := s.hits[s.pos]
		s.pos++
		if row, ok := fetchRow(s.Table, rid, s.Propagate); ok {
			b.Append(row)
		}
	}
	return nonEmpty(b), nil
}

// Close releases the hit list.
func (s *DataIndexScan) Close() error { s.hits = nil; return nil }

// Schema returns the output schema.
func (s *DataIndexScan) Schema() *model.Schema { return s.schema }
