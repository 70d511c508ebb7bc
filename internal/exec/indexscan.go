package exec

import (
	"cmp"
	"slices"

	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/model"
)

// hitRIDBytes approximates the in-memory footprint of one entry of the
// sorted fetch's hit list (an 8-byte RID plus slice overhead) for budget
// charging.
const hitRIDBytes = 16

// hitCheckEvery is how many hits the sorted fetch collects between
// polls of cancellation and charges to the budget: a huge range probe
// reacts promptly, and the check vanishes against the leaf walk.
const hitCheckEvery = 256

// SummaryIndexScan evaluates "classLabel <Op> constant" through a
// Summary-BTree and returns the qualifying data tuples. With backward
// pointers the leaf entries point straight at the data heap; with
// conventional pointers (the Figure 13 ablation) each hit goes through
// R_SummaryStorage first and joins back to the data table by OID.
//
// The hits are dereferenced in one of two fetch modes. Ordered fetch
// (SortedFetch false) pulls them off an index cursor in label-count
// order, ascending or descending — the interesting order the optimizer
// exploits to eliminate sorts — at the price of one random page access
// per hit; it holds no hit list, so a LIMIT that stops early walks only
// the leaves its rows come from. Sorted fetch collects the hits,
// rearranges them into physical page order and dereferences them page
// run by page run, pinning each data page exactly once (the bitmap-style
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

	// ConventionalPointers simulates leaf pointers into
	// R_SummaryStorage instead of backward pointers into the data heap.
	ConventionalPointers bool
	// Descending walks the index backward (for ORDER BY ... DESC).
	// Meaningless under SortedFetch, which gives the order up entirely.
	Descending bool
	// SortedFetch selects the page-ordered batched fetch.
	SortedFetch bool
	// Part, under SortedFetch, restricts the scan to one page-range
	// share of the sorted hit list: shares split on page boundaries, so
	// parallel workers never contend on a buffer frame, and
	// concatenating the shares in partition order reproduces the serial
	// sorted run exactly. Ignored in ordered mode.
	Part PartitionSpec
	// RowGoal sizes the first batches under a LIMIT, in both fetch
	// modes: a top-k in index order pulls about k hits, not a batch.
	RowGoal

	schema *model.Schema
	cur    index.Cursor[heap.RID]

	// hits is the sorted fetch's hit list, pos its next hit, buf/bufPos
	// the rows of the page run being drained, res the list's budget
	// charge.
	hits   []heap.RID
	pos    int
	buf    []*Row
	bufPos int
	res    reservation

	// pagesPinned counts data-page pins made by the fetch: one per page
	// run in batched mode, one per hit otherwise. distinctPages counts
	// the sorted list's page runs; in ordered mode pages collects the
	// pages of the hits dereferenced, on a scan the stats layer samples
	// (countPages) only. They survive Close; Open resets the counters.
	pagesPinned, distinctPages int64
	pages                      map[int32]struct{}

	slab rowSlab
}

// NewSummaryIndexScan builds the scan.
func NewSummaryIndexScan(t *catalog.Table, alias string, idx *index.SummaryBTree,
	label string, op index.CmpOp, constant int) *SummaryIndexScan {
	if alias == "" {
		alias = t.Name
	}
	return &SummaryIndexScan{Table: t, Alias: alias, Index: idx,
		Label: label, Op: op, Constant: constant, schema: t.Schema.Rename(alias)}
}

// Open seeks the index cursor; ordered fetch then pulls hits as
// NextBatch needs them. Sorted fetch drains the cursor into its hit
// list, polling cancellation and charging the query budget as the list
// grows, so a huge range probe degrades with a typed *BudgetError or
// stops on cancel mid-walk. It sorts the list into page order and, under
// a parallel partition, trims it to this worker's page-range share.
func (s *SummaryIndexScan) Open(qc *QueryCtx) (err error) {
	defer recoverOp("SummaryIndexScan", &err)
	if err := qc.check(); err != nil {
		return err
	}
	s.releaseHits()
	s.cur = s.Index.Cursor(s.Label, s.Op, s.Constant, s.Descending && !s.SortedFetch)
	s.pagesPinned, s.distinctPages = 0, 0
	s.startGoal()
	if !s.SortedFetch {
		return nil
	}
	s.res.bind(qc, "SummaryIndexScan")
	if s.hits, err = collectHits(&s.cur, func(n int) error {
		if err := qc.check(); err != nil {
			return err
		}
		d := int64(n) - s.res.chargedRows
		return s.res.charge(d, d*hitRIDBytes)
	}); err != nil {
		s.releaseHits()
		return err
	}
	sortRIDs(s.hits)
	kept, pages := partitionHits(s.hits, s.Part)
	// A worker keeps charges only for its retained share.
	if drop := int64(len(s.hits) - len(kept)); drop > 0 {
		s.res.release(drop, drop*hitRIDBytes)
	}
	s.hits, s.distinctPages = kept, int64(pages)
	return nil
}

// collectHits drains cur into a hit list, calling check with the list's
// length every hitCheckEvery hits and once at the end; a failing check
// stops the walk and its error is returned with no list.
func collectHits(cur *index.Cursor[heap.RID], check func(collected int) error) ([]heap.RID, error) {
	var hits []heap.RID
	for rid, ok := cur.Next(); ok; rid, ok = cur.Next() {
		if hits = append(hits, rid); len(hits)%hitCheckEvery == 0 {
			if err := check(len(hits)); err != nil {
				cur.Close()
				return nil, err
			}
		}
	}
	if err := check(len(hits)); err != nil {
		return nil, err
	}
	return hits, nil
}

// next pulls the next hit for the per-RID modes: off the sorted list, or
// off the cursor, noting its page when the scan counts pages.
func (s *SummaryIndexScan) next() (rid heap.RID, ok bool) {
	if s.SortedFetch {
		if ok = s.pos < len(s.hits); ok {
			rid, s.pos = s.hits[s.pos], s.pos+1
		}
		return rid, ok
	}
	if rid, ok = s.cur.Next(); ok && s.pages != nil {
		s.pages[rid.Page] = struct{}{}
	}
	return rid, ok
}

// deref fetches a hit's row, or nil for a stale hit. Conventional
// pointers address the summary object in R_SummaryStorage: read it
// there, then join back to the data table through the OID index — the
// extra join the backward pointers avoid. Sorted mode still helps here
// (the storage detour follows data-page order), but every hit pays its
// own page accesses.
func (s *SummaryIndexScan) deref(rid heap.RID) *Row {
	s.pagesPinned++
	if s.ConventionalPointers {
		oid, _, ok := s.Table.SummaryStorage.Get(storageRIDFor(s.Table, rid))
		if !ok {
			return nil
		}
		if rid, ok = s.Table.DiskTupleLoc(oid); !ok {
			return nil
		}
	}
	row, _ := s.slab.fetch(s.Table, rid)
	return row
}

// NextBatch fills a row vector, draining page runs in sorted mode and
// pulling hit by hit otherwise. Batching only groups consecutive rows,
// so both modes keep their fetch order at every capacity.
func (s *SummaryIndexScan) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("SummaryIndexScan", &err)
	size := s.batchSize(qc)
	if err := qc.tick(size); err != nil {
		return nil, err
	}
	b = GetBatch(size)
	for b.Len() < size {
		if s.bufPos < len(s.buf) {
			b.Append(s.buf[s.bufPos])
			s.buf[s.bufPos] = nil
			s.bufPos++
		} else if s.SortedFetch && !s.ConventionalPointers && s.pos < len(s.hits) {
			s.fillRun()
		} else if rid, ok := s.next(); !ok {
			break
		} else if row := s.deref(rid); row != nil {
			b.Append(row)
		}
	}
	return nonEmpty(b), nil
}

// fillRun dereferences the next page run of the sorted hit list with a
// single FetchMany call — one page read and one frame pin for the whole
// run. A run's page is read only when the run is reached, so a LIMIT
// that stops early reads no page past the one its last row came from.
func (s *SummaryIndexScan) fillRun() {
	pid := s.hits[s.pos].Page
	j := s.pos
	for j < len(s.hits) && s.hits[j].Page == pid {
		j++
	}
	s.buf = s.buf[:0]
	s.bufPos = 0
	run := s.hits[s.pos:j]
	s.pos = j
	rows := s.slab.take(len(run)) // the run's slots, in one call
	s.pagesPinned += int64(s.Table.Data.FetchMany(run, func(rid heap.RID, oid int64, values []model.Value) bool {
		r := &rows[len(s.buf)]
		r.Tuple.OID, r.Tuple.Values = oid, values
		s.buf = append(s.buf, r)
		return true
	}))
}

// releaseHits closes the cursor, returns the hit list's outstanding
// budget charges and drops the list.
func (s *SummaryIndexScan) releaseHits() {
	s.cur.Close()
	s.res.releaseAll()
	s.hits, s.pos = nil, 0
	s.buf, s.bufPos = nil, 0
}

// sortRIDs orders a hit list by physical address (page, then slot).
func sortRIDs(rids []heap.RID) {
	slices.SortFunc(rids, func(a, b heap.RID) int {
		return cmp.Or(cmp.Compare(a.Page, b.Page), cmp.Compare(a.Slot, b.Slot))
	})
}

// partitionHits returns partition part.Index of part.Of page-range
// shares of a page-sorted hit list (the whole list when part.Of is 0
// or 1) and the number of data pages the share addresses. Shares split
// on page boundaries, so no data page is fetched (or its frame pinned)
// by two workers, and concatenating the shares in partition order
// reproduces the full sorted run exactly — the property the parallel
// differential tests assert.
func partitionHits(hits []heap.RID, part PartitionSpec) ([]heap.RID, int) {
	var starts []int // index of the first hit of each distinct page, then len(hits)
	for i := range hits {
		if i == 0 || hits[i].Page != hits[i-1].Page {
			starts = append(starts, i)
		}
	}
	d, of := len(starts), max(part.Of, 1)
	starts = append(starts, len(hits))
	lo, hi := d*part.Index/of, d*(part.Index+1)/of
	return hits[starts[lo]:starts[hi]], hi - lo
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

// Close closes the cursor, releases the hit list and returns its budget
// charges. The fetch counters stay readable; the next Open resets them.
func (s *SummaryIndexScan) Close() error { s.releaseHits(); return nil }

// Schema returns the output schema.
func (s *SummaryIndexScan) Schema() *model.Schema { return s.schema }

// countPages has the next Open's ordered fetch collect the pages of the
// hits it dereferences. The stats layer asks it of the scans it samples,
// so an unsampled scan allocates nothing per hit.
func (s *SummaryIndexScan) countPages() { s.pages = make(map[int32]struct{}) }

// FetchStats reports the fetch-stage counters EXPLAIN ANALYZE renders.
func (s *SummaryIndexScan) FetchStats() FetchStats {
	if s.SortedFetch {
		return FetchStats{Mode: "sorted", PagesPinned: s.pagesPinned, DistinctPages: s.distinctPages}
	}
	return FetchStats{Mode: "ordered", PagesPinned: s.pagesPinned, DistinctPages: int64(len(s.pages))}
}

// BaselineIndexScan answers the same predicate through the baseline
// scheme: probe the derived-column B-Tree, read the normalized rows for
// tuple OIDs, then join back to the data table via its OID index. With
// ReconstructSummaries each row's summary object is re-assembled from
// the normalized primitives (the Figure 12 path); otherwise the scan
// fetches no summaries and an AttachSummaries above it reads them from
// the de-normalized storage.
type BaselineIndexScan struct {
	Table *catalog.Table
	Alias string
	Index *index.Baseline

	Label    string
	Op       index.CmpOp
	Constant int

	ReconstructSummaries bool
	// RowGoal sizes the first batches under a LIMIT.
	RowGoal

	schema *model.Schema
	cur    index.Cursor[int64]
	slab   rowSlab
}

// NewBaselineIndexScan builds the scan.
func NewBaselineIndexScan(t *catalog.Table, alias string, idx *index.Baseline,
	label string, op index.CmpOp, constant int) *BaselineIndexScan {
	if alias == "" {
		alias = t.Name
	}
	return &BaselineIndexScan{Table: t, Alias: alias, Index: idx,
		Label: label, Op: op, Constant: constant, schema: t.Schema.Rename(alias)}
}

// Open seeks the derived-index cursor; NextBatch pulls the hits.
func (s *BaselineIndexScan) Open(qc *QueryCtx) (err error) {
	defer recoverOp("BaselineIndexScan", &err)
	if err := qc.check(); err != nil {
		return err
	}
	s.cur.Close()
	s.cur = s.Index.Cursor(s.Label, s.Op, s.Constant, false)
	s.startGoal()
	return nil
}

// NextBatch joins the next normalized hits back to the data table.
func (s *BaselineIndexScan) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("BaselineIndexScan", &err)
	size := s.batchSize(qc)
	if err := qc.tick(size); err != nil {
		return nil, err
	}
	b = GetBatch(size)
	for b.Len() < size {
		oid, ok := s.cur.Next()
		if !ok {
			break
		}
		rid, ok := s.Table.DiskTupleLoc(oid) // extra OID-index join
		if !ok {
			continue
		}
		row, ok := s.slab.fetch(s.Table, rid)
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

// Close closes the cursor.
func (s *BaselineIndexScan) Close() error { s.cur.Close(); return nil }

// Schema returns the output schema.
func (s *BaselineIndexScan) Schema() *model.Schema { return s.schema }
