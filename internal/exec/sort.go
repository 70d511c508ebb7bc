package exec

import (
	"container/heap"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/model"
	"repro/internal/sql"
)

// SortKey is one ORDER BY key. Keys may reference data columns or
// summary manipulation functions — a sort whose keys touch the $
// variable is the paper's summary-based sort operator O.
type SortKey struct {
	Expr sql.Expr
	Desc bool
}

// Sort materializes and orders its input. Mem selects an in-memory sort;
// otherwise an external merge sort spills sorted runs to temp files and
// streams a k-way merge — the paper's memory/disk sort implementation
// choices (Figure 14's Mem and Disk cases).
type Sort struct {
	Input  Operator
	Keys   []SortKey
	Mem    bool
	RunLen int // rows per external run (default 1024)
	Lookup model.AnnotationLookup

	rows []*Row // in-memory path
	pos  int

	runs   []*runReader // external path
	merger *runHeap
	files  []*os.File

	// spilled records that an in-memory sort degraded to external under
	// budget pressure (observable by tests and EXPLAIN ANALYZE-style
	// tooling).
	spilled bool
	// res holds the buffered rows' and spilled runs' budget charges.
	res reservation
}

// Spilled reports whether an in-memory sort degraded to external runs
// under budget pressure.
func (s *Sort) Spilled() bool { return s.spilled }

// NewSort builds an in-memory sort.
func NewSort(in Operator, keys []SortKey, lookup model.AnnotationLookup) *Sort {
	return &Sort{Input: in, Keys: keys, Mem: true, Lookup: lookup}
}

// NewExternalSort builds a disk-based external merge sort.
func NewExternalSort(in Operator, keys []SortKey, runLen int, lookup model.AnnotationLookup) *Sort {
	if runLen <= 0 {
		runLen = 1024
	}
	return &Sort{Input: in, Keys: keys, RunLen: runLen, Lookup: lookup}
}

// keyedRow pairs a row with its pre-computed key values; runs serialize
// this shape so the merge phase never re-evaluates expressions.
type keyedRow struct {
	Keys []model.Value
	Row  *Row
}

// lessKeys orders two key vectors under the configured directions.
func (s *Sort) lessKeys(a, b []model.Value) bool {
	for i := range s.Keys {
		c, err := a[i].Compare(b[i])
		if err != nil {
			c = 0
		}
		if c == 0 {
			continue
		}
		if s.Keys[i].Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// Open materializes and sorts the input. Sort is the pipeline breaker
// that degrades gracefully under the resource governor: an in-memory
// sort that hits the buffer budget spills its buffer as a sorted run
// and continues externally; only the temp-file budget is a hard limit.
// Cleanup is exhaustive — every early return and panic path (a
// mid-Open flush failure in particular) removes already-spilled run
// files and returns budget charges.
func (s *Sort) Open(qc *QueryCtx) (err error) {
	defer recoverOp("Sort", &err)
	opened := false
	defer func() {
		if !opened {
			s.cleanup()
		}
	}()
	if err := qc.check(); err != nil {
		return err
	}
	s.res.bind(qc, "Sort")
	keyExprs := make([]sql.Expr, len(s.Keys))
	for i, k := range s.Keys {
		keyExprs[i] = k.Expr
	}
	boundKeys := (&Evaluator{Schema: s.Input.Schema(), Lookup: s.Lookup}).bindValues(keyExprs)

	mem := s.Mem
	runLen := s.RunLen
	if runLen <= 0 {
		runLen = 1024
	}

	// buf is the current in-memory set: all rows on the memory path, the
	// current run on the external path. bufBytes mirrors its charge.
	var buf []keyedRow
	var bufBytes int64
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		sort.SliceStable(buf, func(i, j int) bool { return s.lessKeys(buf[i].Keys, buf[j].Keys) })
		f, err := os.CreateTemp("", "insightnotes-sortrun-*.gob")
		if err != nil {
			return err
		}
		discard := func() {
			f.Close()
			os.Remove(f.Name())
		}
		enc := gob.NewEncoder(f)
		for i := range buf {
			if err := enc.Encode(&buf[i]); err != nil {
				discard()
				return fmt.Errorf("exec: encoding sort run: %w", err)
			}
		}
		info, err := f.Stat()
		if err != nil {
			discard()
			return err
		}
		if cerr := s.res.chargeSpill(info.Size()); cerr != nil {
			discard()
			return cerr
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			discard()
			return err
		}
		s.files = append(s.files, f)
		s.runs = append(s.runs, &runReader{dec: gob.NewDecoder(f)})
		// The flushed rows no longer live in memory: return their charge.
		s.res.release(int64(len(buf)), bufBytes)
		buf, bufBytes = buf[:0], 0
		return nil
	}

	err = run(qc, s.Input, func(row *Row) error {
		keys, err := evalValues(boundKeys, row)
		if err != nil {
			return err
		}
		rb := approxRowBytes(row)
		if cerr := s.res.charge(1, rb); cerr != nil {
			// Buffer pressure: spill the buffer as a sorted run and
			// continue externally instead of failing.
			if err := flush(); err != nil {
				return err
			}
			mem = false
			s.spilled = true
			if cerr := s.res.charge(1, rb); cerr != nil {
				return cerr // a single row exceeds the budget
			}
		}
		buf = append(buf, keyedRow{Keys: keys, Row: row})
		bufBytes += rb
		if !mem && len(buf) >= runLen {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}

	if mem && len(s.runs) == 0 {
		sort.SliceStable(buf, func(i, j int) bool { return s.lessKeys(buf[i].Keys, buf[j].Keys) })
		s.rows = make([]*Row, len(buf))
		for i, k := range buf {
			s.rows[i] = k.Row
		}
		s.pos = 0
		opened = true
		return nil
	}

	if err := flush(); err != nil {
		return err
	}

	// Prime the k-way merge.
	s.merger = &runHeap{less: s.lessKeys}
	for _, r := range s.runs {
		if ok, err := r.advance(); err != nil {
			return err
		} else if ok {
			heap.Push(s.merger, r)
		}
	}
	opened = true
	return nil
}

// NextBatch returns the next rows in order: a slice of the sorted
// buffer, or up to a batch's worth popped off the k-way merge.
func (s *Sort) NextBatch(qc *QueryCtx) (*Batch, error) {
	size := qc.Capacity()
	if err := qc.tick(size); err != nil {
		return nil, err
	}
	if s.merger == nil {
		return nextRows(qc, s.rows, &s.pos), nil
	}
	b := GetBatch(size)
	for b.Len() < size && s.merger.Len() > 0 {
		top := s.merger.items[0]
		b.Append(top.cur.Row)
		ok, err := top.advance()
		if err != nil {
			b.Release()
			return nil, err
		}
		if ok {
			heap.Fix(s.merger, 0)
		} else {
			heap.Pop(s.merger)
		}
	}
	return nonEmpty(b), nil
}

// cleanup removes spilled run files and returns every outstanding
// budget charge; it is idempotent and shared by Close and Open's
// failure paths.
func (s *Sort) cleanup() {
	s.rows = nil
	s.runs = nil
	s.merger = nil
	for _, f := range s.files {
		name := f.Name()
		f.Close()
		os.Remove(name)
	}
	s.files = nil
	s.res.releaseAll()
}

// Close removes any spilled run files and returns budget charges.
func (s *Sort) Close() error {
	s.cleanup()
	return nil
}

// Schema returns the input schema (sort preserves it).
func (s *Sort) Schema() *model.Schema { return s.Input.Schema() }

// runReader streams one spilled run.
type runReader struct {
	dec *gob.Decoder
	cur keyedRow
}

// advance decodes the run's next row, reporting false at io.EOF; a torn,
// corrupt or unreadable run fails the sort instead of ending early.
func (r *runReader) advance() (bool, error) {
	r.cur = keyedRow{}
	switch err := r.dec.Decode(&r.cur); {
	case err == io.EOF:
		return false, nil
	case err != nil:
		return false, fmt.Errorf("exec: reading sort run: %w", err)
	}
	return true, nil
}

// runHeap is a min-heap of runs keyed by their current row.
type runHeap struct {
	items []*runReader
	less  func(a, b []model.Value) bool
}

func (h runHeap) Len() int { return len(h.items) }

func (h runHeap) Less(i, j int) bool { return h.less(h.items[i].cur.Keys, h.items[j].cur.Keys) }
func (h runHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *runHeap) Push(x any) { h.items = append(h.items, x.(*runReader)) }

func (h *runHeap) Pop() any {
	old := h.items
	n := len(old)
	item := old[n-1]
	h.items = old[:n-1]
	return item
}
