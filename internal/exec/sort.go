package exec

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/cell"
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

// appendKeyedRow appends k's run record in the cell encoding: the sort
// keys, the tuple's OID, values and summaries, then the alias sets.
func appendKeyedRow(dst []byte, k *keyedRow) []byte {
	t := k.Row.Tuple
	dst = model.AppendRow(dst, k.Keys)
	dst = binary.AppendVarint(dst, t.OID)
	dst = model.AppendRow(dst, t.Values)
	dst = model.AppendSummarySet(dst, t.Summaries)
	dst = binary.AppendUvarint(dst, uint64(len(k.Row.AliasSets)))
	for alias, set := range k.Row.AliasSets {
		dst = model.AppendSummarySet(cell.AppendString(dst, alias), set)
	}
	return dst
}

// readKeyedRow reads a record written by appendKeyedRow.
func readKeyedRow(r *cell.Reader) keyedRow {
	k := keyedRow{Keys: model.ReadRow(r), Row: &Row{Tuple: &model.Tuple{OID: r.Varint()}}}
	k.Row.Tuple.Values, k.Row.Tuple.Summaries = model.ReadRow(r), model.ReadSummarySet(r)
	if n := r.Len(); n > 0 {
		k.Row.AliasSets = make(map[string]model.SummarySet, n)
		for ; n > 0; n-- {
			alias := r.Text()
			k.Row.AliasSets[alias] = model.ReadSummarySet(r)
		}
	}
	return k
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
	var rec, lenBuf []byte // a run record's encoding and its length prefix
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		sort.SliceStable(buf, func(i, j int) bool { return s.lessKeys(buf[i].Keys, buf[j].Keys) })
		f, err := os.CreateTemp("", "insightnotes-sortrun-*")
		if err != nil {
			return err
		}
		discard := func() {
			f.Close()
			os.Remove(f.Name())
		}
		// A run is a sequence of records, each its length then its cell.
		// The writer keeps its first error, which Flush reports.
		w := bufio.NewWriter(f)
		for i := range buf {
			rec = appendKeyedRow(rec[:0], &buf[i])
			_, _ = w.Write(binary.AppendUvarint(lenBuf[:0], uint64(len(rec))))
			_, _ = w.Write(rec)
		}
		if err := w.Flush(); err != nil {
			discard()
			return fmt.Errorf("exec: writing sort run: %w", err)
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
		s.runs = append(s.runs, &runReader{r: bufio.NewReader(f)})
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
	r   *bufio.Reader
	rec []byte
	cur keyedRow
}

// advance decodes the run's next row, reporting false only at an end of
// file that falls on a record boundary; a torn, corrupt or unreadable
// run fails the sort instead of ending early.
func (r *runReader) advance() (bool, error) {
	r.cur = keyedRow{}
	n, err := binary.ReadUvarint(r.r)
	if err == io.EOF {
		return false, nil
	}
	if err == nil && n > 1<<31 {
		err = fmt.Errorf("record length %d out of range", n)
	}
	if err == nil {
		r.rec = append(r.rec[:0], make([]byte, n)...)
		if _, err = io.ReadFull(r.r, r.rec); err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	if err == nil {
		r.cur, err = cell.Decode(r.rec, readKeyedRow)
	}
	if err != nil {
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
