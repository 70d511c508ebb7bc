package engine

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/mining/bayes"
	"repro/internal/model"
)

// The snapshot format is a LOGICAL dump: schemas, instance definitions,
// trained classifier models, tuples, raw annotations with their
// attachments, index declarations, and the identifier watermarks. Load
// and checkpoint recovery turn it back into the mutations of wal.go —
// the same typed records, applied by the same methods, as a commit or a
// WAL replay — so summaries, statistics, and indexes are re-derived
// exactly (every mining component is deterministic given the replayed
// order) and every OID and annotation ID comes back as dumped. This
// keeps the on-disk format independent of internal storage layouts.

type snapshotInstance struct {
	Def             catalog.SummaryInstance
	ClassifierState *bayes.State // nil for non-classifier instances
}

type snapshotColumnDef struct {
	Name string
	Kind model.Kind
}

type snapshotTuple struct {
	OID    int64
	Values []model.Value
}

type snapshotTable struct {
	Name        string
	Columns     []snapshotColumnDef
	Tuples      []snapshotTuple
	Instances   []string // linked instance names
	SummaryIdx  []string // instances with a Summary-BTree
	BaselineIdx []string // instances with a baseline index
	DataIdx     []string // data-indexed columns
}

type snapshotAnnotation struct {
	Text     string
	TupleOID int64 // primary attachment
	Columns  []string
	Author   string
	Seq      int64
	// Extra lists additional tuple attachments (OIDs).
	Extra []int64
	ID    int64
}

type snapshot struct {
	Version     int
	Instances   []snapshotInstance
	Tables      []snapshotTable
	Annotations []snapshotAnnotation // in Seq order
	PageCap     int

	// Identifier watermarks. Loading restores exact identifier assignment
	// — including gaps left by uncommitted operations — so WAL records
	// replayed on top of a checkpoint line up with the run that logged
	// them, and an OID or annotation ID a client holds stays valid across
	// Save and Load.
	WalLSN     uint64 // log position a checkpoint captures (0 in a Save)
	NextOID    int64  // catalog OID watermark
	NextAnnID  int64  // annotation ID watermark
	NextAnnSeq int64  // annotation logical-timestamp watermark
}

// Save writes a logical snapshot of the database. The companion Load
// reconstructs an equivalent database: same schemas, tuples, summaries,
// statistics, and indexes, under the same OIDs and annotation IDs.
//
// The snapshot is assembled in memory under SnapshotRetry, so transient
// storage faults during the table/annotation scans are retried with
// backoff; only then is the result encoded to w in one pass (a writer
// cannot be rewound, so encoding is never retried).
func (db *DB) Save(w io.Writer) error {
	db.flushIfDirty()
	db.mu.RLock()
	defer db.mu.RUnlock()
	var snap *snapshot
	err := withRetry(SnapshotRetry, func() error {
		var berr error
		snap, berr = db.buildSnapshot()
		return berr
	})
	if err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(snap)
}

// buildSnapshot assembles the logical dump (callers hold the shared
// lock). Its heap scans charge pager reads, so it may fail — or panic
// *pager.FaultError — under fault injection; withRetry absorbs both.
func (db *DB) buildSnapshot() (*snapshot, error) {
	snap := snapshot{Version: 1, PageCap: db.pageCap()}
	snap.NextOID = db.cat.NextOID()
	snap.NextAnnID, snap.NextAnnSeq = db.cat.Anns.Counters()

	// Instance registry, sorted for determinism.
	var instNames []string
	for name := range db.instances {
		instNames = append(instNames, name)
	}
	sort.Strings(instNames)
	for _, name := range instNames {
		si := db.instances[name]
		entry := snapshotInstance{Def: *si}
		if clf := db.classifiers[name]; clf != nil {
			entry.ClassifierState = clf.State()
		}
		snap.Instances = append(snap.Instances, entry)
	}

	// Tables.
	primaryOwner := map[int64]bool{} // OIDs present in the dump
	for _, name := range db.cat.TableNames() {
		t, err := db.cat.Table(name)
		if err != nil {
			return nil, err
		}
		st := snapshotTable{Name: t.Name, DataIdx: t.DataIndexedColumns()}
		for _, c := range t.Schema.Columns {
			st.Columns = append(st.Columns, snapshotColumnDef{Name: c.Name, Kind: c.Kind})
		}
		t.Scan(func(_ heap.RID, tu *model.Tuple) bool {
			st.Tuples = append(st.Tuples, snapshotTuple{OID: tu.OID,
				Values: append([]model.Value(nil), tu.Values...)})
			primaryOwner[tu.OID] = true
			return true
		})
		sort.Slice(st.Tuples, func(i, j int) bool { return st.Tuples[i].OID < st.Tuples[j].OID })
		for _, si := range t.Instances {
			st.Instances = append(st.Instances, si.Name)
			if db.summaryIndex(t.Name, si.Name) != nil {
				st.SummaryIdx = append(st.SummaryIdx, si.Name)
			}
			if db.baselineIndex(t.Name, si.Name) != nil {
				st.BaselineIdx = append(st.BaselineIdx, si.Name)
			}
		}
		snap.Tables = append(snap.Tables, st)
	}

	// Annotations in Seq order, with extra attachments discovered by
	// scanning every tuple's attachment list.
	attachedTo := map[int64][]int64{} // annID -> tuple OIDs beyond the primary
	for _, st := range snap.Tables {
		for _, tu := range st.Tuples {
			for _, a := range db.cat.Anns.ForTuple(tu.OID) {
				if a.TupleOID != tu.OID {
					attachedTo[a.ID] = append(attachedTo[a.ID], tu.OID)
				}
			}
		}
	}
	var anns []*model.Annotation
	db.cat.Anns.All(func(a *model.Annotation) bool {
		anns = append(anns, a)
		return true
	})
	sort.Slice(anns, func(i, j int) bool { return anns[i].Seq < anns[j].Seq })
	for _, a := range anns {
		if !primaryOwner[a.TupleOID] {
			continue // orphan (its tuple was deleted); drop
		}
		extra := append([]int64(nil), attachedTo[a.ID]...)
		sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
		snap.Annotations = append(snap.Annotations, snapshotAnnotation{
			Text: a.Text, TupleOID: a.TupleOID,
			Columns: append([]string(nil), a.Columns...),
			Author:  a.Author, Seq: a.Seq, Extra: extra, ID: a.ID,
		})
	}

	return &snap, nil
}

// pageCap recovers the configured records-per-page parameter.
func (db *DB) pageCap() int {
	for _, name := range db.cat.TableNames() {
		if t, err := db.cat.Table(name); err == nil {
			return t.Data.PageCap()
		}
	}
	return 0
}

// Load reconstructs a database from a snapshot produced by Save.
func Load(r io.Reader) (*DB, error) {
	return LoadWithConfig(r, Config{})
}

// LoadWithConfig is Load with an explicit configuration for the
// reconstructed database (statement timeout, default budget, fault
// policy; PageCap comes from the snapshot itself).
//
// Replay runs under SnapshotRetry: a transient storage fault discards
// the half-built database and replays the decoded snapshot from
// scratch. All attempts share one pager accountant, so fault-injection
// state (FailFirstWrites windows in particular) progresses across
// attempts instead of re-arming each try.
func LoadWithConfig(r io.Reader, cfg Config) (*DB, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("engine: decoding snapshot: %w", err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("engine: unsupported snapshot version %d", snap.Version)
	}
	cfg.PageCap = snap.PageCap
	acct := newAccountant(cfg)
	var db *DB
	err := withRetry(SnapshotRetry, func() error {
		db = newDB(cfg, acct)
		if err := db.loadSnapshot(&snap); err != nil {
			return err
		}
		// The DB is not shared yet; one flush folds whatever net delta the
		// load left buffered before the first epoch readers can pin.
		db.flushIngestLocked()
		db.publishLocked()
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Start the interval flush loop only once replay has succeeded (retries
	// rebuild the DB; a timer on a discarded attempt would leak).
	db.startIngestFlusher(cfg.IngestFlushInterval)
	return db, nil
}

// loadSnapshot rebuilds state from a dump by applying it as the
// mutations that would have produced it: instances; per table its
// schema, links and tuples; annotations in their original Seq order
// (summarization re-derives every summary object and statistic), each
// followed by its extra attachments; indexes last, as bulk builds over
// the replayed summaries. The watermarks are restored after that, so
// gaps left by uncommitted operations survive the round trip. The
// caller owns the DB privately and flushes the ingest buffer and
// publishes once it has replayed everything it means to (Open replays
// the WAL on top first).
func (db *DB) loadSnapshot(snap *snapshot) error {
	var err error
	apply := func(op mutation) {
		if err == nil {
			err = op.apply(db)
		}
	}
	for _, inst := range snap.Instances {
		apply(&pDefineInstance{Inst: inst})
	}
	tableOf := map[int64]string{} // OID -> table name
	for _, st := range snap.Tables {
		apply(&pCreateTable{Name: st.Name, Columns: st.Columns})
		for _, inst := range st.Instances {
			apply(&pLinkInstance{Table: st.Name, Instance: inst})
		}
		for _, tu := range st.Tuples {
			apply(&pInsertTuple{Table: st.Name, OID: tu.OID, Values: tu.Values})
			tableOf[tu.OID] = st.Name
		}
	}
	for _, a := range snap.Annotations {
		table := tableOf[a.TupleOID]
		if table == "" {
			continue
		}
		apply(&pAddAnnotation{Table: table, OID: a.TupleOID, ID: a.ID, Seq: a.Seq,
			Text: a.Text, Columns: a.Columns, Author: a.Author})
		for _, oid := range a.Extra {
			if t2 := tableOf[oid]; t2 != "" {
				apply(&pAttachAnnotation{Table: t2, OID: oid, AnnID: a.ID})
			}
		}
	}
	for _, st := range snap.Tables {
		for _, col := range st.DataIdx {
			apply(&pCreateDataIndex{Table: st.Name, Column: col})
		}
		for _, inst := range st.SummaryIdx {
			apply(&pCreateSummaryIndex{Table: st.Name, Instance: inst})
		}
		for _, inst := range st.BaselineIdx {
			apply(&pCreateBaselineIndex{Table: st.Name, Instance: inst})
		}
	}
	if err != nil {
		return err
	}
	db.cat.SetNextOID(snap.NextOID)
	db.cat.Anns.SetCounters(snap.NextAnnID, snap.NextAnnSeq)
	return nil
}

// writeSnapshotAtomic encodes snap to path crash-safely: the bytes go to
// a temp file in the same directory, are fsynced, and only then renamed
// over the destination, so a crash at any point leaves either the old
// complete file or the new complete file — never a torn mix. The
// directory is fsynced after the rename so the new name itself survives.
func writeSnapshotAtomic(path string, snap *snapshot) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("engine: snapshot temp file: %w", err)
	}
	tmp := f.Name()
	fail := func(e error) error {
		f.Close()
		os.Remove(tmp)
		return e
	}
	if err := gob.NewEncoder(f).Encode(snap); err != nil {
		return fail(fmt.Errorf("engine: encoding snapshot: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("engine: syncing snapshot: %w", err))
	}
	if err := f.Close(); err != nil {
		return fail(fmt.Errorf("engine: closing snapshot: %w", err))
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("engine: publishing snapshot: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// SaveFile writes a logical snapshot to path crash-safely (temp file +
// fsync + rename): a crash mid-save leaves any previous snapshot at path
// intact rather than a truncated dump.
func (db *DB) SaveFile(path string) error {
	db.flushIfDirty()
	db.mu.RLock()
	defer db.mu.RUnlock()
	var snap *snapshot
	err := withRetry(SnapshotRetry, func() error {
		var berr error
		snap, berr = db.buildSnapshot()
		return berr
	})
	if err != nil {
		return err
	}
	return writeSnapshotAtomic(path, snap)
}
