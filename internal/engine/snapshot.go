package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/cell"
	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/wal"
)

// A snapshot is the stream of mutations that re-creates the database,
// in the log's own record format: each one a wal frame (wal.AppendFrame)
// around the payload the log would carry for it, LSNs counting from 1.
// In order: instance definitions with their trained models; per table
// its schema, links and tuples in OID order; annotations in Seq order,
// each followed by its extra attachments; the indexes, as bulk builds
// over the replayed summaries; and a closing pSnapshotEnd. Load and
// Open's checkpoint read it the way WAL replay reads the log — wal.Scan,
// then decodeRecord, then apply — so summaries, statistics and indexes
// are re-derived exactly (every mining component is deterministic given
// the replayed order) and every OID and annotation ID comes back as
// dumped. A stream that is torn, holds an undecodable record, lacks its
// end record or has another version is refused whole, never loaded as a
// prefix.

// snapshotVersion is the stream format pSnapshotEnd carries. Version 1
// was a gob dump; it has no end record. Version 2 wrote an instance
// record with one more byte (a write-only index flag). Neither is
// migrated: both are refused.
const snapshotVersion = 3

// pSnapshotEnd closes a snapshot stream. Its apply restores the
// identifier watermarks — gaps left by uncommitted operations included —
// so WAL records replayed on top of a checkpoint line up with the run
// that logged them, and an OID or annotation ID a client holds stays
// valid across Save and Load.
type pSnapshotEnd struct {
	Version, PageCap               int64
	NextOID, NextAnnID, NextAnnSeq int64
	CheckpointLSN                  uint64 // log position a checkpoint captures (0 in a Save)
}

func (p *pSnapshotEnd) appendTo(b []byte) []byte {
	for _, v := range []int64{p.Version, p.PageCap, p.NextOID, p.NextAnnID, p.NextAnnSeq} {
		b = binary.AppendVarint(b, v)
	}
	return binary.AppendUvarint(b, p.CheckpointLSN)
}

func (p *pSnapshotEnd) readFrom(r *cell.Reader) {
	p.Version, p.PageCap, p.NextOID, p.NextAnnID, p.NextAnnSeq = r.Varint(), r.Varint(), r.Varint(), r.Varint(), r.Varint()
	p.CheckpointLSN = r.Uvarint()
}

func (p *pSnapshotEnd) apply(db *DB) error {
	db.cat.SetNextOID(p.NextOID)
	db.cat.Anns.SetCounters(p.NextAnnID, p.NextAnnSeq)
	return nil
}

// Save writes a snapshot of the database to w. The companion Load
// reconstructs an equivalent database: same schemas, tuples, summaries,
// statistics, and indexes, under the same OIDs and annotation IDs. On
// error w may hold part of a stream, which Load refuses.
func (db *DB) Save(w io.Writer) error {
	db.flushIfDirty()
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dump(w, 0)
}

// SaveFile writes a snapshot to path crash-safely (temp file + fsync +
// rename): a crash mid-save leaves any previous snapshot at path intact
// rather than a truncated dump.
func (db *DB) SaveFile(path string) error {
	db.flushIfDirty()
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dumpFile(path, 0)
}

// dump streams the snapshot to w through one buffer; nothing is
// assembled in memory but a table's tuple list and the annotation list,
// which are sorted. The caller holds the shared lock, so the state is
// frozen and every walk emits the same records: a transient storage
// fault (the scans charge pager reads, so they may fail — or panic
// *pager.FaultError — under fault injection) restarts the walk under
// SnapshotRetry, and the new walk skips the records an earlier one
// already wrote, since w cannot be rewound.
func (db *DB) dump(w io.Writer, ckptLSN uint64) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	var lsn, written uint64
	var payload, frame []byte
	var werr error
	emit := func(op mutation) {
		if lsn++; lsn <= written || werr != nil {
			return
		}
		payload = op.appendTo(payload[:0])
		frame = wal.AppendFrame(frame[:0], wal.Record{LSN: lsn, Type: op.recType(), Payload: payload})
		_, werr = bw.Write(frame)
		written = lsn
	}
	err := withRetry(SnapshotRetry, func() error {
		lsn = 0
		for _, name := range db.cat.InstanceNames() {
			emit(&pDefineInstance{Inst: *db.cat.Instance(name), Clf: db.cat.Classifier(name)})
		}
		tableOf := map[int64]string{} // OID -> table name, for the annotations
		for _, name := range db.cat.TableNames() {
			t, _ := db.cat.Table(name)
			emit(&pCreateTable{Name: t.Name, Columns: t.Schema.Columns})
			for _, si := range t.Instances {
				emit(&pLinkInstance{Table: t.Name, Instance: si.Name})
			}
			var tuples []*model.Tuple
			t.Scan(func(_ heap.RID, tu *model.Tuple) bool {
				tuples = append(tuples, tu)
				return true
			})
			sort.Slice(tuples, func(i, j int) bool { return tuples[i].OID < tuples[j].OID })
			for _, tu := range tuples {
				emit(&pInsertTuple{Table: t.Name, OID: tu.OID, Values: tu.Values})
				tableOf[tu.OID] = t.Name
			}
		}
		var anns []*model.Annotation
		db.cat.Anns.All(func(a *model.Annotation) bool {
			anns = append(anns, a)
			return true
		})
		sort.Slice(anns, func(i, j int) bool { return anns[i].Seq < anns[j].Seq })
		for _, a := range anns {
			if tableOf[a.TupleOID] == "" {
				continue // orphaned by a tuple delete; drop
			}
			emit(&pAddAnnotation{Table: tableOf[a.TupleOID], Annotation: *a})
			for _, oid := range db.cat.Anns.Attachments(a.ID) {
				if table := tableOf[oid]; table != "" {
					emit(&pAttachAnnotation{Table: table, OID: oid, AnnID: a.ID})
				}
			}
		}
		for _, name := range db.cat.TableNames() {
			t, _ := db.cat.Table(name)
			for _, col := range t.DataIndexedColumns() {
				emit(&pCreateDataIndex{Table: t.Name, Column: col})
			}
			for _, si := range t.Instances {
				ref := instanceRef{Table: t.Name, Instance: si.Name}
				if t.SummaryIndex(si.Name) != nil {
					emit(&pCreateSummaryIndex{ref})
				}
				if t.BaselineIndex(si.Name) != nil {
					emit(&pCreateBaselineIndex{ref})
				}
			}
		}
		nextAnnID, nextAnnSeq := db.cat.Anns.Counters()
		emit(&pSnapshotEnd{Version: snapshotVersion, PageCap: int64(db.cat.PageCap()), NextOID: db.cat.NextOID(),
			NextAnnID: nextAnnID, NextAnnSeq: nextAnnSeq, CheckpointLSN: ckptLSN})
		return werr
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// dumpFile writes the snapshot to path crash-safely: the bytes go to a
// temp file in the same directory, are fsynced, and only then renamed
// over the destination, so a crash at any point leaves either the old
// complete file or the new complete file — never a torn mix. The
// directory is fsynced after the rename so the new name itself survives;
// a failure there is returned too, because a checkpoint whose name may
// not survive a crash must not let the log be compacted.
func (db *DB) dumpFile(path string, ckptLSN uint64) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("engine: snapshot temp file: %w", err)
	}
	if err = db.dump(f, ckptLSN); err == nil {
		err = db.fsync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("engine: writing snapshot: %w", err)
	}
	d, err := os.Open(dir)
	if err == nil {
		err = db.fsync(d)
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("engine: syncing snapshot directory: %w", err)
	}
	return nil
}

// readSnapshot reads a whole snapshot stream and decodes it, refusing
// it unless every frame is intact, every payload decodes and the last
// is a pSnapshotEnd of this version. Each payload is let go once it is
// decoded (the mutation holds copies of its strings, which the database
// it is applied to keeps), so the stream is never in memory twice.
func readSnapshot(r io.Reader) ([]mutation, *pSnapshotEnd, error) {
	res, err := wal.Scan(r)
	if err != nil {
		return nil, nil, err
	}
	if res.Torn {
		return nil, nil, errors.New("torn snapshot")
	}
	ops := make([]mutation, len(res.Records))
	for i := range res.Records {
		if ops[i], err = decodeRecord(res.Records[i]); err != nil {
			return nil, nil, err
		}
		res.Records[i].Payload = nil
	}
	var end *pSnapshotEnd
	if len(ops) > 0 {
		end, _ = ops[len(ops)-1].(*pSnapshotEnd)
	}
	switch {
	case end == nil:
		return nil, nil, errors.New("snapshot has no end record")
	case end.Version != snapshotVersion:
		return nil, nil, fmt.Errorf("unsupported snapshot version %d", end.Version)
	}
	return ops, end, nil
}

// Load reconstructs a database from a snapshot produced by Save.
func Load(r io.Reader) (*DB, error) {
	return LoadWithConfig(r, Config{})
}

// LoadWithConfig is Load with an explicit configuration for the
// reconstructed database (statement timeout, default budget, fault
// policy; PageCap comes from the snapshot itself). Replay runs under
// SnapshotRetry (see restore).
func LoadWithConfig(r io.Reader, cfg Config) (*DB, error) {
	ops, end, err := readSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("engine: loading snapshot: %w", err)
	}
	cfg.PageCap = int(end.PageCap)
	return restore(cfg, ops, nil, nil)
}
