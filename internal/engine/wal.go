package engine

// Write-ahead logging and crash recovery. The engine logs LOGICAL
// records — one per mutating API call, carrying the operation's inputs
// plus any identifiers the call would assign (OIDs, annotation IDs,
// logical timestamps) — and recovery replays the committed prefix
// through the same deterministic apply paths the live engine uses. The
// protocol is redo-only ARIES-lite:
//
//   - Append before apply: while holding the exclusive lock, a mutator
//     first appends its record (capturing peeked IDs), then applies it.
//     The buffer pool stamps pages dirtied under that lock with the
//     log's appended LSN and forces the log through a page's LSN before
//     its image reaches the backing store (pager.PageLogger).
//   - Group commit: every auto-committed operation appends a commit
//     record under the same lock hold, then waits — outside the lock,
//     so readers drain during the fsync — for the log to become durable
//     through its commit LSN. A dedicated flusher batches all commits
//     that arrive within Config.GroupCommitWindow into one fsync.
//   - Recovery: Open loads the last checkpoint (exact IDs preserved),
//     scans the log — truncating a torn tail to the longest valid
//     prefix — determines the committed transaction set from the commit
//     records found, and replays committed records with LSN beyond the
//     checkpoint in order. Records of uncommitted transactions are
//     skipped; the forced-ID apply paths reproduce the gaps those
//     transactions left in the ID sequences.
//   - Checkpoints: a quiesced snapshot (no active transactions, log
//     forced through the capture LSN, written to a temp file, fsynced,
//     renamed) bounds recovery time; the log is compacted once the
//     checkpoint is durable.
//
// Rollback does not undo — it discards: a transaction's operations are
// BUFFERED (validated and their identifiers reserved immediately, but
// neither logged nor applied) until Commit appends the whole batch plus
// the commit record and applies it under one exclusive hold. Rollback
// just drops the buffer: the live state never contains uncommitted
// effects, nothing reaches the log, and checkpoints stay available
// after any number of rollbacks. Reserved OIDs and annotation IDs stay
// consumed, leaving the same ID gaps an aborted logged run would.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/wal"
)

// Log file names inside Config.WALDir.
const (
	walFile        = "wal.log"
	checkpointFile = "checkpoint.snap"
)

// WAL record types. recCommit marks a transaction's records as durable
// intent; everything else is one logical redo record.
const (
	recCommit wal.Type = iota + 1
	recCreateTable
	recInsertTuple
	recDeleteTuple
	recCreateDataIndex
	recDefineInstance
	recLinkInstance
	recUnlinkInstance
	recCreateSummaryIndex
	recCreateBaselineIndex
	recDropSummaryIndex
	recDropBaselineIndex
	recAddAnnotation
	recAttachAnnotation
	recDeleteAnnotation
)

// Record payloads, gob-encoded. Identifier fields (OID, ID, Seq) are
// the values the original call assigned, so replay forces them.
type (
	pCreateTable struct {
		Name    string
		Columns []snapshotColumnDef
	}
	pInsertTuple struct {
		Table  string
		OID    int64
		Values []model.Value
	}
	pDeleteTuple struct {
		Table string
		OID   int64
	}
	pCreateDataIndex struct {
		Table, Column string
	}
	pDefineInstance struct {
		Inst snapshotInstance
	}
	pLinkInstance struct {
		Table, Instance string
		Indexable       bool
	}
	pInstanceRef struct { // unlink, create/drop summary & baseline index
		Table, Instance string
	}
	pAddAnnotation struct {
		Table   string
		OID     int64
		ID, Seq int64
		Text    string
		Columns []string
		Author  string
	}
	pAttachAnnotation struct {
		Table      string
		OID, AnnID int64
	}
	pDeleteAnnotation struct {
		Table string
		AnnID int64
	}
)

// ErrTxnDone reports an operation on a committed or rolled-back Txn.
var ErrTxnDone = errors.New("engine: transaction already finished")

// logAppend encodes payload and appends one record; with no WAL
// attached it is a no-op returning LSN 0. The caller holds the
// exclusive lock (all appends happen under it, so the log is frozen
// whenever the shared lock is held — checkpoints rely on this). An
// encode failure is a programming bug (payload types are closed) and
// panics; an append failure is an I/O error the mutator must surface.
func (db *DB) logAppend(t wal.Type, txid uint64, payload any) (uint64, error) {
	if db.wal == nil {
		return 0, nil
	}
	var buf bytes.Buffer
	if payload != nil {
		if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
			panic(fmt.Errorf("engine: encoding wal payload %T: %w", payload, err))
		}
	}
	return db.wal.Append(t, txid, buf.Bytes())
}

// runAuto executes one mutation as its own transaction. fn runs under
// the exclusive lock with a fresh transaction ID: it appends its
// operation record and applies it, returning the record's LSN (0 if
// nothing was logged — WAL off or validation failed before the
// append). If a record was appended, the commit record follows under
// the SAME lock hold — a checkpoint can therefore never capture
// effects of an auto-transaction without also covering its commit
// record — and the commit is forced durable after the lock is
// released, so concurrent readers drain while the fsync runs.
//
// When fn appended its record but failed during apply, the commit
// record is still written: replay reproduces the identical
// deterministic outcome (including partial application), keeping
// recovered state byte-equivalent to the live state that the caller
// observed alongside the returned error.
//
// The next epoch is published before the lock drops — even on error,
// because fn may have applied partial effects, and the live-visibility
// contract says queries see exactly what the mutator left behind. The
// one exception is the ingest hot path: an operation that only added to
// the net-delta buffer and left it under the flush threshold publishes
// nothing. Readers pin published epochs, so its raw annotation stays
// invisible and no per-op copy-on-write shells are built; the dirty
// flag raised instead makes the next read force the flush (and the
// publication) first. A threshold of 0 or 1 trips on every operation.
func (db *DB) runAuto(fn func(txid uint64) (uint64, error)) error {
	db.mu.Lock()
	db.nextTxID++
	txid := db.nextTxID
	pending := db.ingest.ops
	opLSN, err := fn(txid)
	var commitLSN uint64
	var l *wal.Log
	if opLSN != 0 {
		var cerr error
		commitLSN, cerr = db.logAppend(recCommit, txid, nil)
		if err == nil {
			err = cerr
		}
		l = db.wal
	}
	if db.ingest.ops > pending && db.ingest.ops < db.ingestEvery {
		db.ingestDirty.Store(true)
	} else {
		if db.ingest.ops >= db.ingestEvery {
			db.flushIngestLocked()
		}
		db.publishLocked()
	}
	db.mu.Unlock()
	if commitLSN != 0 && l != nil {
		if cerr := l.Commit(commitLSN); cerr != nil && err == nil {
			err = cerr
		}
		db.maybeCheckpoint()
	}
	return err
}

// walLog returns the attached log under the shared lock (nil when
// durability is off).
func (db *DB) walLog() *wal.Log {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.wal
}

// Open creates or reopens a database. With Config.WALDir set, the
// directory holds the durable state — a checkpoint snapshot and the
// write-ahead log — and Open recovers it to the committed prefix:
// checkpoint load (exact IDs), torn-tail truncation, committed-set
// scan, ordered redo of committed records. With WALDir empty, Open is
// New: an ephemeral in-memory database.
func Open(cfg Config) (*DB, error) {
	if cfg.WALDir == "" {
		return New(cfg), nil
	}
	if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: wal dir: %w", err)
	}
	acct := newAccountant(cfg)

	// Checkpoint, if any.
	var snap *snapshot
	ckptPath := filepath.Join(cfg.WALDir, checkpointFile)
	if f, err := os.Open(ckptPath); err == nil {
		var s snapshot
		derr := gob.NewDecoder(f).Decode(&s)
		f.Close()
		if derr != nil {
			return nil, fmt.Errorf("engine: decoding checkpoint: %w", derr)
		}
		if s.Version != 1 {
			return nil, fmt.Errorf("engine: unsupported checkpoint version %d", s.Version)
		}
		if cfg.PageCap == 0 {
			cfg.PageCap = s.PageCap
		}
		snap = &s
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("engine: opening checkpoint: %w", err)
	}

	var db *DB
	var ckptLSN uint64
	err := withRetry(SnapshotRetry, func() error {
		db = newDB(cfg, acct)
		if snap == nil {
			return nil
		}
		ckptLSN = snap.WalLSN
		return db.loadSnapshot(snap)
	})
	if err != nil {
		return nil, err
	}

	// Log scan: truncate any torn tail, then find the committed set by
	// reading the WHOLE intact log for commit records before replaying —
	// a transaction's commit record may sit far past its operations.
	logPath := filepath.Join(cfg.WALDir, walFile)
	res, err := wal.Recover(logPath)
	if err != nil {
		return nil, err
	}
	committed := make(map[uint64]bool)
	var maxTx uint64
	for _, rec := range res.Records {
		if rec.TxID > maxTx {
			maxTx = rec.TxID
		}
		if rec.Type == recCommit {
			committed[rec.TxID] = true
		}
	}
	for _, rec := range res.Records {
		if rec.LSN <= ckptLSN || rec.Type == recCommit || !committed[rec.TxID] {
			continue
		}
		if err := db.replayRecord(rec); err != nil {
			return nil, fmt.Errorf("engine: wal replay of lsn %d: %w", rec.LSN, err)
		}
		db.recoveryReplayed++
	}

	next := res.LastLSN()
	if ckptLSN > next {
		next = ckptLSN
	}
	l, err := wal.Open(logPath, wal.Options{
		GroupCommitWindow: cfg.GroupCommitWindow,
		SyncDelay:         cfg.WALSyncDelay,
		NextLSN:           next + 1,
	})
	if err != nil {
		return nil, err
	}
	// Publish the log before any concurrent use; transaction IDs resume
	// past every ID seen in the scanned log so replayed and new
	// transactions never collide.
	db.wal = l
	db.walDir = cfg.WALDir
	db.checkpointEvery = cfg.CheckpointEveryN
	db.nextTxID = maxTx
	acct.SetPageLogger(l)
	// Publish the recovery epoch: readers admitted from here on see the
	// replayed committed prefix with AsOfLSN at the recovered log
	// position. The DB is not shared yet, but publishLocked's contract
	// asks for the lock. Checkpointed and replayed annotations were
	// buffered exactly as live ones are; one final flush folds the whole
	// net delta before the epoch publishes. Where the flushes fall does
	// not change the flushed state (see ingest.go), so the recovered
	// summaries equal the crashed run's whatever its threshold was.
	db.mu.Lock()
	db.flushIngestLocked()
	db.publishLocked()
	db.mu.Unlock()
	db.startIngestFlusher(cfg.IngestFlushInterval)
	return db, nil
}

// replayRecord redoes one committed record through the engine's
// deterministic apply paths. Apply-level errors are swallowed: the
// original call hit the same deterministic error (or deterministic
// partial application) when the record was logged, so replay reproduces
// that exact outcome. Only decode failures — corruption that passed the
// CRC, or version skew — are returned.
func (db *DB) replayRecord(rec wal.Record) error {
	dec := func(v any) error {
		return gob.NewDecoder(bytes.NewReader(rec.Payload)).Decode(v)
	}
	switch rec.Type {
	case recCreateTable:
		var p pCreateTable
		if err := dec(&p); err != nil {
			return err
		}
		cols := make([]model.Column, len(p.Columns))
		for i, c := range p.Columns {
			cols[i] = model.Column{Name: c.Name, Kind: c.Kind}
		}
		db.cat.CreateTable(p.Name, model.NewSchema("", cols...))
		db.bumpCatalogVersion()
	case recInsertTuple:
		var p pInsertTuple
		if err := dec(&p); err != nil {
			return err
		}
		if t, err := db.cat.Table(p.Table); err == nil {
			t.InsertWithOID(p.OID, p.Values)
		}
	case recDeleteTuple:
		var p pDeleteTuple
		if err := dec(&p); err != nil {
			return err
		}
		if t, err := db.cat.Table(p.Table); err == nil {
			if rid, ok := t.DiskTupleLoc(p.OID); ok {
				db.applyDeleteTuple(t, p.Table, p.OID, rid)
			}
		}
	case recCreateDataIndex:
		var p pCreateDataIndex
		if err := dec(&p); err != nil {
			return err
		}
		db.applyCreateDataIndex(p.Table, p.Column)
	case recDefineInstance:
		var p pDefineInstance
		if err := dec(&p); err != nil {
			return err
		}
		db.applyDefineInstance(&p.Inst)
	case recLinkInstance:
		var p pLinkInstance
		if err := dec(&p); err != nil {
			return err
		}
		db.applyLinkInstance(p.Table, p.Instance, p.Indexable)
	case recUnlinkInstance:
		var p pInstanceRef
		if err := dec(&p); err != nil {
			return err
		}
		db.applyUnlinkInstance(p.Table, p.Instance)
	case recCreateSummaryIndex:
		var p pInstanceRef
		if err := dec(&p); err != nil {
			return err
		}
		db.createSummaryIndex(p.Table, p.Instance)
	case recCreateBaselineIndex:
		var p pInstanceRef
		if err := dec(&p); err != nil {
			return err
		}
		db.createBaselineIndex(p.Table, p.Instance)
	case recDropSummaryIndex:
		var p pInstanceRef
		if err := dec(&p); err != nil {
			return err
		}
		db.applyDropSummaryIndex(p.Table, p.Instance)
	case recDropBaselineIndex:
		var p pInstanceRef
		if err := dec(&p); err != nil {
			return err
		}
		db.applyDropBaselineIndex(p.Table, p.Instance)
	case recAddAnnotation:
		var p pAddAnnotation
		if err := dec(&p); err != nil {
			return err
		}
		db.applyAddAnnotation(p.Table, p.OID, p.ID, p.Seq, p.Text, p.Columns, p.Author)
	case recAttachAnnotation:
		var p pAttachAnnotation
		if err := dec(&p); err != nil {
			return err
		}
		db.applyAttachAnnotation(p.Table, p.OID, p.AnnID)
	case recDeleteAnnotation:
		var p pDeleteAnnotation
		if err := dec(&p); err != nil {
			return err
		}
		db.applyDeleteAnnotation(p.Table, p.AnnID)
	default:
		return fmt.Errorf("unknown record type %d", rec.Type)
	}
	return nil
}

// Txn batches several mutations into one atomic unit. Each operation
// validates against the live state plus the transaction's own pending
// effects and reserves any identifiers it will assign (OIDs, annotation
// IDs, timestamps), but its effects are BUFFERED: nothing is logged,
// applied, or visible to queries until Commit, which appends every
// record plus the commit record and applies the batch under one
// exclusive hold before publishing the next epoch. Readers therefore
// see either none or all of a transaction, and Rollback is a pure
// discard of the buffer.
type Txn struct {
	db   *DB
	id   uint64
	ops  []txnOp
	done bool
	// Pending-visibility maps: later operations of this transaction must
	// see its earlier buffered effects, which the live state does not
	// contain until Commit applies them.
	newOIDs map[string]map[int64]bool   // tx-inserted tuples, per lowercase table
	delOIDs map[string]map[int64]bool   // tx-deleted tuples, per lowercase table
	newAnns map[int64]*model.Annotation // tx-added annotations, by reserved ID
	delAnns map[int64]bool              // tx-deleted annotation IDs
}

// txnOp is one buffered operation: the WAL record Commit will append
// and the deterministic apply closure that redoes it. The closures are
// the same replay-tolerant paths recovery uses, so apply-level errors
// are swallowed exactly as replayRecord swallows them.
type txnOp struct {
	rt    wal.Type
	pay   any
	apply func(db *DB)
}

// Begin starts a transaction. While any transaction is open,
// checkpoints are refused — a simple quiesce rule kept even though
// buffering means the live state never holds uncommitted effects.
func (db *DB) Begin() *Txn {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.nextTxID++
	db.activeTxns++
	return &Txn{
		db:      db,
		id:      db.nextTxID,
		newOIDs: make(map[string]map[int64]bool),
		delOIDs: make(map[string]map[int64]bool),
		newAnns: make(map[int64]*model.Annotation),
		delAnns: make(map[int64]bool),
	}
}

// run executes one validate-and-buffer step under the exclusive lock
// with this transaction's ID.
func (tx *Txn) run(fn func() error) error {
	if tx.done {
		return ErrTxnDone
	}
	tx.db.mu.Lock()
	err := fn()
	tx.db.mu.Unlock()
	return err
}

// tupleVisible reports whether the transaction can see a tuple: live in
// the table or buffered by an earlier Insert, and not buffered-deleted.
func (tx *Txn) tupleVisible(t *catalog.Table, table string, oid int64) bool {
	key := strings.ToLower(table)
	if tx.delOIDs[key][oid] {
		return false
	}
	if _, ok := t.DiskTupleLoc(oid); ok {
		return true
	}
	return tx.newOIDs[key][oid]
}

// annVisible reports whether the transaction can see an annotation.
func (tx *Txn) annVisible(annID int64) bool {
	if tx.delAnns[annID] {
		return false
	}
	if _, ok := tx.db.cat.Anns.Get(annID); ok {
		return true
	}
	return tx.newAnns[annID] != nil
}

// Insert adds a tuple within the transaction, reserving and returning
// the OID it will occupy after Commit.
func (tx *Txn) Insert(table string, values ...model.Value) (int64, error) {
	var oid int64
	err := tx.run(func() error {
		db := tx.db
		t, err := db.cat.Table(table)
		if err != nil {
			return err
		}
		if len(values) != t.Schema.Len() {
			return fmt.Errorf("catalog: %s expects %d values, got %d", t.Name, t.Schema.Len(), len(values))
		}
		oid = t.PeekOID()
		db.cat.SetNextOID(oid) // consume: interleaved writers must not reuse it
		key := strings.ToLower(table)
		if tx.newOIDs[key] == nil {
			tx.newOIDs[key] = make(map[int64]bool)
		}
		tx.newOIDs[key][oid] = true
		p := pInsertTuple{Table: table, OID: oid, Values: values}
		tx.ops = append(tx.ops, txnOp{rt: recInsertTuple, pay: p, apply: func(db *DB) {
			if t, err := db.cat.Table(p.Table); err == nil {
				t.InsertWithOID(p.OID, p.Values)
			}
		}})
		return nil
	})
	return oid, err
}

// AddAnnotation attaches a raw annotation within the transaction. The
// returned annotation carries the reserved ID and timestamp; the stored
// copy materializes at Commit.
func (tx *Txn) AddAnnotation(table string, oid int64, text string, columns []string, author string) (*model.Annotation, error) {
	var ann *model.Annotation
	err := tx.run(func() error {
		db := tx.db
		t, err := db.cat.Table(table)
		if err != nil {
			return err
		}
		if !tx.tupleVisible(t, table, oid) {
			return fmt.Errorf("engine: %s has no tuple %d", table, oid)
		}
		id, seq := db.cat.Anns.PeekID(), db.cat.Anns.PeekSeq()
		db.cat.Anns.SetCounters(id, seq) // consume the reserved identifiers
		ann = &model.Annotation{ID: id, Text: text, TupleOID: oid, Columns: columns, Author: author, Seq: seq}
		tx.newAnns[id] = ann
		p := pAddAnnotation{
			Table: table, OID: oid, ID: id, Seq: seq, Text: text, Columns: columns, Author: author,
		}
		tx.ops = append(tx.ops, txnOp{rt: recAddAnnotation, pay: p, apply: func(db *DB) {
			db.applyAddAnnotation(p.Table, p.OID, p.ID, p.Seq, p.Text, p.Columns, p.Author)
		}})
		return nil
	})
	return ann, err
}

// AttachAnnotation attaches an existing annotation to another tuple
// within the transaction.
func (tx *Txn) AttachAnnotation(table string, oid, annID int64) error {
	return tx.run(func() error {
		db := tx.db
		t, err := db.cat.Table(table)
		if err != nil {
			return err
		}
		if !tx.tupleVisible(t, table, oid) {
			return fmt.Errorf("engine: %s has no tuple %d", table, oid)
		}
		if !tx.annVisible(annID) {
			return fmt.Errorf("engine: no annotation %d", annID)
		}
		p := pAttachAnnotation{Table: table, OID: oid, AnnID: annID}
		tx.ops = append(tx.ops, txnOp{rt: recAttachAnnotation, pay: p, apply: func(db *DB) {
			db.applyAttachAnnotation(p.Table, p.OID, p.AnnID)
		}})
		return nil
	})
}

// DeleteAnnotation removes an annotation within the transaction.
func (tx *Txn) DeleteAnnotation(table string, annID int64) error {
	return tx.run(func() error {
		db := tx.db
		if _, err := db.cat.Table(table); err != nil {
			return err
		}
		if !tx.annVisible(annID) {
			return fmt.Errorf("engine: no annotation %d", annID)
		}
		tx.delAnns[annID] = true
		p := pDeleteAnnotation{Table: table, AnnID: annID}
		tx.ops = append(tx.ops, txnOp{rt: recDeleteAnnotation, pay: p, apply: func(db *DB) {
			db.applyDeleteAnnotation(p.Table, p.AnnID)
		}})
		return nil
	})
}

// DeleteTuple removes a tuple within the transaction.
func (tx *Txn) DeleteTuple(table string, oid int64) error {
	return tx.run(func() error {
		db := tx.db
		t, err := db.cat.Table(table)
		if err != nil {
			return err
		}
		if !tx.tupleVisible(t, table, oid) {
			return fmt.Errorf("engine: %s has no tuple %d", table, oid)
		}
		key := strings.ToLower(table)
		if tx.delOIDs[key] == nil {
			tx.delOIDs[key] = make(map[int64]bool)
		}
		tx.delOIDs[key][oid] = true
		p := pDeleteTuple{Table: table, OID: oid}
		tx.ops = append(tx.ops, txnOp{rt: recDeleteTuple, pay: p, apply: func(db *DB) {
			if t, err := db.cat.Table(p.Table); err == nil {
				if rid, ok := t.DiskTupleLoc(p.OID); ok {
					db.applyDeleteTuple(t, p.Table, p.OID, rid)
				}
			}
		}})
		return nil
	})
}

// Commit makes the transaction real: under one exclusive hold it
// appends every buffered record followed by the commit record, applies
// the batch through the deterministic redo paths, and publishes the
// next epoch. If any append fails the transaction aborts cleanly —
// nothing is applied or published, and with no commit record in the log
// recovery discards whatever records made it in. After a nil return the
// whole transaction is visible to new readers and survives any crash
// once the commit is forced durable under the group-commit policy.
func (tx *Txn) Commit() error {
	if tx.done {
		return ErrTxnDone
	}
	db := tx.db
	db.mu.Lock()
	tx.done = true
	db.activeTxns--
	var commitLSN uint64
	var err error
	var l *wal.Log
	if len(tx.ops) > 0 {
		for _, op := range tx.ops {
			if _, err = db.logAppend(op.rt, tx.id, op.pay); err != nil {
				break
			}
		}
		if err == nil {
			commitLSN, err = db.logAppend(recCommit, tx.id, nil)
		}
		if err == nil {
			for _, op := range tx.ops {
				op.apply(db)
			}
			// Commit is a flush trigger: the transaction's own annotation
			// adds (and any older autocommitted tail) buffered their
			// maintenance; fold the net delta so the epoch published for
			// this commit carries fully maintained summaries.
			db.flushIngestLocked()
			db.publishLocked()
			l = db.wal
		}
	}
	db.mu.Unlock()
	if err != nil {
		return err
	}
	if commitLSN != 0 && l != nil {
		if err := l.Commit(commitLSN); err != nil {
			return err
		}
		db.maybeCheckpoint()
	}
	return nil
}

// Rollback abandons the transaction by discarding its buffer. Nothing
// was logged or applied, so there is nothing to undo: queries never saw
// the transaction, the log holds no trace of it, and checkpoints remain
// available. Only the reserved identifiers stay consumed, leaving ID
// gaps exactly as an uncommitted logged run would.
func (tx *Txn) Rollback() {
	if tx.done {
		return
	}
	db := tx.db
	db.mu.Lock()
	tx.done = true
	db.activeTxns--
	db.mu.Unlock()
}

// maybeCheckpoint triggers a checkpoint after Config.CheckpointEveryN
// committed operations. Exactly one of the committers racing past the
// threshold claims the trigger by swapping the counter to zero; the
// losers see a residue below the threshold restored and keep counting.
// Without the claim, every commit past the threshold re-fired the
// checkpoint until one completed — N concurrent committers meant up to
// N redundant snapshots. Best-effort: a refused or failed attempt
// re-arms by restoring the claimed count so the next commit retries.
func (db *DB) maybeCheckpoint() {
	if db.checkpointEvery <= 0 {
		return
	}
	if db.walOps.Add(1) < int64(db.checkpointEvery) {
		return
	}
	old := db.walOps.Swap(0)
	if old < int64(db.checkpointEvery) {
		// Another committer already claimed this trigger; give the
		// residue back.
		db.walOps.Add(old)
		return
	}
	if ok, err := db.Checkpoint(); err != nil || !ok {
		db.walOps.Add(old)
	}
}

// Checkpoint captures a quiesced snapshot of the database and compacts
// the log up to it, bounding recovery time. It returns (false, nil) —
// refused, not failed — when durability is off or a transaction is
// open (buffered transactions never leak uncommitted effects into the
// live state, but refusing keeps the capture rule trivially simple).
// Rollback never poisons the live state, so rolled-back transactions
// do not block checkpoints. The snapshot is taken under the shared
// lock (mutators and therefore log appends are frozen; queries run on
// pinned epochs and are unaffected), forced to disk via temp file +
// fsync + rename, and only then is the log truncated.
func (db *DB) Checkpoint() (bool, error) {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	// Checkpoints are a flush trigger. The snapshot itself is raw-logical
	// (summaries re-derive on load), but flushing first — before taking
	// the shared lock, which flushIngest must not be held under — keeps
	// the invariant that a checkpointed database has no pending net
	// deltas and its published epoch equals its stored state.
	db.FlushIngest()
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil || db.activeTxns > 0 {
		return false, nil
	}
	snapLSN := db.wal.AppendedLSN()
	// The WAL rule extends to checkpoints: everything the snapshot
	// captures must be durable in the log before the snapshot can
	// supersede it.
	if err := db.wal.Flush(snapLSN); err != nil {
		return false, err
	}
	var snap *snapshot
	err := withRetry(SnapshotRetry, func() error {
		var berr error
		snap, berr = db.buildSnapshot()
		return berr
	})
	if err != nil {
		return false, err
	}
	snap.WalLSN = snapLSN
	if err := writeSnapshotAtomic(filepath.Join(db.walDir, checkpointFile), snap); err != nil {
		return false, err
	}
	if _, err := db.wal.Compact(snapLSN); err != nil {
		return false, err
	}
	db.checkpoints.Add(1)
	db.walOps.Store(0)
	return true, nil
}
