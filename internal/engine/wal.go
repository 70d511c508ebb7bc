package engine

// Write-ahead logging, crash recovery, and the one mutation pipeline.
// The engine logs LOGICAL records — one per mutating API call, carrying
// the operation's inputs plus any identifiers the call assigned (OIDs,
// annotation IDs, logical timestamps) — and the record's payload type IS
// the mutation: it names its record type and knows how to apply itself
// to a database (the mutation interface below). There is one way a
// mutation reaches the state, whoever feeds it:
//
//   - A live call takes the exclusive lock (Txn.enter refuses with
//     ErrClosed after Close), validates against the live state plus the
//     transaction's pending effects, reserves the identifiers it will
//     assign, and records the typed payload in the transaction's buffer.
//     Nothing is logged or applied yet, so a rejected call leaves no
//     trace in the log.
//   - Commit (Txn.finish) appends every buffered record followed by the
//     commit record, applies the batch, and publishes the next epoch —
//     all under one exclusive hold, so a checkpoint can never capture a
//     transaction's effects without also covering its commit record.
//     Append before apply: the buffer pool stamps pages dirtied under
//     that hold with the log's appended LSN and forces the log through a
//     page's LSN before its image reaches the backing store
//     (pager.PageLogger). An auto-committed DB method is the same step
//     run as a one-operation transaction under a single hold.
//   - Group commit: the committer then waits — outside the lock, so
//     readers drain during the fsync — for the log to become durable
//     through its commit LSN. Commits that arrive while an fsync is in
//     flight share the next one (wal.Log's leader/follower sync).
//   - Recovery: Open loads the last checkpoint (the dump re-emitted as
//     mutations, exact IDs preserved), scans the log — truncating a torn
//     tail to the longest valid prefix — determines the committed
//     transaction set from the commit records found, and decodes and
//     applies committed records with LSN beyond the checkpoint in order.
//     Records of uncommitted transactions are skipped; the forced-ID
//     apply bodies reproduce the gaps those transactions left in the ID
//     sequences.
//   - Checkpoints: a quiesced snapshot (no active transactions, log
//     forced through the capture LSN, written to a temp file, fsynced,
//     renamed) bounds recovery time; the log is compacted once the
//     checkpoint is durable.
//
// Rollback does not undo — it discards the buffer: the live state never
// contains uncommitted effects, nothing reaches the log, and checkpoints
// stay available after any number of rollbacks. Reserved OIDs and
// annotation IDs stay consumed, leaving the same ID gaps an aborted
// logged run would.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"

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

// mutation is one logical change to the database. apply is
// deterministic given the state it runs against and is the only way
// state changes: commit, WAL replay and snapshot load all end in it, so
// it tolerates whatever a replay can present (a missing table, an
// attachment that already exists) by returning an error or doing
// nothing, never by panicking.
type mutation interface {
	recType() wal.Type
	apply(db *DB) error
}

// Record payloads, gob-encoded. Identifier fields (OID, ID, Seq) are
// the values the original call assigned, so apply forces them. Each
// type's apply sits with the API call that records it (engine.go,
// instances.go).
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
	// pInstanceRef is the wire shape the five (table, instance) records
	// share. gob writes the encoded type's name into every record, so
	// they are logged as pInstanceRef (see Txn.log) and the bytes of
	// those records stay what they have always been.
	pInstanceRef struct {
		Table, Instance string
	}
	pUnlinkInstance      pInstanceRef
	pCreateSummaryIndex  pInstanceRef
	pCreateBaselineIndex pInstanceRef
	pDropSummaryIndex    pInstanceRef
	pDropBaselineIndex   pInstanceRef
	pAddAnnotation       struct {
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

func (*pCreateTable) recType() wal.Type         { return recCreateTable }
func (*pInsertTuple) recType() wal.Type         { return recInsertTuple }
func (*pDeleteTuple) recType() wal.Type         { return recDeleteTuple }
func (*pCreateDataIndex) recType() wal.Type     { return recCreateDataIndex }
func (*pDefineInstance) recType() wal.Type      { return recDefineInstance }
func (*pLinkInstance) recType() wal.Type        { return recLinkInstance }
func (*pUnlinkInstance) recType() wal.Type      { return recUnlinkInstance }
func (*pCreateSummaryIndex) recType() wal.Type  { return recCreateSummaryIndex }
func (*pCreateBaselineIndex) recType() wal.Type { return recCreateBaselineIndex }
func (*pDropSummaryIndex) recType() wal.Type    { return recDropSummaryIndex }
func (*pDropBaselineIndex) recType() wal.Type   { return recDropBaselineIndex }
func (*pAddAnnotation) recType() wal.Type       { return recAddAnnotation }
func (*pAttachAnnotation) recType() wal.Type    { return recAttachAnnotation }
func (*pDeleteAnnotation) recType() wal.Type    { return recDeleteAnnotation }

func (p *pUnlinkInstance) wire() any      { return (*pInstanceRef)(p) }
func (p *pCreateSummaryIndex) wire() any  { return (*pInstanceRef)(p) }
func (p *pCreateBaselineIndex) wire() any { return (*pInstanceRef)(p) }
func (p *pDropSummaryIndex) wire() any    { return (*pInstanceRef)(p) }
func (p *pDropBaselineIndex) wire() any   { return (*pInstanceRef)(p) }

// newMutation maps a record type to an empty payload for replay to
// decode into.
var newMutation = map[wal.Type]func() mutation{
	recCreateTable:         func() mutation { return new(pCreateTable) },
	recInsertTuple:         func() mutation { return new(pInsertTuple) },
	recDeleteTuple:         func() mutation { return new(pDeleteTuple) },
	recCreateDataIndex:     func() mutation { return new(pCreateDataIndex) },
	recDefineInstance:      func() mutation { return new(pDefineInstance) },
	recLinkInstance:        func() mutation { return new(pLinkInstance) },
	recUnlinkInstance:      func() mutation { return new(pUnlinkInstance) },
	recCreateSummaryIndex:  func() mutation { return new(pCreateSummaryIndex) },
	recCreateBaselineIndex: func() mutation { return new(pCreateBaselineIndex) },
	recDropSummaryIndex:    func() mutation { return new(pDropSummaryIndex) },
	recDropBaselineIndex:   func() mutation { return new(pDropBaselineIndex) },
	recAddAnnotation:       func() mutation { return new(pAddAnnotation) },
	recAttachAnnotation:    func() mutation { return new(pAttachAnnotation) },
	recDeleteAnnotation:    func() mutation { return new(pDeleteAnnotation) },
}

// ErrTxnDone reports an operation on a committed or rolled-back Txn.
var ErrTxnDone = errors.New("engine: transaction already finished")

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
	l, err := wal.Open(logPath, wal.Options{NextLSN: next + 1})
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

// replayRecord redoes one committed record: look the payload type up,
// decode, apply. Apply errors are swallowed: the original call hit the
// same deterministic error (or deterministic partial application) when
// the record was logged, so replay reproduces that exact outcome. Only
// decode failures — corruption that passed the CRC, or version skew —
// are returned.
func (db *DB) replayRecord(rec wal.Record) error {
	mk, ok := newMutation[rec.Type]
	if !ok {
		return fmt.Errorf("unknown record type %d", rec.Type)
	}
	op := mk()
	if err := gob.NewDecoder(bytes.NewReader(rec.Payload)).Decode(op); err != nil {
		return err
	}
	_ = op.apply(db)
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
	ops  []mutation
	done bool
	// auto marks the one-operation transaction behind an auto-committing
	// DB method: it commits under the hold that recorded its operation,
	// so it tracks no pending effects, and a commit that leaves the
	// ingest buffer under its threshold publishes nothing (see finish).
	auto bool
	// Pending effects: later operations of this transaction must see its
	// earlier buffered ones, which the live state does not contain until
	// Commit applies them. OIDs are catalog-wide unique, so the sets are
	// keyed by ID alone; an inserted tuple remembers its table.
	newOIDs map[int64]*catalog.Table // tx-inserted tuples
	delOIDs map[int64]bool           // tx-deleted tuples
	newAnns map[int64]bool           // tx-added annotations, by reserved ID
	delAnns map[int64]bool           // tx-deleted annotations
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
		newOIDs: make(map[int64]*catalog.Table),
		delOIDs: make(map[int64]bool),
		newAnns: make(map[int64]bool),
		delAnns: make(map[int64]bool),
	}
}

// auto runs step — one operation's validate-and-record — as a
// one-operation transaction that commits under the same exclusive hold:
// what every auto-committing DB method is.
func (db *DB) auto(step func(tx *Txn) error) error {
	tx := &Txn{db: db, auto: true}
	if err := tx.enter(); err != nil {
		return err
	}
	db.nextTxID++
	tx.id = db.nextTxID
	return tx.finish(step(tx))
}

// step runs one validate-and-record step of an explicit transaction.
func (tx *Txn) step(fn func() error) error {
	if err := tx.enter(); err != nil {
		return err
	}
	defer tx.db.mu.Unlock()
	return fn()
}

// enter takes the exclusive lock for one step of the transaction — the
// single entry of the mutation pipeline, and so the one place a
// mutation of a closed database is refused: Close has detached the log
// and torn down the pool, so applying anything would ack a write that
// is gone on reopen.
func (tx *Txn) enter() error {
	if tx.done {
		return ErrTxnDone
	}
	tx.db.mu.Lock()
	if tx.db.closed {
		tx.db.mu.Unlock()
		return ErrClosed
	}
	return nil
}

// finish ends the exclusive hold enter began. A nil err commits the
// buffered operations (a non-nil one is an auto-commit whose step was
// rejected, and only drops the lock): every record and then the commit
// record is appended, the batch is applied, and the next epoch is
// published, all before the lock drops; the wait for the commit record
// to become durable happens after, so concurrent readers and writers
// proceed while the fsync runs.
//
// If an append fails the transaction aborts cleanly — nothing is
// applied or published, and with no commit record in the log recovery
// discards whatever records made it in. Once the commit record is
// appended every operation is applied, even past one whose apply fails:
// replay reproduces the identical deterministic outcome, keeping
// recovered state equal to the live state the caller observed alongside
// the returned (first) apply error.
//
// An explicit Commit is an ingest flush trigger, so the epoch it
// publishes carries fully maintained summaries. An auto-commit flushes
// only at the threshold (0 or 1 trips on every operation), and one that
// merely added to the net-delta buffer publishes nothing: readers pin
// published epochs, so its raw annotation stays invisible and no per-op
// copy-on-write shells are built; the dirty flag raised instead makes
// the next read force the flush (and the publication) first.
func (tx *Txn) finish(err error) error {
	db := tx.db
	var commitLSN uint64
	if err == nil && len(tx.ops) > 0 {
		if commitLSN, err = tx.log(); err == nil {
			pending := db.ingest.ops
			for _, op := range tx.ops {
				if aerr := op.apply(db); aerr != nil && err == nil {
					err = aerr
				}
			}
			if !tx.auto || db.ingest.ops >= db.ingestEvery {
				db.flushIngestLocked()
			}
			if db.ingest.ops > pending {
				db.ingestDirty.Store(true)
			} else {
				db.publishLocked()
			}
		}
	}
	l := db.wal
	db.mu.Unlock()
	if commitLSN != 0 {
		if db.commitHook != nil {
			db.commitHook(commitLSN)
		}
		if cerr := l.Commit(commitLSN); cerr != nil && err == nil {
			err = cerr
		}
		db.maybeCheckpoint()
	}
	return err
}

// log appends the transaction's records and its commit record,
// returning the commit LSN; with no WAL attached it is a no-op
// returning 0. The caller holds the exclusive lock (all appends happen
// under it, so the log is frozen whenever the shared lock is held —
// checkpoints rely on this). An encode failure is a programming bug
// (payload types are closed) and panics; an append failure is an I/O
// error the committer must surface.
func (tx *Txn) log() (uint64, error) {
	l := tx.db.wal
	if l == nil {
		return 0, nil
	}
	var buf bytes.Buffer
	for _, op := range tx.ops {
		var payload any = op
		if w, ok := op.(interface{ wire() any }); ok {
			payload = w.wire()
		}
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
			panic(fmt.Errorf("engine: encoding wal payload %T: %w", payload, err))
		}
		if _, err := l.Append(op.recType(), tx.id, buf.Bytes()); err != nil {
			return 0, err
		}
	}
	return l.Append(recCommit, tx.id, nil)
}

// visibleTuple resolves table and checks that the transaction can see
// oid in it — live in the table or buffered by an earlier Insert, and
// not buffered-deleted.
func (tx *Txn) visibleTuple(table string, oid int64) (*catalog.Table, error) {
	t, err := tx.db.cat.Table(table)
	if err != nil {
		return nil, err
	}
	if _, live := t.DiskTupleLoc(oid); tx.delOIDs[oid] || !live && tx.newOIDs[oid] != t {
		return nil, fmt.Errorf("engine: %s has no tuple %d", table, oid)
	}
	return t, nil
}

// visibleAnn checks that the transaction can see an annotation.
func (tx *Txn) visibleAnn(annID int64) error {
	if _, live := tx.db.cat.Anns.Get(annID); tx.delAnns[annID] || !live && !tx.newAnns[annID] {
		return fmt.Errorf("engine: no annotation %d", annID)
	}
	return nil
}

// Commit makes the transaction real (see finish). After a nil return
// the whole transaction is visible to new readers and survives any
// crash once the commit is forced durable.
func (tx *Txn) Commit() error {
	if err := tx.enter(); err != nil {
		return err
	}
	tx.done = true
	tx.db.activeTxns--
	return tx.finish(nil)
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
