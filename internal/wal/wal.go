// Package wal implements the engine's write-ahead log: an append-only
// file of typed, CRC-checksummed, LSN-stamped records with group-commit
// durability and torn-tail recovery.
//
// Records are logical redo records (the engine encodes its mutations;
// this package only frames and persists them). The protocol is
// redo-only ARIES-lite:
//
//   - every mutation appends a record BEFORE the in-memory effect may
//     reach any durable structure (the buffer pool enforces this via
//     the page-LSN it stamps on dirty frames — see pager.PageLogger);
//   - a commit waits until its record's LSN is durable (fsynced);
//   - on open, Recover scans the file, validates each record's CRC and
//     LSN monotonicity, and truncates the first torn or corrupt frame
//     and everything after it, leaving the longest valid prefix.
//
// Group commit is leader/follower: one routine, syncThrough, makes the
// log durable for every caller (Commit, Flush, Compact, Close). A caller
// whose LSN is not yet durable takes the sync lock; the first to get it
// leads, fsyncing everything appended so far, and everyone who queued
// behind that fsync finds itself covered on re-check or leads the next
// one. Batching comes from the fsync in flight; nobody sleeps.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Type tags a record's payload; meanings are assigned by the engine.
type Type uint8

// Record is one log entry. LSNs are assigned by Append, start at 1, and
// increase by exactly 1 per record (they are record sequence numbers,
// not byte offsets, so compaction preserves monotonicity). TxID groups
// records of one transaction; the engine uses 0 for autocommit.
type Record struct {
	LSN     uint64
	TxID    uint64
	Type    Type
	Payload []byte
}

// Frame layout: [len u32][crc u32][lsn u64][txid u64][type u8][payload].
// The CRC (Castagnoli) covers lsn..payload, so a torn header, torn
// payload, or bit flip anywhere in the record fails verification.
const headerSize = 4 + 4 + 8 + 8 + 1

// maxPayload bounds a frame's declared payload length; a larger value
// in the header is corruption, not a record.
const maxPayload = 1 << 28

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

func encodeFrame(rec Record) []byte {
	buf := make([]byte, headerSize+len(rec.Payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(rec.Payload)))
	binary.LittleEndian.PutUint64(buf[8:16], rec.LSN)
	binary.LittleEndian.PutUint64(buf[16:24], rec.TxID)
	buf[24] = byte(rec.Type)
	copy(buf[headerSize:], rec.Payload)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[8:], castagnoli))
	return buf
}

// Metrics is a snapshot of the log's durability counters.
type Metrics struct {
	// Appends counts records appended.
	Appends int64
	// Fsyncs counts fsyncs issued (by commits, flushes, compaction and
	// close alike).
	Fsyncs int64
	// Commits counts Commit calls.
	Commits int64
	// Batches counts fsyncs that made at least one waiting committer
	// durable; BatchCommits totals the committers so released, so
	// BatchCommits/Batches is the average group size.
	Batches      int64
	BatchCommits int64
	// AppendedLSN / DurableLSN are the high-water marks.
	AppendedLSN uint64
	DurableLSN  uint64
}

// Options configures Open.
type Options struct {
	// Deprecated: ignored — leader/follower commit needs no window; kept only because benchmarks/harness/target.go sets it.
	GroupCommitWindow time.Duration
	// NextLSN is the first LSN Append will assign; recovery passes
	// lastLSN+1 to continue the sequence. 0 means 1.
	NextLSN uint64
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	f *os.File
	// fsync is the one call that makes the file durable; tests substitute
	// a fake to hold an fsync in flight or fail it.
	fsync func(*os.File) error

	// syncMu is held for the whole of every fsync (and by Compact and
	// Close around theirs): waiting on it is how followers queue behind
	// the fsync in flight. Lock order: syncMu before mu.
	syncMu sync.Mutex

	// mu guards the append/durability state.
	mu          sync.Mutex
	nextLSN     uint64
	appendedLSN uint64
	durableLSN  uint64
	waiting     []uint64 // LSNs of committers not yet durable
	err         error    // sticky: an append or sync failure poisons the log
	closed      bool

	// appendedA/durableA mirror the LSN watermarks for lock-free reads
	// (the buffer pool stamps page LSNs on every dirty unpin).
	appendedA atomic.Uint64
	durableA  atomic.Uint64

	appends      atomic.Int64
	fsyncs       atomic.Int64
	commits      atomic.Int64
	batches      atomic.Int64
	batchCommits atomic.Int64
}

// Open opens (creating if needed) the log file at path, positioned to
// append after any existing content. Callers recovering an existing log
// run Recover first (truncating any torn tail) and pass the resulting
// NextLSN.
func Open(path string, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	next := opts.NextLSN
	if next == 0 {
		next = 1
	}
	l := &Log{
		f:           f,
		fsync:       (*os.File).Sync,
		nextLSN:     next,
		appendedLSN: next - 1,
		durableLSN:  next - 1,
	}
	l.appendedA.Store(next - 1)
	l.durableA.Store(next - 1)
	return l, nil
}

// Append frames and writes one record, assigning and returning its LSN.
// The record is in the OS page cache after Append returns, but not
// necessarily durable — callers needing durability follow with Commit
// or Flush.
func (l *Log) Append(t Type, txid uint64, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	lsn := l.nextLSN
	if _, err := l.f.Write(encodeFrame(Record{LSN: lsn, TxID: txid, Type: t, Payload: payload})); err != nil {
		// A partial frame may have reached the file; the sticky error
		// keeps every later append and commit failing loudly, and the
		// torn tail is truncated at the next recovery.
		return 0, l.poison(fmt.Errorf("wal: append: %w", err))
	}
	l.nextLSN++
	l.appendedLSN = lsn
	l.appendedA.Store(lsn)
	l.appends.Add(1)
	return lsn, nil
}

// AppendedLSN returns the LSN of the last appended record (0 before the
// first append). Lock-free; safe from any goroutine.
func (l *Log) AppendedLSN() uint64 { return l.appendedA.Load() }

// DurableLSN returns the highest LSN known durable.
func (l *Log) DurableLSN() uint64 { return l.durableA.Load() }

// Commit blocks until lsn is durable, sharing an fsync with every
// committer that queued behind the same one. lsn 0 is a no-op (the
// engine's WAL-off paths pass 0).
func (l *Log) Commit(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	l.commits.Add(1)
	if l.durableA.Load() >= lsn {
		return nil
	}
	// Register so the fsync that covers this commit counts it (the
	// group-commit batch-size metric).
	l.mu.Lock()
	if l.durableLSN < lsn && l.err == nil {
		l.waiting = append(l.waiting, lsn)
	}
	l.mu.Unlock()
	return l.syncThrough(lsn)
}

// Flush forces the log durable through lsn — the buffer pool calls this
// before writing back a dirty page (WAL rule: log first), and
// checkpoints before capturing.
func (l *Log) Flush(lsn uint64) error { return l.syncThrough(lsn) }

// syncThrough returns once every record through lsn is durable. A
// caller whose LSN is already durable returns at once; otherwise it
// queues on syncMu, re-checks (the fsync it queued behind may have
// covered it), and leads the next fsync itself.
func (l *Log) syncThrough(lsn uint64) error {
	if l.durableA.Load() >= lsn {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	durable, err, closed := l.durableLSN >= lsn, l.err, l.closed
	l.mu.Unlock()
	switch {
	case durable:
		return nil
	case err != nil:
		return err
	case closed:
		return ErrClosed
	}
	return l.syncAppended()
}

// poison records a sticky failure (the first one wins) and drops the
// registered committers: each returns the error when it re-checks. The
// caller holds mu.
func (l *Log) poison(err error) error {
	if l.err == nil {
		l.err = err
	}
	l.waiting = l.waiting[:0]
	return l.err
}

// syncAppended fsyncs everything appended so far and publishes it: the
// log's only fsync and only advance of the durable watermark. It counts
// the committers the fsync released as one batch. A failure is sticky
// (see poison). The caller holds syncMu and not mu.
func (l *Log) syncAppended() error {
	l.mu.Lock()
	target := l.appendedLSN
	l.mu.Unlock()
	l.fsyncs.Add(1)
	err := l.fsync(l.f)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		return l.poison(fmt.Errorf("wal: fsync: %w", err))
	}
	if target > l.durableLSN {
		l.durableLSN = target
		l.durableA.Store(target)
	}
	kept := l.waiting[:0]
	for _, w := range l.waiting {
		if w > l.durableLSN {
			kept = append(kept, w)
		}
	}
	if released := len(l.waiting) - len(kept); released > 0 {
		l.batches.Add(1)
		l.batchCommits.Add(int64(released))
	}
	l.waiting = kept
	return nil
}

// Compact truncates the log to empty, valid only when upTo equals the
// last appended LSN — i.e. when a checkpoint at upTo supersedes every
// record. Returns false (without error) when records were appended
// since upTo or the log is unusable; the caller simply compacts at the
// next checkpoint. LSNs continue from where they were (they are
// sequence numbers, not offsets), so recovery ordering is unaffected.
// The truncation is made durable by the same fsync as a commit, which
// releases any committer still waiting.
func (l *Log) Compact(upTo uint64) (bool, error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.closed || l.err != nil || l.appendedLSN != upTo {
		err := l.err
		l.mu.Unlock()
		return false, err
	}
	err := l.f.Truncate(0)
	if err == nil {
		_, err = l.f.Seek(0, io.SeekStart)
	}
	if err != nil {
		err = l.poison(fmt.Errorf("wal: compact: %w", err))
	}
	l.mu.Unlock()
	if err == nil {
		err = l.syncAppended()
	}
	return err == nil, err
}

// Close finalizes the log: it waits out any fsync in flight, issues a
// last one so a cleanly closed log is fully durable, and closes the
// file. Committers still queued then find their records durable.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	pending := l.err == nil && l.durableLSN < l.appendedLSN
	l.mu.Unlock()
	var err error
	if pending {
		err = l.syncAppended()
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	return err
}

// Metrics snapshots the counters.
func (l *Log) Metrics() Metrics {
	return Metrics{
		Appends:      l.appends.Load(),
		Fsyncs:       l.fsyncs.Load(),
		Commits:      l.commits.Load(),
		Batches:      l.batches.Load(),
		BatchCommits: l.batchCommits.Load(),
		AppendedLSN:  l.appendedA.Load(),
		DurableLSN:   l.durableA.Load(),
	}
}
