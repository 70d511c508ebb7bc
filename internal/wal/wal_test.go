package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func logPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal.log")
}

func TestAppendScanRoundtrip(t *testing.T) {
	path := logPath(t)
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 20; i++ {
		payload := []byte(fmt.Sprintf("payload-%d", i))
		lsn, err := l.Append(Type(i%5+1), uint64(i%3), payload)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn %d, want %d", lsn, i+1)
		}
		want = append(want, Record{LSN: lsn, TxID: uint64(i % 3), Type: Type(i%5 + 1), Payload: payload})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn {
		t.Fatal("clean log reported torn")
	}
	if len(res.Records) != len(want) {
		t.Fatalf("%d records, want %d", len(res.Records), len(want))
	}
	for i, rec := range res.Records {
		w := want[i]
		if rec.LSN != w.LSN || rec.TxID != w.TxID || rec.Type != w.Type || !bytes.Equal(rec.Payload, w.Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, rec, w)
		}
	}
	if res.LastLSN() != 20 {
		t.Fatalf("LastLSN = %d, want 20", res.LastLSN())
	}
}

// A cut anywhere inside the final frame must truncate back to the
// preceding record boundary, and the reopened log must continue the LSN
// sequence.
func TestTornTailTruncated(t *testing.T) {
	path := logPath(t)
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(1, 0, []byte("body-of-record")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-way into the last frame.
	cut := full.Offsets[4] + headerSize/2
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Torn {
		t.Fatal("expected torn tail")
	}
	if len(res.Records) != 4 || res.End != full.Offsets[4] {
		t.Fatalf("recovered %d records ending at %d, want 4 ending at %d", len(res.Records), res.End, full.Offsets[4])
	}
	if fi, _ := os.Stat(path); fi.Size() != res.End {
		t.Fatalf("file not truncated: %d bytes, want %d", fi.Size(), res.End)
	}
	// Reopen and append: the sequence continues.
	l2, err := Open(path, Options{NextLSN: res.LastLSN() + 1})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l2.Append(2, 0, []byte("after-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 5 {
		t.Fatalf("continued lsn = %d, want 5", lsn)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	res2, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Torn || len(res2.Records) != 5 || res2.LastLSN() != 5 {
		t.Fatalf("after reopen: torn=%v records=%d last=%d", res2.Torn, len(res2.Records), res2.LastLSN())
	}
}

// A bit flip in the middle of the log stops the scan at the last record
// before the corruption: records past a broken frame are unreachable.
func TestCorruptionStopsScan(t *testing.T) {
	path := logPath(t)
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append(1, 0, []byte("some-payload-bytes")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in record 3 (index 2).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[full.Offsets[2]+headerSize] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Torn || len(res.Records) != 2 {
		t.Fatalf("torn=%v records=%d, want torn with 2 records", res.Torn, len(res.Records))
	}
}

// gatedSync replaces a log's fsync with one that counts calls and, while
// armed, holds each call until the test releases it: started receives on
// entry, and the call returns whatever is sent on release.
type gatedSync struct {
	started chan struct{}
	release chan error
	armed   atomic.Bool
	calls   atomic.Int64
}

func gate(l *Log) *gatedSync {
	g := &gatedSync{started: make(chan struct{}), release: make(chan error)}
	l.fsync = func(*os.File) error {
		g.calls.Add(1)
		if !g.armed.Load() {
			return nil
		}
		g.started <- struct{}{}
		return <-g.release
	}
	return g
}

// waitQueued waits until n committers are registered as not yet durable.
func waitQueued(t *testing.T, l *Log, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		l.mu.Lock()
		got := len(l.waiting)
		l.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d committers queued, want %d", got, n)
		}
		runtime.Gosched()
	}
}

// appendCommit appends one record and starts its Commit, returning the
// channel the Commit's result arrives on.
func appendCommit(t *testing.T, l *Log) <-chan error {
	t.Helper()
	lsn, err := l.Append(1, 0, []byte("op"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.Commit(lsn) }()
	return done
}

// Leader/follower: while one fsync is in flight, committers and a Flush
// queue behind it; once it completes, exactly one more fsync covers all
// of them, counted as one batch.
func TestGroupCommitBatches(t *testing.T) {
	l, err := Open(logPath(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := gate(l)
	g.armed.Store(true)
	leader := appendCommit(t, l)
	<-g.started // the leader's fsync is in flight, covering only its record
	const followers = 8
	var queued []<-chan error
	for i := 0; i < followers; i++ {
		queued = append(queued, appendCommit(t, l))
	}
	flushLSN, err := l.Append(2, 0, []byte("page"))
	if err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- l.Flush(flushLSN) }()
	waitQueued(t, l, followers+1)
	g.armed.Store(false)
	g.release <- nil
	for _, done := range append(queued, leader, flushed) {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	m := l.Metrics()
	if g.calls.Load() != 2 || m.Fsyncs != 2 {
		t.Fatalf("fsyncs: %d calls, %d counted; want the leader's and one more", g.calls.Load(), m.Fsyncs)
	}
	if m.Commits != followers+1 || m.Batches != 2 || m.BatchCommits != followers+1 {
		t.Fatalf("commits=%d batches=%d batchCommits=%d, want %d/2/%d",
			m.Commits, m.Batches, m.BatchCommits, followers+1, followers+1)
	}
	if m.DurableLSN != m.AppendedLSN {
		t.Fatalf("durable %d != appended %d after all commits", m.DurableLSN, m.AppendedLSN)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// A lone Commit issues its own fsync at once: there is no window to
// wait out, so sequential commits cost one fsync each.
func TestLoneCommitFsyncsAtOnce(t *testing.T) {
	l, err := Open(logPath(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := gate(l)
	const n = 10
	for i := 0; i < n; i++ {
		g.armed.Store(true)
		done := appendCommit(t, l)
		<-g.started
		g.armed.Store(false)
		g.release <- nil
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	m := l.Metrics()
	if m.Fsyncs != n || m.Batches != n || m.BatchCommits != n {
		t.Fatalf("%d sequential commits: fsyncs=%d batches=%d batchCommits=%d", n, m.Fsyncs, m.Batches, m.BatchCommits)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// A failed fsync poisons the log and releases every queued caller with
// the error; later appends fail with it too.
func TestFsyncErrorReleasesQueued(t *testing.T) {
	l, err := Open(logPath(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := gate(l)
	g.armed.Store(true)
	leader := appendCommit(t, l)
	<-g.started
	var queued []<-chan error
	for i := 0; i < 4; i++ {
		queued = append(queued, appendCommit(t, l))
	}
	waitQueued(t, l, 5)
	g.release <- errors.New("device gone")
	for _, done := range append(queued, leader) {
		if err := <-done; err == nil || !strings.Contains(err.Error(), "device gone") {
			t.Fatalf("queued committer got %v, want the fsync error", err)
		}
	}
	if _, err := l.Append(1, 0, []byte("after")); err == nil {
		t.Fatal("append succeeded on a poisoned log")
	}
	if m := l.Metrics(); m.Fsyncs != 1 || m.Batches != 0 {
		t.Fatalf("fsyncs=%d batches=%d after one failed fsync", m.Fsyncs, m.Batches)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// Close waits for the fsync in flight, then makes the rest of the log
// durable; the committer that led the in-flight fsync succeeds.
func TestCloseWaitsForInflightFsync(t *testing.T) {
	path := logPath(t)
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := gate(l)
	g.armed.Store(true)
	leader := appendCommit(t, l)
	<-g.started
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, 0, []byte("tail")); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	runtime.Gosched()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with an fsync in flight", err)
	default:
	}
	g.armed.Store(false)
	g.release <- nil
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if m := l.Metrics(); m.Fsyncs != 2 || m.DurableLSN != 4 || m.AppendedLSN != 4 {
		t.Fatalf("after Close: fsyncs=%d durable=%d appended=%d, want 2/4/4", m.Fsyncs, m.DurableLSN, m.AppendedLSN)
	}
	if res, err := Recover(path); err != nil || res.Torn || len(res.Records) != 4 {
		t.Fatalf("recovered %v records (err %v), want 4 clean", len(res.Records), err)
	}
}

// Compact behind an in-flight fsync releases the committers queued with
// it, as one batch, whichever of them reaches the sync lock first.
func TestCompactReleasesQueuedCommitters(t *testing.T) {
	path := logPath(t)
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := gate(l)
	g.armed.Store(true)
	leader := appendCommit(t, l)
	<-g.started
	var queued []<-chan error
	for i := 0; i < 3; i++ {
		queued = append(queued, appendCommit(t, l))
	}
	waitQueued(t, l, 4)
	type result struct {
		ok  bool
		err error
	}
	compacted := make(chan result, 1)
	go func() {
		ok, err := l.Compact(4)
		compacted <- result{ok, err}
	}()
	g.armed.Store(false)
	g.release <- nil
	for _, done := range append(queued, leader) {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if r := <-compacted; !r.ok || r.err != nil {
		t.Fatalf("compact: ok=%v err=%v", r.ok, r.err)
	}
	if m := l.Metrics(); m.Batches != 2 || m.BatchCommits != 4 || m.DurableLSN != 4 {
		t.Fatalf("batches=%d batchCommits=%d durable=%d, want 2/4/4", m.Batches, m.BatchCommits, m.DurableLSN)
	}
	if fi, _ := os.Stat(path); fi.Size() != 0 {
		t.Fatalf("log not truncated: %d bytes", fi.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCompact(t *testing.T) {
	path := logPath(t)
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 4; i++ {
		last, err = l.Append(1, 0, []byte("op"))
		if err != nil {
			t.Fatal(err)
		}
	}
	// Stale watermark: refused without error.
	if ok, err := l.Compact(last - 1); ok || err != nil {
		t.Fatalf("stale compact: ok=%v err=%v", ok, err)
	}
	if ok, err := l.Compact(last); !ok || err != nil {
		t.Fatalf("compact: ok=%v err=%v", ok, err)
	}
	if fi, _ := os.Stat(path); fi.Size() != 0 {
		t.Fatalf("log not truncated: %d bytes", fi.Size())
	}
	// LSNs continue past the compaction point.
	lsn, err := l.Append(1, 0, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != last+1 {
		t.Fatalf("post-compact lsn = %d, want %d", lsn, last+1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || res.Records[0].LSN != last+1 {
		t.Fatalf("post-compact scan: %d records, first lsn %d", len(res.Records), res.Records[0].LSN)
	}
}

// Concurrent appends, commits, flushes, and watermark reads under the
// race detector, on the real fsync.
func TestWALConcurrentAppendCommit(t *testing.T) {
	path := logPath(t)
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 12)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				lsn, err := l.Append(Type(g%3+1), uint64(g), []byte("concurrent"))
				if err != nil {
					errCh <- err
					return
				}
				if i%2 == 0 {
					if err := l.Commit(lsn); err != nil {
						errCh <- err
						return
					}
				} else if err := l.Flush(lsn); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if a, d := l.AppendedLSN(), l.DurableLSN(); d > a {
					errCh <- fmt.Errorf("durable %d ahead of appended %d", d, a)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Every commit is counted, and one released by an fsync only once.
	if m := l.Metrics(); m.Commits != 40 || m.BatchCommits > m.Commits || m.Batches > m.Fsyncs || m.DurableLSN != m.AppendedLSN {
		t.Fatalf("metrics after 40 commits and 40 flushes: %+v", m)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || len(res.Records) != 80 {
		t.Fatalf("torn=%v records=%d, want 80 clean records", res.Torn, len(res.Records))
	}
}
