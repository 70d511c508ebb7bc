package pager

import (
	"errors"
	"sync"
	"testing"
)

// stubLogger is a PageLogger that hands out a controllable appended LSN
// and records every Flush target the pool demands.
type stubLogger struct {
	mu       sync.Mutex
	appended uint64
	flushed  []uint64
	err      error
}

func (s *stubLogger) AppendedLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

func (s *stubLogger) Flush(lsn uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushed = append(s.flushed, lsn)
	return s.err
}

func (s *stubLogger) setAppended(lsn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appended = lsn
}

func (s *stubLogger) flushes() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.flushed...)
}

// Dirty frames are stamped with the log's appended LSN when unpinned,
// and eviction forces the log through that LSN before the page image
// reaches the backing store — the write-ahead rule.
func TestEvictionFlushesWALThroughPageLSN(t *testing.T) {
	acct, pool, s := newTestPool(t, MinPoolFrames)
	lg := &stubLogger{}
	acct.SetPageLogger(lg)
	defer acct.SetPageLogger(nil)

	lg.setAppended(7)
	create(s, 0, 1) // page-LSN stamped 7
	lg.setAppended(9)
	s.Writable(0)
	s.Unpin(0, true) // re-dirtied: stamped up to 9

	// Fill the pool so page 0 is evicted.
	for i := int64(1); i < 3*MinPoolFrames; i++ {
		create(s, i)
	}
	var sawNine bool
	for _, lsn := range lg.flushes() {
		if lsn == 9 {
			sawNine = true
		}
		if lsn == 0 {
			t.Fatal("flush demanded for LSN 0")
		}
	}
	if !sawNine {
		t.Fatalf("eviction never flushed through page-LSN 9: flushes=%v", lg.flushes())
	}

	// A clean page read back and evicted again must not demand a flush:
	// its LSN-9 image is already durable on the backing store.
	pool.EvictAll() // drain every remaining dirty frame first
	before := len(lg.flushes())
	get(s, 0)
	pool.EvictAll()
	if n := len(lg.flushes()) - before; n != 0 {
		t.Fatalf("clean page re-eviction demanded %d redundant flushes", n)
	}
}

// A failing WAL flush aborts the eviction by panic before the page
// image is written back, like an injected write fault.
func TestEvictionWALFlushFailurePanics(t *testing.T) {
	acct, pool, s := newTestPool(t, MinPoolFrames)
	lg := &stubLogger{err: errors.New("log device gone")}
	acct.SetPageLogger(lg)
	defer acct.SetPageLogger(nil)

	lg.setAppended(3)
	create(s, 0, 1)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic when WAL flush fails during eviction")
		}
		if acct.Stats().PhysWrites != 0 {
			t.Fatal("page image written back despite WAL flush failure")
		}
	}()
	pool.EvictAll()
}

// Without a logger attached the write path is unchanged — no stamping,
// no flush calls, pure pre-WAL behavior.
func TestNoLoggerMeansNoFlushes(t *testing.T) {
	_, pool, s := newTestPool(t, MinPoolFrames)
	create(s, 0, 1)
	pool.EvictAll()
	if p := get(s, 0); p.Vals[0] != 1 {
		t.Fatalf("round trip without logger corrupted page: %+v", p)
	}
}

// A corrupted backing-store image is detected by checksum on the next
// read and surfaces as *CorruptPageError, not as silently misdecoded
// page contents.
func TestCorruptPageImageDetected(t *testing.T) {
	_, pool, s := newTestPool(t, MinPoolFrames)
	create(s, 0, 1, 2, 3)
	pool.EvictAll()

	// Flip one payload byte of the evicted image in the backing file.
	pool.mu.Lock()
	sp, ok := pool.spans[pageKey{s.space, 0}]
	pool.mu.Unlock()
	if !ok {
		t.Fatal("evicted page has no backing extent")
	}
	if _, err := pool.file.WriteAt([]byte{0xFF}, sp.off+pageImageHeader+2); err != nil {
		t.Fatal(err)
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected *CorruptPageError panic reading a corrupt image")
		}
		cpe, ok := r.(*CorruptPageError)
		if !ok {
			t.Fatalf("panic value %T, want *CorruptPageError", r)
		}
		if cpe.Space != s.space || cpe.Page != 0 {
			t.Fatalf("error names page %d in space %d, want 0 in %d", cpe.Page, cpe.Space, s.space)
		}
	}()
	get(s, 0)
}

// A torn (short) image — the header promising more payload than the
// span holds — is likewise detected rather than handed to the codec.
func TestTornPageImageDetected(t *testing.T) {
	_, pool, s := newTestPool(t, MinPoolFrames)
	create(s, 0, 1, 2, 3)
	pool.EvictAll()

	// Shorten the span in place, simulating a torn write that persisted
	// only a prefix of the image.
	pool.mu.Lock()
	k := pageKey{s.space, 0}
	sp := pool.spans[k]
	sp.len = pageImageHeader + 3
	pool.spans[k] = sp
	pool.mu.Unlock()

	defer func() {
		if _, ok := recover().(*CorruptPageError); !ok {
			t.Fatal("expected *CorruptPageError panic reading a torn image")
		}
	}()
	get(s, 0)
}
