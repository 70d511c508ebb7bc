package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
)

// TestEpochReaderStress runs 8 readers against two concurrent mutators
// and automatic checkpoints. Each writer inserts tuples strictly in
// PAIRS inside explicit transactions (with rollbacks mixed in), so
// every reader can assert two epoch invariants on every query it runs:
//
//   - atomicity: a snapshot never exposes half a transaction, so the
//     per-table row count is always even;
//   - monotonicity: row counts and Result.AsOfLSN never move backwards
//     within one reader (epochs only advance).
//
// Run with -race: the readers hold no lock at all, so any unversioned
// shared state on the query path surfaces here.
func TestEpochReaderStress(t *testing.T) {
	db, err := Open(Config{WALDir: t.TempDir(), PageCap: 16, CheckpointEveryN: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := model.NewSchema("",
		model.Column{Name: "id", Kind: model.KindInt},
		model.Column{Name: "tag", Kind: model.KindText},
	)
	tables := []string{"PairsA", "PairsB"}
	for _, tn := range tables {
		if _, err := db.CreateTable(tn, schema); err != nil {
			t.Fatal(err)
		}
	}

	const pairsPerWriter = 120
	var done atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 16)

	// Two writers, one table each: committed pairs, with every fourth
	// transaction rolled back (which must leave no trace and must not
	// block the automatic checkpoints firing throughout).
	for wi, tn := range tables {
		wg.Add(1)
		go func(wi int, tn string) {
			defer wg.Done()
			for i := 0; i < pairsPerWriter; i++ {
				tx := db.Begin()
				id := int64(i * 2)
				if _, err := tx.Insert(tn, model.NewInt(id), model.NewText("L")); err != nil {
					errCh <- err
					return
				}
				if _, err := tx.Insert(tn, model.NewInt(id+1), model.NewText("R")); err != nil {
					errCh <- err
					return
				}
				if i%4 == 3 {
					tx.Rollback()
					continue
				}
				if err := tx.Commit(); err != nil {
					errCh <- err
					return
				}
			}
		}(wi, tn)
	}

	const readers = 8
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tn := tables[r%len(tables)]
			q := fmt.Sprintf("SELECT id FROM %s WITHOUT SUMMARIES", tn)
			lastRows, lastLSN := -1, uint64(0)
			for !done.Load() {
				res, err := db.Query(q, nil)
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if len(res.Rows)%2 != 0 {
					errCh <- fmt.Errorf("reader %d: snapshot exposed half a transaction: %d rows", r, len(res.Rows))
					return
				}
				if len(res.Rows) < lastRows {
					errCh <- fmt.Errorf("reader %d: row count went backwards: %d -> %d", r, lastRows, len(res.Rows))
					return
				}
				if res.AsOfLSN < lastLSN {
					errCh <- fmt.Errorf("reader %d: AsOfLSN went backwards: %d -> %d", r, lastLSN, res.AsOfLSN)
					return
				}
				lastRows, lastLSN = len(res.Rows), res.AsOfLSN
			}
		}(r)
	}

	// Stop the readers once both writers finish; the monitor goroutine
	// keeps the readers exercising the final epochs in the meantime.
	writersDone := make(chan struct{})
	go func() {
		defer close(writersDone)
		// Writers are the first two wg members; simplest is to poll the
		// expected final counts.
		for {
			n, err := db.Query("SELECT id FROM PairsA WITHOUT SUMMARIES", nil)
			if err != nil {
				return
			}
			m, err := db.Query("SELECT id FROM PairsB WITHOUT SUMMARIES", nil)
			if err != nil {
				return
			}
			want := 2 * (pairsPerWriter - pairsPerWriter/4)
			if len(n.Rows) == want && len(m.Rows) == want {
				return
			}
		}
	}()
	<-writersDone
	done.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Committed pairs only: 120 transactions per writer, every fourth
	// rolled back.
	want := 2 * (pairsPerWriter - pairsPerWriter/4)
	for _, tn := range tables {
		res, err := db.Query(fmt.Sprintf("SELECT id FROM %s WITHOUT SUMMARIES", tn), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want {
			t.Errorf("%s: %d rows, want %d", tn, len(res.Rows), want)
		}
	}
	if m := db.Metrics().WAL; m == nil || m.Checkpoints == 0 {
		t.Errorf("expected automatic checkpoints during the stress, metrics=%+v", db.Metrics().WAL)
	}
}

// TestCloseUnderLoad closes the database while readers are mid-flight.
// Close must drain pinned epochs before releasing the WAL and buffer
// pool, so every in-flight query either completes normally or fails
// with ErrClosed — never a use-after-close panic or a torn read.
func TestCloseUnderLoad(t *testing.T) {
	db, err := Open(Config{WALDir: t.TempDir(), PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	schema := model.NewSchema("", model.Column{Name: "id", Kind: model.KindInt})
	if _, err := db.CreateTable("Birds", schema); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := db.Insert("Birds", model.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	const readers = 8
	var started sync.WaitGroup
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	started.Add(readers)
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			first := true
			for i := 0; ; i++ {
				res, err := db.Query("SELECT id FROM Birds WITHOUT SUMMARIES", nil)
				if first {
					started.Done()
					first = false
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						errCh <- fmt.Errorf("reader %d: %w", r, err)
					}
					return
				}
				if len(res.Rows) != 64 {
					errCh <- fmt.Errorf("reader %d: torn read: %d rows", r, len(res.Rows))
					return
				}
			}
		}(r)
	}
	started.Wait() // every reader has completed at least one query
	if err := db.Close(); err != nil {
		t.Fatalf("Close under load: %v", err)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// After Close every entry point reports ErrClosed (or its zero-value
	// form for the convenience accessors).
	if _, err := db.Query("SELECT id FROM Birds WITHOUT SUMMARIES", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Query after Close: %v, want ErrClosed", err)
	}
	if n := db.AnnotationCount(); n != 0 {
		t.Errorf("AnnotationCount after Close: %d, want 0", n)
	}
	if err := db.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestRollbackThenCheckpoint pins the bugfix this series exists for:
// a rolled-back transaction must not poison the live state, so an
// immediately following checkpoint SUCCEEDS (the seed refused it until
// restart), logs nothing of the transaction, and a reopen from that
// checkpoint shows no trace of the rolled-back effects.
func TestRollbackThenCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{WALDir: dir, PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	schema := model.NewSchema("", model.Column{Name: "name", Kind: model.KindText})
	if _, err := db.CreateTable("Birds", schema); err != nil {
		t.Fatal(err)
	}
	keep, err := db.Insert("Birds", model.NewText("keeper"))
	if err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	if _, err := tx.Insert("Birds", model.NewText("phantom")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.AddAnnotation("Birds", keep, "phantom note", nil, "txer"); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()

	// The buffered transaction never became visible…
	res, err := db.Query("SELECT name FROM Birds WITHOUT SUMMARIES", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rolled-back transaction visible: %d rows", len(res.Rows))
	}
	if n := db.AnnotationCount(); n != 0 {
		t.Fatalf("rolled-back annotation visible: count=%d", n)
	}
	// …and must not block the checkpoint.
	ok, err := db.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint after rollback: %v", err)
	}
	if !ok {
		t.Fatal("checkpoint refused after a rollback")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	rdb, err := Open(Config{WALDir: dir, PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	res, err = rdb.Query("SELECT name FROM Birds WITHOUT SUMMARIES", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Tuple.Values[0].Text != "keeper" {
		t.Errorf("recovered state diverges after rollback+checkpoint: %d rows", len(res.Rows))
	}
	if n := rdb.AnnotationCount(); n != 0 {
		t.Errorf("rolled-back annotation survived recovery: count=%d", n)
	}
}

// TestDroppedIndexesLeaveTheClock: an index that is dropped, replaced by
// a rebuild, or unlinked with its instance releases its storage, so its
// stores' pruners come off the epoch clock (and its frames out of the
// pool) once no reader can reach it, instead of being re-run on every
// epoch for the life of the database.
func TestDroppedIndexesLeaveTheClock(t *testing.T) {
	db, _ := testDBWithConfig(t, 30, Config{PageCap: 8, BufferPoolPages: 64})
	base := db.clock.Pruners()
	frames := db.BufferPool().Stats().Resident
	for i := 0; i < 3; i++ {
		if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateBaselineIndex("Birds", "ClassBird1"); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.clock.Pruners(); got != base+4 { // one tree + a heap and two trees
		t.Fatalf("rebuilt indexes left %d pruners on the clock, want %d", got, base+4)
	}
	db.DropSummaryIndex("Birds", "ClassBird1")
	db.DropBaselineIndex("Birds", "ClassBird1")
	if got := db.clock.Pruners(); got != base {
		t.Fatalf("dropped indexes left %d pruners on the clock, want %d", got, base)
	}
	if got := db.BufferPool().Stats().Resident; got > frames {
		t.Fatalf("dropped indexes left frames resident: %d, was %d", got, frames)
	}
}
