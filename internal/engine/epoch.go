package engine

// MVCC snapshot reads. The engine publishes its queryable state — the
// catalog: tables with their storage and every index, and the annotation
// store — as an immutable EPOCH behind the accountant's mvcc.Clock: an
// epoch is Catalog.AsOf at the publication stamp. Mutators run under the
// exclusive lock, and finish by building that copy-on-write shell
// (storage versions every page/node it supersedes, so a shell costs
// O(#tables + #instances + #indexes), never O(data)) and atomically
// publishing the next epoch. Readers pin an epoch, run
// entirely against its shells, and unpin — they never take db.mu, so
// queries proceed at full speed while mutations and checkpoints run.
//
// Publication ordering vs the WAL: a mutator appends its records (and
// its commit record) BEFORE it publishes, all under one exclusive hold,
// so an epoch's LSN watermark — captured at publish time — covers
// exactly the records whose effects the epoch exposes. Result.AsOfLSN
// is the pinned epoch's watermark, exact by construction.

import (
	"context"
	"errors"
	"time"

	"repro/internal/catalog"
)

// ErrClosed reports a read or a mutation attempted after Close.
var ErrClosed = errors.New("engine: database is closed")

// dbEpoch is one immutable published snapshot of the engine's queryable
// state: the catalog's snapshot shell at the epoch's stamp.
type dbEpoch struct {
	stamp uint64
	lsn   uint64 // WAL watermark the epoch reflects (0 without WAL)
	cat   *catalog.Catalog
}

// publishLocked builds and publishes the next epoch from the current
// live state. The caller holds db.mu exclusively (or owns the DB before
// it is shared), with every WAL record of the mutation — including its
// commit record — already appended, so the captured LSN watermark covers
// exactly the published effects.
func (db *DB) publishLocked() {
	st := db.clock.Stamp()
	ep := &dbEpoch{stamp: st, cat: db.cat.AsOf(st)}
	if db.wal != nil {
		ep.lsn = db.wal.AppendedLSN()
	}
	if db.publishHook != nil {
		db.publishHook(ep.lsn)
	}
	db.clock.Publish(ep)
	// The published epoch now reflects every flushed effect: if the ingest
	// buffer is empty, read paths no longer need to force a flush. Cleared
	// only here — after publication — so a reader that observes the flag
	// low is guaranteed an epoch covering all previously buffered ops.
	if db.ingest.ops == 0 {
		db.ingestDirty.Store(false)
	}
}

// read is the one gate every read passes. It layers the statement
// timeout onto ctx, publishes buffered ingest (a pinned epoch cannot
// see unpublished state, so read-your-writes needs the flush first),
// pins the current epoch, runs fn against it and unpins. fn never takes
// db.mu: mutators publish new epochs, readers block neither them nor
// each other. A statement — a read that executes a SELECT, fn returning
// its row count — is recorded in Metrics; EXPLAIN, ZOOM IN and the
// annotation accessors are not.
func (db *DB) read(ctx context.Context, statement bool, fn func(ctx context.Context, ep *dbEpoch) (rows int, err error)) error {
	ctx, cancel := db.applyTimeout(ctx)
	defer cancel()
	start := time.Now()
	db.flushIfDirty()
	rows, err := func() (int, error) {
		ep, pin, err := db.pinEpoch()
		if err != nil {
			return 0, err
		}
		defer db.clock.Unpin(pin)
		return fn(ctx, ep)
	}()
	if statement {
		db.metrics.record(time.Since(start), rows, err)
	}
	return err
}

// pinEpoch pins the current epoch for a read. The caller must Unpin the
// returned stamp when done. Fails with ErrClosed once Close has begun —
// the pin-then-check order guarantees that any reader admitted before
// the flag flipped holds a pin Close's drain waits for.
func (db *DB) pinEpoch() (*dbEpoch, uint64, error) {
	v, s := db.clock.Pin()
	if db.closedA.Load() {
		db.clock.Unpin(s)
		return nil, 0, ErrClosed
	}
	return v.(*dbEpoch), s, nil
}
