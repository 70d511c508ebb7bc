package engine

// Net-delta summary maintenance: the one ingest routine.
//
// Summary objects are incrementally maintained aggregates over
// annotation streams (Section 4.1.2). AddAnnotation/AttachAnnotation log
// the operation (one op record plus one commit record per annotation,
// whatever the threshold) and store the raw annotation; the summary
// maintenance — classify, re-key both index schemes, re-elect snippets,
// re-cluster — goes into a per-tuple delta and is applied as a NET effect
// at flush time:
//
//   - one classifier re-key per touched label instead of one per
//     annotation (an index UpdateLabel collapses a count span old..new
//     into a single delete+insert),
//   - one cluster rebuild per touched tuple instead of one per
//     annotation,
//   - one snippet election batch per tuple, in arrival order,
//   - one statistics Forget/Observe bracket per object instead of N,
//   - one MVCC epoch publication per flush instead of one per op.
//
// Flush triggers: the IngestFlushOps threshold, the IngestFlushInterval
// timer, DB.FlushIngest, transaction commit, checkpoint, the end of
// snapshot load and WAL replay, and — because pinned epochs cannot see
// unpublished state — every read checks the lock-free ingestDirty flag
// and flushes on demand before pinning. Mutations that read or rewrite
// summaries (annotation/tuple deletes, instance link/unlink, index
// builds) flush first inside their apply methods, which every route to
// the state ends in (commit, WAL replay, snapshot load).
//
// A threshold of 0 or 1 (the default) trips on every operation, so the
// paper's per-annotation "Adding Annotation — Update" is this routine
// with a one-annotation delta, not a second code path. The flushed state
// does not depend on where the flushes fall — N one-annotation flushes
// equal one N-annotation flush — because every per-type maintenance step
// telescopes:
//
//   - classifier element sets are sorted ID sets, so inserting a batch
//     one-by-one or at once yields the same set, and the index key for
//     a label depends only on its final count;
//   - snippet reps append in per-tuple arrival order, which the buffer
//     preserves;
//   - cluster objects are rebuilt from the full stored annotation set,
//     which only depends on the final store contents;
//   - instance statistics brackets are exact inverses, so
//     Forget(initial)+Observe(final) equals the per-op chain.
//
// The differential tests in ingest_test.go verify this over a mixed
// workload at several thresholds against a per-annotation reference
// fold (ingest_oracle_test.go), including through WAL crash recovery.

import (
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/model"
)

// tupleDelta is the pending net delta for one tuple: the annotations
// added or attached to it since the last flush, in arrival order. The
// tuple cannot move or vanish while its delta is pending (tuples are
// never updated in place, and every delete path flushes first), so the
// heap location found when the first annotation was applied is the one
// the flush re-keys the indexes with.
type tupleDelta struct {
	t    *catalog.Table
	oid  int64
	rid  heap.RID
	anns []*model.Annotation
}

// ingestBuffer holds the deferred maintenance work. Guarded by db.mu's
// exclusive lock. deltas is in first-touch order, for a deterministic
// flush; index finds a tuple's delta by OID alone because OIDs are
// allocated from a catalog-wide counter and never collide across tables.
// A flush empties both in place, so steady-state buffering reuses their
// storage (and each slot's anns) instead of allocating per operation.
type ingestBuffer struct {
	index  map[int64]int
	deltas []tupleDelta
	ops    int
}

// bufferIngest puts one annotation's summary maintenance into the
// net-delta buffer. The caller holds the exclusive lock, has already
// stored the raw annotation and logged its record, and flushes or raises
// ingestDirty before the lock drops (see Txn.finish).
func (db *DB) bufferIngest(t *catalog.Table, oid int64, rid heap.RID, ann *model.Annotation) {
	b := &db.ingest
	i, ok := b.index[oid]
	if !ok {
		i = len(b.deltas)
		b.index[oid] = i
		if i < cap(b.deltas) {
			b.deltas = b.deltas[:i+1] // a flushed slot: reuse its anns storage
		} else {
			b.deltas = append(b.deltas, tupleDelta{})
		}
		d := &b.deltas[i]
		d.t, d.oid, d.rid, d.anns = t, oid, rid, d.anns[:0]
	}
	b.deltas[i].anns = append(b.deltas[i].anns, ann)
	b.ops++
	db.ingestBuffered.Add(1)
	db.ingestPending.Add(1)
}

// flushIngestLocked drains the buffer, applying each touched tuple's
// net maintenance once. The caller holds db.mu exclusively (or owns the
// DB privately, e.g. during recovery replay) and is responsible for
// publishing an epoch afterwards — publishLocked clears the dirty flag
// once the empty buffer's state is visible to readers. Returns whether
// any work was flushed.
func (db *DB) flushIngestLocked() bool {
	b := &db.ingest
	if b.ops == 0 {
		return false
	}
	for i := range b.deltas {
		d := &b.deltas[i]
		db.absorbBatch(d.t, d.oid, d.rid, d.anns)
	}
	db.ingestFlushes.Add(1)
	db.ingestFlushedOps.Add(int64(b.ops))
	db.ingestFlushedTuples.Add(int64(len(b.deltas)))
	db.ingestPending.Store(0)
	clear(b.index)
	b.deltas = b.deltas[:0]
	b.ops = 0
	return true
}

// FlushIngest forces the buffered net deltas into the summary objects
// and indexes and publishes the resulting epoch. A no-op when nothing
// is buffered or after Close.
func (db *DB) FlushIngest() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.closed && db.flushIngestLocked() {
		db.publishLocked()
	}
}

// flushIfDirty is the read-path gate: a lock-free flag check in the
// common case, a full flush+publish only when buffered work would
// otherwise be invisible to the epoch about to be pinned.
func (db *DB) flushIfDirty() {
	if db.ingestDirty.Load() {
		db.FlushIngest()
	}
}

// startIngestFlusher launches the interval flush loop goroutine. Called
// once the DB is fully constructed — for Open, only after recovery, so
// the timer can never race the single-owner replay loop.
func (db *DB) startIngestFlusher(interval time.Duration) {
	if interval <= 0 {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	db.ingestStop = stop
	db.ingestDone = done
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				// Prefer stop when both are ready: Close joins on done, so a
				// tick racing the stop signal must not start another flush.
				select {
				case <-stop:
					return
				default:
				}
				db.flushIfDirty()
			}
		}
	}()
}

// absorbBatch folds a tuple's pending annotations into every summary
// instance of the tuple as one net application ("Adding Annotation —
// Update" of Section 4.1.2 when anns holds one annotation).
func (db *DB) absorbBatch(t *catalog.Table, oid int64, rid heap.RID, anns []*model.Annotation) {
	set := t.GetSummaries(oid).Clone()
	for _, si := range t.Instances {
		obj := set.Get(si.Name)
		created := false
		if obj == nil {
			obj = db.newEmptyObject(t, si, oid)
			set = append(set, obj)
			created = true
		}
		if !created {
			t.ForgetSummary(obj)
		}
		switch si.Type {
		case model.SummaryClassifier:
			db.absorbBatchIntoClassifier(t, si, obj, anns, rid, created)
		case model.SummarySnippet:
			for _, ann := range anns {
				db.absorbIntoSnippet(si, obj, ann)
			}
		case model.SummaryCluster:
			db.rebuildCluster(si, obj, oid)
		}
		t.ObserveSummary(obj)
	}
	t.PutSummaries(oid, set)
}

// absorbBatchIntoClassifier classifies every pending annotation and
// applies the net count movement per label: each touched label is
// re-keyed in both index schemes exactly once, from its pre-batch count
// to its final count, instead of once per annotation.
func (db *DB) absorbBatchIntoClassifier(t *catalog.Table, si *catalog.SummaryInstance,
	obj *model.SummaryObject, anns []*model.Annotation, rid heap.RID, created bool) {
	clf := db.classifiers[strings.ToLower(si.Name)]
	// spans records each touched representative's pre-batch count, in
	// first-touch order for deterministic re-keying.
	type span struct{ rep, old int }
	spans := make([]span, 0, 8)
	add := func(l string, id int64) {
		li := obj.RepIndexByLabel(l)
		if li < 0 {
			obj.Reps = append(obj.Reps, model.Rep{Label: l})
			li = len(obj.Reps) - 1
		}
		touched := false
		for _, sp := range spans {
			touched = touched || sp.rep == li
		}
		if !touched {
			spans = append(spans, span{li, obj.Reps[li].Count})
		}
		r := &obj.Reps[li]
		r.Elements = insertSorted(r.Elements, id)
		r.Count = len(r.Elements)
	}
	fallback := ""
	if clf == nil {
		leaves := si.LeafLabels()
		fallback = leaves[len(leaves)-1] // default to the catch-all leaf
	}
	for _, ann := range anns {
		label := fallback
		if clf != nil {
			label = clf.Classify(ann.Text)
		}
		// The leaf label plus every ancestor accumulates the annotation
		// (hierarchical instances; flat ones have no ancestors).
		add(label, ann.ID)
		for _, l := range si.Ancestors(label) {
			add(l, ann.ID)
		}
	}

	sIdx := db.summaryIndex(t.Name, si.Name)
	bIdx := db.baselineIndex(t.Name, si.Name)
	if created {
		if sIdx != nil {
			sIdx.IndexObject(obj, rid)
		}
		if bIdx != nil {
			bIdx.IndexObject(obj)
		}
		return
	}
	for _, sp := range spans {
		r := &obj.Reps[sp.rep]
		if r.Count == sp.old {
			continue
		}
		if sIdx != nil {
			sIdx.UpdateLabel(r.Label, sp.old, r.Count, rid)
		}
		if bIdx != nil {
			bIdx.UpdateLabel(obj.TupleOID, r.Label, r.Count)
		}
	}
}
