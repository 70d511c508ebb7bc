package catalog

import (
	"repro/internal/btree"
	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/pager"
)

// AnnotationStore is the raw-annotation heap shared by all relations,
// with B-Tree access paths by annotation ID (zoom-in) and by annotated
// tuple OID (summarization and re-election).
type AnnotationStore struct {
	file    *heap.File[*model.Annotation]
	byID    *btree.Tree // annotation-ID sort-key -> RID
	byTuple *btree.Tree // tuple-OID sort-key    -> RID
	nextID  int64
	nextSeq int64

	// attached records each annotation's secondary tuple attachments
	// (annotation ID -> extra tuple OIDs, in attach order, no duplicates).
	// The byTuple index alone cannot answer "which tuples does annotation
	// A touch?" without a full scan, and Delete needs exactly that to
	// remove every byTuple entry the annotation owns. Writer-side only:
	// mutated under the engine's exclusive lock, never consulted by
	// snapshot readers (AsOf shells leave it nil).
	attached map[int64][]int64
}

// NewAnnotationStore builds an empty store charged to acct.
func NewAnnotationStore(acct *pager.Accountant, pageCap int) *AnnotationStore {
	return &AnnotationStore{
		file:     heap.NewFile(acct, pageCap, model.AnnotationCodec),
		byID:     btree.New(acct, btree.DefaultOrder),
		byTuple:  btree.New(acct, btree.DefaultOrder),
		attached: make(map[int64][]int64),
	}
}

// AsOf returns a read-only snapshot shell of the store frozen at epoch
// snap (see Table.AsOf for the contract).
func (s *AnnotationStore) AsOf(snap uint64) *AnnotationStore {
	return &AnnotationStore{
		file:    s.file.AsOf(snap),
		byID:    s.byID.AsOf(snap),
		byTuple: s.byTuple.AsOf(snap),
		nextID:  s.nextID,
		nextSeq: s.nextSeq,
	}
}

// Add stores an annotation, assigning its ID and logical timestamp.
// The Columns slice is retained; callers must not mutate it afterwards.
func (s *AnnotationStore) Add(tupleOID int64, text string, columns []string, author string) *model.Annotation {
	return s.AddWithID(s.nextID+1, s.nextSeq+1, tupleOID, text, columns, author)
}

// PeekID returns the ID the next Add will assign, without consuming it.
func (s *AnnotationStore) PeekID() int64 { return s.nextID + 1 }

// PeekSeq returns the logical timestamp the next Add will assign.
func (s *AnnotationStore) PeekSeq() int64 { return s.nextSeq + 1 }

// AddWithID stores an annotation under a caller-chosen ID and logical
// timestamp — the WAL replay path, which must reproduce the IDs the
// logged run assigned (including gaps left by uncommitted operations).
// Both counters are bumped past the forced values so later organic Adds
// never collide.
func (s *AnnotationStore) AddWithID(id, seq, tupleOID int64, text string, columns []string, author string) *model.Annotation {
	if id > s.nextID {
		s.nextID = id
	}
	if seq > s.nextSeq {
		s.nextSeq = seq
	}
	a := &model.Annotation{
		ID:       id,
		Text:     text,
		TupleOID: tupleOID,
		Columns:  columns,
		Author:   author,
		Seq:      seq,
	}
	rid := s.file.Insert(a.ID, a)
	s.byID.Insert(model.OIDKey(a.ID), rid.Encode())
	s.byTuple.Insert(model.OIDKey(tupleOID), rid.Encode())
	return a
}

// Counters returns the ID and timestamp watermarks for checkpointing.
func (s *AnnotationStore) Counters() (nextID, nextSeq int64) { return s.nextID, s.nextSeq }

// SetCounters restores the watermarks from a checkpoint; counters only
// move forward so preserve-ID replay cannot regress them.
func (s *AnnotationStore) SetCounters(nextID, nextSeq int64) {
	if nextID > s.nextID {
		s.nextID = nextID
	}
	if nextSeq > s.nextSeq {
		s.nextSeq = nextSeq
	}
}

// AttachTo additionally attaches an existing annotation to another
// tuple — annotations may target arbitrary combinations of tuples, and
// a shared annotation must not be double counted when the tuples join.
// Attaching is idempotent: re-attaching to the primary tuple or to a
// tuple already attached is a no-op, so a repeated attach can never
// duplicate the byTuple entry (and thereby the annotation's summary
// contribution). Returns true only when the attachment is new.
func (s *AnnotationStore) AttachTo(annID, tupleOID int64) bool {
	enc, ok := s.byID.SearchFirst(model.OIDKey(annID))
	if !ok {
		return false
	}
	_, a, ok := s.file.Get(heap.DecodeRID(enc))
	if !ok || a.TupleOID == tupleOID {
		return false
	}
	for _, oid := range s.attached[annID] {
		if oid == tupleOID {
			return false
		}
	}
	s.byTuple.Insert(model.OIDKey(tupleOID), enc)
	s.attached[annID] = append(s.attached[annID], tupleOID)
	return true
}

// IsAttached reports whether the annotation already targets the tuple,
// either as its primary tuple or via a previous AttachTo.
func (s *AnnotationStore) IsAttached(annID, tupleOID int64) bool {
	a, ok := s.Get(annID)
	if !ok {
		return false
	}
	if a.TupleOID == tupleOID {
		return true
	}
	for _, oid := range s.attached[annID] {
		if oid == tupleOID {
			return true
		}
	}
	return false
}

// Attachments returns the annotation's secondary tuple OIDs in attach
// order (nil when it only targets its primary tuple). The slice is the
// store's own; callers must not mutate it.
func (s *AnnotationStore) Attachments(annID int64) []int64 {
	return s.attached[annID]
}

// Get fetches an annotation by ID.
func (s *AnnotationStore) Get(id int64) (*model.Annotation, bool) {
	enc, ok := s.byID.SearchFirst(model.OIDKey(id))
	if !ok {
		return nil, false
	}
	_, a, ok := s.file.Get(heap.DecodeRID(enc))
	return a, ok
}

// ForTuple returns all annotations attached to a tuple, in ID order.
func (s *AnnotationStore) ForTuple(tupleOID int64) []*model.Annotation {
	var out []*model.Annotation
	for _, v := range s.byTuple.SearchEq(model.OIDKey(tupleOID)) {
		if _, a, ok := s.file.Get(heap.DecodeRID(v)); ok {
			out = append(out, a)
		}
	}
	return out
}

// Delete removes an annotation, including every byTuple entry it owns:
// the primary tuple's and one per secondary AttachTo attachment —
// leaving the secondaries behind would make them dangle as dead index
// entries resolving to a freed heap slot.
func (s *AnnotationStore) Delete(id int64) bool {
	enc, ok := s.byID.SearchFirst(model.OIDKey(id))
	if !ok {
		return false
	}
	rid := heap.DecodeRID(enc)
	_, a, ok := s.file.Get(rid)
	if !ok {
		return false
	}
	s.file.Delete(rid)
	s.byID.Delete(model.OIDKey(id), enc)
	s.byTuple.Delete(model.OIDKey(a.TupleOID), enc)
	for _, oid := range s.attached[id] {
		s.byTuple.Delete(model.OIDKey(oid), enc)
	}
	delete(s.attached, id)
	return true
}

// Len returns the number of stored annotations.
func (s *AnnotationStore) Len() int { return s.file.Len() }

// All iterates every stored annotation in physical order.
func (s *AnnotationStore) All(fn func(*model.Annotation) bool) {
	s.file.Scan(func(_ heap.RID, _ int64, a *model.Annotation) bool {
		return fn(a)
	})
}

// Lookup returns a model.AnnotationLookup over this store, used for
// representative re-election and raw-text keyword search.
func (s *AnnotationStore) Lookup() model.AnnotationLookup {
	return func(id int64) (*model.Annotation, bool) { return s.Get(id) }
}
