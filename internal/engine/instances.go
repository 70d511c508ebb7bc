package engine

import (
	"fmt"
	"slices"
	"unicode/utf8"

	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/mining/bayes"
	"repro/internal/mining/clustream"
	"repro/internal/mining/lsa"
	"repro/internal/model"
)

// DefineClassifier registers a classifier summary instance with its
// ordered label vocabulary and trains its Naive Bayes model on the given
// per-label example texts.
func (db *DB) DefineClassifier(name string, labels []string, training map[string][]string) error {
	si := &catalog.SummaryInstance{Name: name, Type: model.SummaryClassifier, Labels: labels}
	clf := bayes.New(labels...)
	for label, texts := range training {
		for _, tx := range texts {
			if err := clf.Train(label, tx); err != nil {
				return err
			}
		}
	}
	return db.defineInstance(si, clf)
}

// DefineHierarchicalClassifier registers a classifier whose labels form
// a hierarchy (child -> parent), the multi-level summarization extension
// (the paper's future work). Annotations are classified to LEAF labels;
// ancestor labels accumulate their subtrees' element unions, so
// getLabelValue('Parent') is the exact subtree count, parent labels are
// indexable, and zooming on a parent drills into the combined subtree.
// Training examples are given per leaf label.
func (db *DB) DefineHierarchicalClassifier(name string, labels []string,
	parents map[string]string, training map[string][]string) error {
	si := &catalog.SummaryInstance{Name: name, Type: model.SummaryClassifier,
		Labels: labels, Parents: parents}
	clf := bayes.New(si.LeafLabels()...)
	for label, texts := range training {
		for _, tx := range texts {
			if err := clf.Train(label, tx); err != nil {
				return err
			}
		}
	}
	return db.defineInstance(si, clf)
}

// DefineSnippet registers a text-summarization instance: annotations
// longer than minChars are summarized into snippets of at most maxChars
// (the paper's setting: 1000 / 400).
func (db *DB) DefineSnippet(name string, minChars, maxChars int) error {
	si := &catalog.SummaryInstance{Name: name, Type: model.SummarySnippet,
		SnippetMinChars: minChars, SnippetMaxChars: maxChars}
	return db.defineInstance(si, nil)
}

// DefineCluster registers a clustering instance bounded to maxGroups
// micro-clusters per tuple.
func (db *DB) DefineCluster(name string, maxGroups int) error {
	si := &catalog.SummaryInstance{Name: name, Type: model.SummaryCluster,
		ClusterMaxGroups: maxGroups}
	return db.defineInstance(si, nil)
}

// defineInstance registers a summary instance as one logged operation.
// The classifier model is trained by the caller BEFORE logging, so the
// record carries the finished model state and replay reconstructs the
// identical classifier without the training corpus.
func (db *DB) defineInstance(si *catalog.SummaryInstance, clf *bayes.Classifier) error {
	return db.ddl(&pDefineInstance{Inst: *si, Clf: clf}, func() error {
		if err := si.Validate(); err != nil {
			return err
		}
		if db.cat.Instance(si.Name) != nil {
			return fmt.Errorf("engine: summary instance %q already defined", si.Name)
		}
		return nil
	})
}

// apply installs a defined instance and its trained classifier model,
// if any.
func (p *pDefineInstance) apply(db *DB) error {
	def := p.Inst
	return db.cat.DefineInstance(&def, p.Clf)
}

// LinkInstance attaches a registered instance to a table, optionally
// building its Summary-BTree — the engine half of
// "ALTER TABLE t ADD [INDEXABLE] inst".
func (db *DB) LinkInstance(table, instance string, indexable bool) error {
	return db.ddl(&pLinkInstance{Table: table, Instance: instance, Indexable: indexable}, func() error {
		if db.cat.Instance(instance) == nil {
			return fmt.Errorf("engine: unknown summary instance %q", instance)
		}
		_, err := db.cat.Table(table)
		return err
	})
}

func (p *pLinkInstance) apply(db *DB) error {
	// Buffered annotations were added while this instance was not linked:
	// they belong in the old instance set only.
	db.flushIngestLocked()
	if err := db.cat.LinkInstance(p.Table, p.Instance); err != nil {
		return err
	}
	if p.Indexable {
		return instanceRef{p.Table, p.Instance}.onTable(db, (*catalog.Table).CreateSummaryIndex)
	}
	return nil
}

// UnlinkInstance detaches an instance, strips its objects from the
// stored summaries and drops its statistics and indexes —
// "ALTER TABLE t DROP inst".
func (db *DB) UnlinkInstance(table, instance string) error {
	return db.ddl(&pUnlinkInstance{instanceRef{table, instance}}, func() error {
		t, err := db.cat.Table(table)
		if err == nil && t.Instance(instance) == nil {
			err = fmt.Errorf("catalog: table %q has no instance %q", table, instance)
		}
		return err
	})
}

func (p *pUnlinkInstance) apply(db *DB) error {
	// Buffered annotations must reach the instance's summaries before it
	// detaches.
	db.flushIngestLocked()
	return db.cat.UnlinkInstance(p.Table, p.Instance)
}

// checkIndexable refuses an index on anything but a linked classifier
// instance, the only kind either index scheme covers.
func (db *DB) checkIndexable(table, instance string) error {
	t, err := db.cat.Table(table)
	if err == nil {
		_, err = t.IndexableInstance(instance)
	}
	return err
}

// CreateSummaryIndex builds a Summary-BTree over an instance's objects,
// bulk-loading from the existing summary storage (the Figure 8 bulk
// mode). Classifier instances only.
func (db *DB) CreateSummaryIndex(table, instance string) error {
	return db.ddl(&pCreateSummaryIndex{instanceRef{table, instance}}, func() error {
		return db.checkIndexable(table, instance)
	})
}

// CreateBaselineIndex builds the baseline scheme (normalized side table
// + derived-column B-Tree) over an instance's objects.
func (db *DB) CreateBaselineIndex(table, instance string) error {
	return db.ddl(&pCreateBaselineIndex{instanceRef{table, instance}}, func() error {
		return db.checkIndexable(table, instance)
	})
}

// DropSummaryIndex removes the Summary-BTree on (table, instance),
// refusing a missing one.
func (db *DB) DropSummaryIndex(table, instance string) error {
	return db.ddl(&pDropSummaryIndex{instanceRef{table, instance}}, func() error {
		if db.cat.SummaryIndex(table, instance) == nil {
			return fmt.Errorf("engine: no Summary-BTree on %s.%s", table, instance)
		}
		return nil
	})
}

// DropBaselineIndex removes the baseline index on (table, instance),
// refusing a missing one.
func (db *DB) DropBaselineIndex(table, instance string) error {
	return db.ddl(&pDropBaselineIndex{instanceRef{table, instance}}, func() error {
		if db.cat.BaselineIndex(table, instance) == nil {
			return fmt.Errorf("engine: no baseline index on %s.%s", table, instance)
		}
		return nil
	})
}

func (p *pCreateSummaryIndex) apply(db *DB) error {
	return p.onTable(db, (*catalog.Table).CreateSummaryIndex)
}

func (p *pCreateBaselineIndex) apply(db *DB) error {
	return p.onTable(db, (*catalog.Table).CreateBaselineIndex)
}

func (p *pDropSummaryIndex) apply(db *DB) error {
	return p.onTable(db, (*catalog.Table).DropSummaryIndex)
}

func (p *pDropBaselineIndex) apply(db *DB) error {
	return p.onTable(db, (*catalog.Table).DropBaselineIndex)
}

// onTable runs an index build or drop on the record's table. A build
// bulk-loads the stored summaries, so the buffered ingest tail is folded
// in first and the new index starts complete.
func (r instanceRef) onTable(db *DB, fn func(*catalog.Table, string) error) error {
	db.flushIngestLocked()
	t, err := db.cat.Table(r.Table)
	if err != nil {
		return err
	}
	return fn(t, r.Instance)
}

// AddAnnotation attaches a raw annotation to a tuple (optionally to
// specific columns) and incrementally maintains every linked summary
// instance, the statistics, and the indexes — the maintenance paths of
// Section 4.1.2.
func (db *DB) AddAnnotation(table string, oid int64, text string, columns []string, author string) (ann *model.Annotation, err error) {
	err = db.auto(func(tx *Txn) error {
		ann, err = tx.addAnnotation(table, oid, text, columns, author)
		return err
	})
	return ann, err
}

// AddAnnotation attaches a raw annotation within the transaction. The
// returned annotation carries the reserved ID and timestamp; the stored
// copy materializes at Commit.
func (tx *Txn) AddAnnotation(table string, oid int64, text string, columns []string, author string) (ann *model.Annotation, err error) {
	err = tx.step(func() error {
		ann, err = tx.addAnnotation(table, oid, text, columns, author)
		return err
	})
	return ann, err
}

// addAnnotation validates one annotation and records it under the ID
// and timestamp it reserves. The returned annotation is the caller's
// copy of what apply will store.
func (tx *Txn) addAnnotation(table string, oid int64, text string, columns []string, author string) (*model.Annotation, error) {
	if _, err := tx.visibleTuple(table, oid); err != nil {
		return nil, err
	}
	anns := tx.db.cat.Anns
	id, seq := anns.PeekID(), anns.PeekSeq()
	anns.SetCounters(id, seq) // consume: interleaved writers must not reuse them
	if !tx.auto {
		tx.newAnns[id] = true
	}
	op := &pAddAnnotation{Table: table, Annotation: model.Annotation{
		ID: id, Text: text, TupleOID: oid, Columns: columns, Author: author, Seq: seq}}
	tx.ops = append(tx.ops, op)
	ann := op.Annotation
	return &ann, nil
}

// apply stores one annotation under its forced identifiers and buffers
// its summary maintenance.
func (p *pAddAnnotation) apply(db *DB) error {
	t, rid, err := db.tupleLoc(p.Table, p.TupleOID)
	if err != nil {
		return err
	}
	ann := db.cat.Anns.AddWithID(p.ID, p.Seq, p.TupleOID, p.Text, p.Columns, p.Author)
	if len(p.Columns) > 0 {
		t.ColAttachedAnns++
	}
	db.bufferIngest(t, p.TupleOID, rid, ann)
	return nil
}

// AttachAnnotation attaches an existing annotation to an additional
// tuple (annotations may span arbitrary tuple combinations) and folds it
// into that tuple's summaries. Because the annotation keeps its ID, a
// later join of both tuples merges without double counting.
func (db *DB) AttachAnnotation(table string, oid, annID int64) error {
	return db.auto(func(tx *Txn) error { return tx.attachAnnotation(table, oid, annID) })
}

// AttachAnnotation attaches an existing annotation to another tuple
// within the transaction.
func (tx *Txn) AttachAnnotation(table string, oid, annID int64) error {
	return tx.step(func() error { return tx.attachAnnotation(table, oid, annID) })
}

func (tx *Txn) attachAnnotation(table string, oid, annID int64) error {
	if _, err := tx.visibleTuple(table, oid); err != nil {
		return err
	}
	if err := tx.visibleAnn(annID); err != nil {
		return err
	}
	if tx.db.cat.Anns.IsAttached(annID, oid) {
		// Attaching is idempotent: the annotation already targets this
		// tuple (as primary or via an earlier attach), so re-attaching
		// must not double count it — nothing is recorded.
		return nil
	}
	tx.ops = append(tx.ops, &pAttachAnnotation{Table: table, OID: oid, AnnID: annID})
	return nil
}

func (p *pAttachAnnotation) apply(db *DB) error {
	t, rid, err := db.tupleLoc(p.Table, p.OID)
	if err != nil {
		return err
	}
	ann, ok := db.cat.Anns.Get(p.AnnID)
	if !ok {
		return fmt.Errorf("engine: no annotation %d", p.AnnID)
	}
	if !db.cat.Anns.AttachTo(p.AnnID, p.OID) {
		// Already attached — a transaction attaching twice, or a replayed
		// historical duplicate record, is a no-op, never a double count.
		return nil
	}
	if len(ann.Columns) > 0 {
		t.ColAttachedAnns++
	}
	db.bufferIngest(t, p.OID, rid, ann)
	return nil
}

func newEmptyObject(si *catalog.SummaryInstance, oid int64) *model.SummaryObject {
	obj := &model.SummaryObject{InstanceID: si.Name, TupleOID: oid, Type: si.Type}
	if si.Type == model.SummaryClassifier {
		for _, l := range si.Labels {
			obj.Reps = append(obj.Reps, model.Rep{Label: l})
		}
	}
	return obj
}

// absorbIntoSnippet adds a snippet representative. Large annotations are
// summarized with LSA; short ones carry (at most maxChars of) their own
// text so keyword search over the instance stays complete.
func absorbIntoSnippet(si *catalog.SummaryInstance, obj *model.SummaryObject, ann *model.Annotation) {
	var snippet string
	if len(ann.Text) > si.SnippetMinChars {
		s := lsa.Summarizer{MaxChars: si.SnippetMaxChars, Concepts: 3, MinChars: si.SnippetMinChars}
		snippet = s.Summarize(ann.Text)
	} else {
		snippet = truncateRuneSafe(ann.Text, si.SnippetMaxChars)
	}
	obj.Reps = append(obj.Reps, model.Rep{Text: snippet, RepAnnID: ann.ID, Elements: []int64{ann.ID}})
}

// truncateRuneSafe cuts s to at most max bytes without splitting a
// multi-byte UTF-8 rune: a cut that lands mid-rune backs up to the
// rune's start so the result is always valid UTF-8.
func truncateRuneSafe(s string, max int) string {
	if len(s) <= max {
		return s
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut]
}

// rebuildCluster re-clusters all of the tuple's annotations. Clustering
// quality depends on the full point set, so the per-tuple object is
// rebuilt rather than patched (annotation volume per tuple is bounded).
func (db *DB) rebuildCluster(si *catalog.SummaryInstance, obj *model.SummaryObject, oid int64) {
	cl := clustream.New(clustream.Config{MaxClusters: si.ClusterMaxGroups})
	for _, a := range db.cat.Anns.ForTuple(oid) {
		cl.Insert(a.ID, a.Text, float64(a.Seq))
	}
	obj.Reps = obj.Reps[:0]
	for _, g := range cl.Groups() {
		elems := slices.Clone(g.Members)
		slices.Sort(elems)
		obj.Reps = append(obj.Reps, model.Rep{
			Text: g.RepText, RepAnnID: g.RepID, Count: len(elems), Elements: elems,
		})
	}
}

// DeleteAnnotation removes a raw annotation and re-derives the affected
// summary objects ("Deleting Annotation" of Section 4.1.2).
func (db *DB) DeleteAnnotation(table string, annID int64) error {
	return db.auto(func(tx *Txn) error { return tx.deleteAnnotation(table, annID) })
}

// DeleteAnnotation removes an annotation within the transaction.
func (tx *Txn) DeleteAnnotation(table string, annID int64) error {
	return tx.step(func() error { return tx.deleteAnnotation(table, annID) })
}

func (tx *Txn) deleteAnnotation(table string, annID int64) error {
	if _, err := tx.db.cat.Table(table); err != nil {
		return err
	}
	if err := tx.visibleAnn(annID); err != nil {
		return err
	}
	if !tx.auto {
		tx.delAnns[annID] = true
	}
	tx.ops = append(tx.ops, &pDeleteAnnotation{Table: table, AnnID: annID})
	return nil
}

func (p *pDeleteAnnotation) apply(db *DB) error {
	// Deletes operate on flushed summaries: the re-derive below must see
	// every annotation added before this one was deleted.
	db.flushIngestLocked()
	if _, err := db.cat.Table(p.Table); err != nil {
		return err
	}
	ann, ok := db.cat.Anns.Get(p.AnnID)
	if !ok {
		return fmt.Errorf("engine: no annotation %d", p.AnnID)
	}
	db.dropAnnotation(ann, 0)
	return nil
}

// dropAnnotation deletes annotation a from the store and re-derives the
// summaries of every tuple a targets — its primary tuple and each tuple
// it was later attached to — except skip, a tuple being deleted (0 for
// none). OIDs are catalog-wide unique, so each resolves to its owning
// table. Every target with column attachments unwinds its table's
// counter, skip's included.
func (db *DB) dropAnnotation(a *model.Annotation, skip int64) {
	oids := append([]int64{a.TupleOID}, db.cat.Anns.Attachments(a.ID)...)
	db.cat.Anns.Delete(a.ID)
	for _, oid := range oids {
		t, rid, ok := db.tableForOID(oid)
		if !ok {
			continue
		}
		if len(a.Columns) > 0 && t.ColAttachedAnns > 0 {
			t.ColAttachedAnns--
		}
		if oid != skip {
			db.shedAnnotation(t, oid, rid, a.ID)
		}
	}
}

// tupleLoc resolves a live tuple of table to its heap location.
func (db *DB) tupleLoc(table string, oid int64) (*catalog.Table, heap.RID, error) {
	t, err := db.cat.Table(table)
	if err != nil {
		return nil, heap.RID{}, err
	}
	rid, ok := t.DiskTupleLoc(oid)
	if !ok {
		return nil, heap.RID{}, fmt.Errorf("engine: %s has no tuple %d", table, oid)
	}
	return t, rid, nil
}

// tableForOID resolves a tuple OID to its owning table and heap location.
// OIDs are allocated from a catalog-wide counter, so at most one table
// holds any given OID.
func (db *DB) tableForOID(oid int64) (*catalog.Table, heap.RID, bool) {
	for _, name := range db.cat.TableNames() {
		t, err := db.cat.Table(name)
		if err != nil {
			continue
		}
		if rid, ok := t.DiskTupleLoc(oid); ok {
			return t, rid, true
		}
	}
	return nil, heap.RID{}, false
}

// shedAnnotation re-derives one tuple's summary objects after annotation
// annID stopped targeting it — the per-tuple half of "Deleting
// Annotation" (Section 4.1.2) — and hands the new set to
// Table.PutSummaries.
func (db *DB) shedAnnotation(t *catalog.Table, oid int64, rid heap.RID, annID int64) {
	old := t.GetSummaries(oid)
	set := old.Clone()
	for _, obj := range set {
		si := t.Instance(obj.InstanceID)
		if si == nil {
			continue
		}
		switch si.Type {
		case model.SummaryClassifier:
			// The annotation may contribute to several representatives
			// (its leaf label plus ancestors in a hierarchical instance):
			// remove it from each.
			for li := range obj.Reps {
				r := &obj.Reps[li]
				if i, found := slices.BinarySearch(r.Elements, annID); found {
					r.Elements = slices.Delete(r.Elements, i, i+1)
					r.Count = len(r.Elements)
				}
			}
		case model.SummarySnippet:
			obj.Reps = slices.DeleteFunc(obj.Reps, func(r model.Rep) bool { return r.RepAnnID == annID })
		case model.SummaryCluster:
			db.rebuildCluster(si, obj, oid)
		}
	}
	t.PutSummaries(oid, rid, old, set)
}

// insertSorted adds v to the sorted ID set s. Element sets are sets:
// inserting an ID twice would double count the annotation in Rep.Count.
func insertSorted(s []int64, v int64) []int64 {
	if i, found := slices.BinarySearch(s, v); !found {
		s = slices.Insert(s, i, v)
	}
	return s
}
