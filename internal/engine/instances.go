package engine

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/index"
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
	entry := snapshotInstance{Def: *si}
	if clf != nil {
		entry.ClassifierState = clf.State()
	}
	return db.ddl(&pDefineInstance{Inst: entry}, func() error { return db.checkNewInstance(si) })
}

func (db *DB) checkNewInstance(si *catalog.SummaryInstance) error {
	if err := si.Validate(); err != nil {
		return err
	}
	if _, dup := db.instances[strings.ToLower(si.Name)]; dup {
		return fmt.Errorf("engine: summary instance %q already defined", si.Name)
	}
	return nil
}

// apply installs a defined instance and its trained classifier model,
// if any.
func (p *pDefineInstance) apply(db *DB) error {
	def := p.Inst.Def
	if err := db.checkNewInstance(&def); err != nil {
		return err
	}
	key := strings.ToLower(def.Name)
	db.instances[key] = &def
	db.bumpCatalogVersion()
	if p.Inst.ClassifierState != nil {
		db.classifiers[key] = bayes.FromState(p.Inst.ClassifierState)
	}
	return nil
}

// LinkInstance attaches a registered instance to a table, optionally
// building its Summary-BTree — the engine half of
// "ALTER TABLE t ADD [INDEXABLE] inst".
func (db *DB) LinkInstance(table, instance string, indexable bool) error {
	return db.ddl(&pLinkInstance{Table: table, Instance: instance, Indexable: indexable}, func() error {
		if _, ok := db.instances[strings.ToLower(instance)]; !ok {
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
	si, ok := db.instances[strings.ToLower(p.Instance)]
	if !ok {
		return fmt.Errorf("engine: unknown summary instance %q", p.Instance)
	}
	if err := db.cat.LinkInstance(p.Table, si); err != nil {
		return err
	}
	db.bumpCatalogVersion()
	if p.Indexable {
		return (&pCreateSummaryIndex{Table: p.Table, Instance: p.Instance}).apply(db)
	}
	return nil
}

// UnlinkInstance detaches an instance and drops its indexes —
// "ALTER TABLE t DROP inst".
func (db *DB) UnlinkInstance(table, instance string) error {
	return db.ddl(&pUnlinkInstance{Table: table, Instance: instance}, nil)
}

func (p *pUnlinkInstance) apply(db *DB) error {
	// Buffered annotations must reach the instance's summaries before it
	// detaches.
	db.flushIngestLocked()
	if err := db.cat.UnlinkInstance(p.Table, p.Instance); err != nil {
		return err
	}
	forgetIndex(db.summaryIdx, p.Table, p.Instance)
	forgetIndex(db.baselineIdx, p.Table, p.Instance)
	db.bumpCatalogVersion()
	return nil
}

// forgetIndex removes the index on (table, instance) from m, if there is
// one, and releases its storage: a structure that is only unlinked stays
// registered with the epoch clock (and in the buffer pool) forever.
func forgetIndex[X interface{ Release() }](m map[string]map[string]X, table, instance string) {
	tkey, ikey := strings.ToLower(table), strings.ToLower(instance)
	if x, ok := m[tkey][ikey]; ok {
		x.Release()
		delete(m[tkey], ikey)
	}
}

// indexableInstance resolves (table, instance) to a linked classifier
// instance, the only kind either index scheme covers.
func (db *DB) indexableInstance(table, instance string) (*catalog.Table, *catalog.SummaryInstance, error) {
	t, err := db.cat.Table(table)
	if err != nil {
		return nil, nil, err
	}
	si := t.Instance(instance)
	if si == nil {
		return nil, nil, fmt.Errorf("engine: table %q has no instance %q", table, instance)
	}
	if si.Type != model.SummaryClassifier {
		return nil, nil, fmt.Errorf("engine: only Classifier instances are indexable, %q is %s", instance, si.Type)
	}
	return t, si, nil
}

// CreateSummaryIndex builds a Summary-BTree over an instance's objects,
// bulk-loading from the existing summary storage (the Figure 8 bulk
// mode). Classifier instances only.
func (db *DB) CreateSummaryIndex(table, instance string) error {
	return db.ddl(&pCreateSummaryIndex{Table: table, Instance: instance}, func() error {
		_, _, err := db.indexableInstance(table, instance)
		return err
	})
}

func (p *pCreateSummaryIndex) apply(db *DB) error {
	// Bulk-load reads the stored summary objects; fold the buffered
	// ingest tail in first so the new index starts complete.
	db.flushIngestLocked()
	t, si, err := db.indexableInstance(p.Table, p.Instance)
	if err != nil {
		return err
	}
	// Flip Indexable copy-on-write: published epochs hold the old
	// *SummaryInstance in their copied Instances slices, so mutating it
	// in place would race with pinned readers. The same pointer may be
	// linked into several tables — swap it everywhere it appears.
	cp := *si
	cp.Indexable = true
	if old, ok := db.instances[strings.ToLower(si.Name)]; ok && old == si {
		db.instances[strings.ToLower(si.Name)] = &cp
	}
	for _, tn := range db.cat.TableNames() {
		if tt, err := db.cat.Table(tn); err == nil {
			for i, x := range tt.Instances {
				if x == si {
					tt.Instances[i] = &cp
				}
			}
		}
	}
	si = &cp
	idx := index.NewSummaryBTree(db.acct, si.Name)
	if err := db.forEachStoredObject(t, si.Name, func(obj *model.SummaryObject, rid heap.RID) error {
		return idx.IndexObject(obj, rid)
	}); err != nil {
		idx.Release()
		return err
	}
	forgetIndex(db.summaryIdx, p.Table, p.Instance) // a rebuild replaces the old index
	tkey := strings.ToLower(p.Table)
	if db.summaryIdx[tkey] == nil {
		db.summaryIdx[tkey] = map[string]*index.SummaryBTree{}
	}
	db.summaryIdx[tkey][strings.ToLower(p.Instance)] = idx
	// A new access path exists: cached plans that chose a sequential
	// scan for this instance's predicates are stale from here on.
	db.bumpCatalogVersion()
	return nil
}

// CreateBaselineIndex builds the baseline scheme (normalized side table
// + derived-column B-Tree) over an instance's objects.
func (db *DB) CreateBaselineIndex(table, instance string) error {
	return db.ddl(&pCreateBaselineIndex{Table: table, Instance: instance}, func() error {
		_, _, err := db.indexableInstance(table, instance)
		return err
	})
}

func (p *pCreateBaselineIndex) apply(db *DB) error {
	db.flushIngestLocked()
	t, si, err := db.indexableInstance(p.Table, p.Instance)
	if err != nil {
		return err
	}
	idx := index.NewBaseline(db.acct, t.Data.PageCap(), si.Name)
	if err := db.forEachStoredObject(t, si.Name, func(obj *model.SummaryObject, rid heap.RID) error {
		return idx.IndexObject(obj)
	}); err != nil {
		idx.Release()
		return err
	}
	forgetIndex(db.baselineIdx, p.Table, p.Instance) // a rebuild replaces the old index
	tkey := strings.ToLower(p.Table)
	if db.baselineIdx[tkey] == nil {
		db.baselineIdx[tkey] = map[string]*index.Baseline{}
	}
	db.baselineIdx[tkey][strings.ToLower(p.Instance)] = idx
	db.bumpCatalogVersion()
	return nil
}

// DropSummaryIndex removes the Summary-BTree on (table, instance).
// (A WAL commit-wait failure is deliberately swallowed to keep the
// historical void signature; the log's sticky error resurfaces on the
// next logged operation.)
func (db *DB) DropSummaryIndex(table, instance string) {
	_ = db.ddl(&pDropSummaryIndex{Table: table, Instance: instance}, nil)
}

func (p *pDropSummaryIndex) apply(db *DB) error {
	forgetIndex(db.summaryIdx, p.Table, p.Instance)
	db.bumpCatalogVersion()
	return nil
}

// DropBaselineIndex removes the baseline index on (table, instance).
// Like DropSummaryIndex, WAL errors resurface on the next operation.
func (db *DB) DropBaselineIndex(table, instance string) {
	_ = db.ddl(&pDropBaselineIndex{Table: table, Instance: instance}, nil)
}

func (p *pDropBaselineIndex) apply(db *DB) error {
	forgetIndex(db.baselineIdx, p.Table, p.Instance)
	db.bumpCatalogVersion()
	return nil
}

func (db *DB) forEachStoredObject(t *catalog.Table, instance string,
	fn func(*model.SummaryObject, heap.RID) error) error {
	var outer error
	t.SummaryStorage.Scan(func(_ heap.RID, oid int64, set model.SummarySet) bool {
		obj := set.Get(instance)
		if obj == nil {
			return true
		}
		rid, ok := t.DiskTupleLoc(oid)
		if !ok {
			return true
		}
		if err := fn(obj, rid); err != nil {
			outer = err
			return false
		}
		return true
	})
	return outer
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
	tx.ops = append(tx.ops, &pAddAnnotation{
		Table: table, OID: oid, ID: id, Seq: seq, Text: text, Columns: columns, Author: author,
	})
	return &model.Annotation{ID: id, Text: text, TupleOID: oid, Columns: columns, Author: author, Seq: seq}, nil
}

// apply stores one annotation under its forced identifiers and buffers
// its summary maintenance.
func (p *pAddAnnotation) apply(db *DB) error {
	t, rid, err := db.tupleLoc(p.Table, p.OID)
	if err != nil {
		return err
	}
	ann := db.cat.Anns.AddWithID(p.ID, p.Seq, p.OID, p.Text, p.Columns, p.Author)
	if len(p.Columns) > 0 {
		t.ColAttachedAnns++
	}
	db.bufferIngest(t, p.OID, rid, ann)
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

func (db *DB) newEmptyObject(t *catalog.Table, si *catalog.SummaryInstance, oid int64) *model.SummaryObject {
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
func (db *DB) absorbIntoSnippet(si *catalog.SummaryInstance, obj *model.SummaryObject, ann *model.Annotation) {
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
		elems := append([]int64(nil), g.Members...)
		sortInt64s(elems)
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
	annID := p.AnnID
	ann, ok := db.cat.Anns.Get(annID)
	if !ok {
		return fmt.Errorf("engine: no annotation %d", annID)
	}
	// The annotation contributes to its primary tuple AND every tuple it
	// was later attached to; each must shed the contribution, or attached
	// tuples keep stale classifier counts and dangling zoom element IDs.
	// OIDs are catalog-wide unique, so each resolves to its owning table.
	oids := append([]int64{ann.TupleOID}, db.cat.Anns.Attachments(annID)...)
	db.cat.Anns.Delete(annID)
	for _, oid := range oids {
		t, rid, ok := db.tableForOID(oid)
		if !ok {
			continue
		}
		// Each attachment with column targets bumped its table's counter
		// by one; the delete must unwind every one of them.
		if len(ann.Columns) > 0 && t.ColAttachedAnns > 0 {
			t.ColAttachedAnns--
		}
		db.shedAnnotation(t, oid, rid, annID)
	}
	return nil
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
// Annotation" (Section 4.1.2), shared by annotation deletes and the
// cascade when a tuple delete removes a still-attached annotation.
func (db *DB) shedAnnotation(t *catalog.Table, oid int64, rid heap.RID, annID int64) {
	set := t.GetSummaries(oid).Clone()
	for _, obj := range set {
		si := t.Instance(obj.InstanceID)
		if si == nil {
			continue
		}
		t.ForgetSummary(obj)
		switch si.Type {
		case model.SummaryClassifier:
			// The annotation may contribute to several representatives
			// (its leaf label plus ancestors in a hierarchical instance):
			// remove it from each.
			for li := range obj.Reps {
				r := &obj.Reps[li]
				if !r.HasElement(annID) {
					continue
				}
				old := r.Count
				r.Elements = removeSorted(r.Elements, annID)
				r.Count = len(r.Elements)
				if idx := db.summaryIndex(t.Name, si.Name); idx != nil {
					idx.UpdateLabel(r.Label, old, r.Count, rid)
				}
				if idx := db.baselineIndex(t.Name, si.Name); idx != nil {
					idx.UpdateLabel(oid, r.Label, r.Count)
				}
			}
		case model.SummarySnippet:
			kept := obj.Reps[:0]
			for _, r := range obj.Reps {
				if r.RepAnnID != annID {
					kept = append(kept, r)
				}
			}
			obj.Reps = kept
		case model.SummaryCluster:
			db.rebuildCluster(si, obj, oid)
		}
		t.ObserveSummary(obj)
	}
	t.PutSummaries(oid, set)
}

func insertSorted(s []int64, v int64) []int64 {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	if i < len(s) && s[i] == v {
		// Element sets are sets: inserting an ID twice would double count
		// the annotation in Rep.Count.
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int64, v int64) []int64 {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func sortInt64s(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
