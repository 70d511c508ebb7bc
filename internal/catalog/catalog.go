package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/mining/bayes"
	"repro/internal/model"
	"repro/internal/pager"
)

// Catalog is the database's metadata root: tables, the summary-instance
// registry with the trained classifier models, the shared annotation
// store, the shared I/O accountant, and the version cached plans are
// validated against.
type Catalog struct {
	tables  map[string]*Table
	Anns    *AnnotationStore
	acct    *pager.Accountant
	pageCap int
	nextOID int64

	// instances is the summary-instance registry (definitions are created
	// once, then linked to relations), classifiers the trained model of
	// each classifier instance, both keyed by lower-case name. Statements
	// resolve instances through their tables, so AsOf shells leave both
	// nil.
	instances   map[string]*SummaryInstance
	classifiers map[string]*bayes.Classifier

	// version counts catalog-shape changes — table, instance, link,
	// data-index and summary/baseline-index creation and removal — plus
	// explicit statistics refreshes (Invalidate). The plan cache keys
	// every entry on it, so one bump invalidates all cached plans.
	version atomic.Uint64
}

// New builds an empty catalog. pageCap is the records-per-page parameter
// B used by every heap file; <= 0 selects the default.
func New(acct *pager.Accountant, pageCap int) *Catalog {
	if acct == nil {
		acct = &pager.Accountant{}
	}
	if pageCap <= 0 {
		pageCap = 64
	}
	return &Catalog{
		tables:      make(map[string]*Table),
		Anns:        NewAnnotationStore(acct, pageCap),
		acct:        acct,
		pageCap:     pageCap,
		instances:   make(map[string]*SummaryInstance),
		classifiers: make(map[string]*bayes.Classifier),
	}
}

// Accountant returns the shared I/O accountant.
func (c *Catalog) Accountant() *pager.Accountant { return c.acct }

// AsOf returns a read-only snapshot shell of the catalog frozen at
// epoch snap: every table — its indexes included — and the annotation
// store resolve through their version stores (see Table.AsOf for the
// contract). Cost is O(#tables + #instances + #indexes), independent of
// data size.
func (c *Catalog) AsOf(snap uint64) *Catalog {
	cp := &Catalog{
		tables:  make(map[string]*Table, len(c.tables)),
		Anns:    c.Anns.AsOf(snap),
		acct:    c.acct,
		pageCap: c.pageCap,
		nextOID: c.nextOID,
	}
	for k, t := range c.tables {
		cp.tables[k] = t.AsOf(snap)
	}
	return cp
}

// Version returns the catalog version: plans cached under an older one
// never hit.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// Invalidate advances the version without a shape change — the explicit
// statistics refresh, after which every cached plan is costed again.
func (c *Catalog) Invalidate() { c.version.Add(1) }

// PageCap returns the records-per-page parameter of every heap file.
func (c *Catalog) PageCap() int { return c.pageCap }

// NextOID returns the catalog-wide OID counter (the last OID assigned),
// so a checkpoint can persist it and recovery can restore exact ID
// assignment across restarts.
func (c *Catalog) NextOID() int64 { return c.nextOID }

// SetNextOID restores the OID counter from a checkpoint; it only moves
// the counter forward so replayed forced-OID inserts cannot regress it.
func (c *Catalog) SetNextOID(oid int64) {
	if oid > c.nextOID {
		c.nextOID = oid
	}
}

// CreateTable registers a new relation.
func (c *Catalog) CreateTable(name string, schema *model.Schema) (*Table, error) {
	key := strings.ToLower(name)
	if _, exists := c.tables[key]; exists {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &Table{
		Name:           name,
		Schema:         schema,
		Data:           heap.NewFile(c.acct, c.pageCap, model.RowCodec),
		oidIndex:       btree.New(c.acct, btree.DefaultOrder),
		SummaryStorage: heap.NewFile(c.acct, c.pageCap, model.SummarySetCodec),
		sumIndex:       btree.New(c.acct, btree.DefaultOrder),
		InstStats:      make(map[string]*InstanceStats),
		ColStats:       make([]*ColumnStats, schema.Len()),
		summaryIdx:     make(map[string]*index.SummaryBTree),
		baselineIdx:    make(map[string]*index.Baseline),
		acct:           c.acct,
		nextOID:        &c.nextOID,
		version:        &c.version,
	}
	for i := range t.ColStats {
		t.ColStats[i] = NewColumnStats()
	}
	c.tables[key] = t
	c.version.Add(1)
	return t, nil
}

// Table resolves a table by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	return t, nil
}

// TableNames lists the registered tables, sorted.
func (c *Catalog) TableNames() []string {
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// DefineInstance registers a summary instance and, for a classifier,
// its trained model.
func (c *Catalog) DefineInstance(si *SummaryInstance, clf *bayes.Classifier) error {
	if err := si.Validate(); err != nil {
		return err
	}
	key := strings.ToLower(si.Name)
	if _, dup := c.instances[key]; dup {
		return fmt.Errorf("catalog: summary instance %q already defined", si.Name)
	}
	c.instances[key] = si
	if clf != nil {
		c.classifiers[key] = clf
	}
	c.version.Add(1)
	return nil
}

// Instance returns the registered summary instance with the given name,
// or nil.
func (c *Catalog) Instance(name string) *SummaryInstance {
	return c.instances[strings.ToLower(name)]
}

// Classifier returns the trained model behind a classifier instance, or
// nil.
func (c *Catalog) Classifier(name string) *bayes.Classifier {
	return c.classifiers[strings.ToLower(name)]
}

// InstanceNames lists the registered instances, sorted by lower-case
// name.
func (c *Catalog) InstanceNames() []string {
	names := make([]string, 0, len(c.instances))
	for _, si := range c.instances {
		names = append(names, si.Name)
	}
	slices.SortFunc(names, func(a, b string) int { return strings.Compare(strings.ToLower(a), strings.ToLower(b)) })
	return names
}

// LinkInstance attaches a registered summary instance to a table — the
// catalog half of "ALTER TABLE t ADD [INDEXABLE] inst".
func (c *Catalog) LinkInstance(table, instance string) error {
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	si := c.Instance(instance)
	if si == nil {
		return fmt.Errorf("catalog: unknown summary instance %q", instance)
	}
	if t.Instance(si.Name) != nil {
		return fmt.Errorf("catalog: table %q already has instance %q", table, si.Name)
	}
	t.Instances = append(t.Instances, si)
	t.InstStats[strings.ToLower(si.Name)] = NewInstanceStats(si.Labels)
	c.version.Add(1)
	return nil
}

// UnlinkInstance detaches a summary instance — "ALTER TABLE t DROP
// inst". Its statistics and both of its indexes go, and its object is
// stripped from every stored summary set, so a later re-link summarizes
// only what arrives after it, as a first link does.
func (c *Catalog) UnlinkInstance(table, instance string) error {
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	i := slices.IndexFunc(t.Instances, func(si *SummaryInstance) bool { return strings.EqualFold(si.Name, instance) })
	if i < 0 {
		return fmt.Errorf("catalog: table %q has no instance %q", table, instance)
	}
	t.Instances = slices.Delete(t.Instances, i, i+1)
	key := strings.ToLower(instance)
	delete(t.InstStats, key)
	releaseIndex(t.summaryIdx, key)
	releaseIndex(t.baselineIdx, key)
	var oids []int64
	t.SummaryStorage.Scan(func(_ heap.RID, oid int64, set model.SummarySet) bool {
		if set.Get(instance) != nil {
			oids = append(oids, oid)
		}
		return true
	})
	for _, oid := range oids {
		old := t.GetSummaries(oid)
		rid, _ := t.DiskTupleLoc(oid)
		t.PutSummaries(oid, rid, old, slices.DeleteFunc(slices.Clone(old), func(o *model.SummaryObject) bool {
			return strings.EqualFold(o.InstanceID, instance)
		}))
	}
	c.version.Add(1)
	return nil
}

// SummaryIndex returns the Summary-BTree on (table, instance), or nil.
func (c *Catalog) SummaryIndex(table, instance string) *index.SummaryBTree {
	if t := c.tables[strings.ToLower(table)]; t != nil {
		return t.SummaryIndex(instance)
	}
	return nil
}

// BaselineIndex returns the baseline index on (table, instance), or nil.
func (c *Catalog) BaselineIndex(table, instance string) *index.Baseline {
	if t := c.tables[strings.ToLower(table)]; t != nil {
		return t.BaselineIndex(instance)
	}
	return nil
}
