package catalog

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/btree"
	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/pager"
)

// Catalog is the database's metadata root: tables, the shared annotation
// store, and the shared I/O accountant.
type Catalog struct {
	tables  map[string]*Table
	Anns    *AnnotationStore
	acct    *pager.Accountant
	pageCap int
	nextOID int64
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
		tables:  make(map[string]*Table),
		Anns:    NewAnnotationStore(acct, pageCap),
		acct:    acct,
		pageCap: pageCap,
	}
}

// Accountant returns the shared I/O accountant.
func (c *Catalog) Accountant() *pager.Accountant { return c.acct }

// AsOf returns a read-only snapshot shell of the catalog frozen at
// epoch snap: every table and the annotation store resolve through
// their version stores (see Table.AsOf for the contract). Cost is
// O(#tables + #instances + #indexes), independent of data size.
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
		acct:           c.acct,
		nextOID:        &c.nextOID,
	}
	for i := range t.ColStats {
		t.ColStats[i] = NewColumnStats()
	}
	c.tables[key] = t
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

// DropTable removes a relation from the catalog, releasing any buffer
// pool frames its storage held.
func (c *Catalog) DropTable(name string) error {
	key := strings.ToLower(name)
	t, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("catalog: unknown table %q", name)
	}
	delete(c.tables, key)
	t.Data.Release()
	t.SummaryStorage.Release()
	t.oidIndex.Release()
	t.sumIndex.Release()
	for _, idx := range t.dataIndexes {
		idx.Release()
	}
	return nil
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

// LinkInstance attaches a summary instance to a table — the catalog half
// of "ALTER TABLE t ADD [INDEXABLE] inst".
func (c *Catalog) LinkInstance(table string, si *SummaryInstance) error {
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	if err := si.Validate(); err != nil {
		return err
	}
	if t.Instance(si.Name) != nil {
		return fmt.Errorf("catalog: table %q already has instance %q", table, si.Name)
	}
	t.Instances = append(t.Instances, si)
	t.InstStats[strings.ToLower(si.Name)] = NewInstanceStats(si.Labels)
	return nil
}

// UnlinkInstance detaches a summary instance — "ALTER TABLE t DROP inst".
func (c *Catalog) UnlinkInstance(table, instance string) error {
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	for i, si := range t.Instances {
		if strings.EqualFold(si.Name, instance) {
			t.Instances = append(t.Instances[:i], t.Instances[i+1:]...)
			delete(t.InstStats, strings.ToLower(instance))
			return nil
		}
	}
	return fmt.Errorf("catalog: table %q has no instance %q", table, instance)
}
