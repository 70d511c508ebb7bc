package bench

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/pager"
	"repro/internal/workload"
)

// Fig18BufferPool measures the buffer pool (an extension beyond the
// paper, which assumes a disk-resident database under a real buffer
// manager): the Fig-10 selection executed as a full scan with summary
// propagation, cold (pool emptied first) then warm, across a sweep of
// frame budgets. At a pool at least as large as the working set the warm
// run pays (almost) no physical reads; below it the clock policy churns
// and the hit rate degrades gracefully. Frame residency must never
// exceed the configured budget.
func Fig18BufferPool(h *Harness) (*Table, error) {
	avg := h.Scale.SortedGrid()[0]
	t := &Table{
		Figure:  "Figure 18 (extension)",
		Title:   "Buffer pool sweep: cold vs warm Fig-10 scan, physical reads and hit rate vs frame budget",
		Headers: []string{"frames", "logical reads", "cold phys", "warm phys", "warm hits", "hit rate", "max resident", "cold/warm"},
	}
	frameSweep := []int{pager.MinPoolFrames, 2 * pager.MinPoolFrames, 64, 256}
	var bestReduction float64
	for _, frames := range frameSweep {
		ds, err := workload.Build(workload.Config{
			Seed:                  h.Scale.Seed,
			Birds:                 h.Scale.Birds,
			AvgAnnotationsPerBird: avg,
			Engine:                engine.Config{PageCap: parallelPageCap, BufferPoolPages: frames},
			SkipSynonyms:          true,
		})
		if err != nil {
			return nil, err
		}
		db := ds.DB
		pool := db.BufferPool()
		if pool == nil {
			return nil, fmt.Errorf("fig18: BufferPoolPages=%d produced no pool", frames)
		}
		birds, err := db.Table("Birds")
		if err != nil {
			return nil, err
		}
		c := pickConstant(birds, "ClassBird1", "Disease", 0.01)
		q := fmt.Sprintf(`SELECT * FROM Birds r
			WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = %d`, c)
		opts := &optimizer.Options{NoSummaryIndex: true}
		acct := db.Accountant()
		run := func() (pager.Stats, error) {
			before := acct.Stats()
			if _, err := db.Query(q, opts); err != nil {
				return pager.Stats{}, err
			}
			return acct.Stats().Sub(before), nil
		}
		pool.EvictAll() // genuine cold start: every page round-trips in
		cold, err := run()
		if err != nil {
			return nil, err
		}
		warm, err := run()
		if err != nil {
			return nil, err
		}
		st := pool.Stats()
		db.Close()
		if st.MaxResident > st.Frames {
			return nil, fmt.Errorf("fig18: residency %d exceeded %d frames", st.MaxResident, st.Frames)
		}
		reduction := float64(cold.PhysReads) / float64(max(warm.PhysReads, 1))
		if reduction > bestReduction {
			bestReduction = reduction
		}
		hitRate := "-"
		if acc := warm.CacheHits + warm.CacheMisses; acc > 0 {
			hitRate = fmt.Sprintf("%.1f%%", 100*float64(warm.CacheHits)/float64(acc))
		}
		t.AddRow(fmt.Sprint(st.Frames), fmt.Sprint(cold.PageReads),
			fmt.Sprint(cold.PhysReads), fmt.Sprint(warm.PhysReads),
			fmt.Sprint(warm.CacheHits), hitRate, fmt.Sprint(st.MaxResident),
			fmt.Sprintf("%.0fx", reduction))
	}
	if bestReduction < 10 {
		return nil, fmt.Errorf("fig18: best warm-run physical-read reduction %.1fx, want >= 10x at pool >= working set", bestReduction)
	}
	t.AddNote("warm runs at pool >= working set cut physical reads %.0fx (logical reads identical); residency stays within the frame budget at every size", bestReduction)
	t.AddNote("page cap %d spreads %d birds across enough pages for the sweep; cold runs evict the pool first", parallelPageCap, h.Scale.Birds)
	return t, nil
}
