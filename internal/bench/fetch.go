package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/optimizer"
	"repro/internal/pager"
	"repro/internal/plan"
	"repro/internal/workload"
)

// fetchBirds/fetchPageCap size the Figure-19 dataset independently of
// the harness scale: the fetch-path contrast needs a data file whose
// hit list spans several times the pool's frames while still packing a
// few hits per page, which the smoke scale's table is too small for.
const (
	fetchBirds   = 720
	fetchPageCap = 8
)

// Fig19FetchPath measures the batched page-ordered heap fetch (an
// extension beyond the paper, which fetches per pointer): a half-
// selectivity Summary-BTree range scan runs cold against a pool far
// smaller than the data file, once with the order-preserving per-RID
// fetch and once with the page-ordered batch. The in-order fetch
// revisits pages the small pool has already re-evicted, so its physical
// reads track the hit count; the sorted fetch pins each distinct page
// once and is bounded by the pages touched. Each run's physical reads
// are split into the index probe's node reads and the fetch's data-page
// reads. Both runs must return the same rows.
func Fig19FetchPath(h *Harness) (*Table, error) {
	// A wide label-count domain makes count order interleave data pages
	// hard (long same-count runs would stay in RID order and cache well);
	// past ~50 annotations/bird the domain is wide enough and more volume
	// only slows the build.
	grid := h.Scale.SortedGrid()
	avg := grid[len(grid)-1]
	if avg > 50 {
		avg = 50
	}
	t := &Table{
		Figure:  "Figure 19 (extension)",
		Title:   "Index-scan fetch paths: cold physical reads, ordered (per-RID) vs sorted (page-batched) dereference",
		Headers: []string{"frames", "data pages", "hits", "ordered node phys", "ordered data phys", "sorted node phys", "sorted data phys", "reduction"},
	}
	var bestReduction float64
	for _, frames := range []int{pager.MinPoolFrames, 2 * pager.MinPoolFrames} {
		ds, err := workload.Build(workload.Config{
			Seed:                  h.Scale.Seed,
			Birds:                 fetchBirds,
			AvgAnnotationsPerBird: avg,
			Engine:                engine.Config{PageCap: fetchPageCap, BufferPoolPages: frames},
			SkipSynonyms:          true,
		})
		if err != nil {
			return nil, err
		}
		db := ds.DB
		pool := db.BufferPool()
		if pool == nil {
			return nil, fmt.Errorf("fig19: BufferPoolPages=%d produced no pool", frames)
		}
		if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
			return nil, err
		}
		birds, err := db.Table("Birds")
		if err != nil {
			return nil, err
		}
		dataPages := birds.Data.Pages()
		if dataPages <= frames {
			return nil, fmt.Errorf("fig19: %d data pages fit the %d-frame pool; no fetch contrast", dataPages, frames)
		}
		c := pickGreaterConstant(birds, "ClassBird1", "Disease", 0.5)
		// No propagation keeps summary-storage reads out: a run's physical
		// reads are the index probe's node reads plus the fetch's
		// data-page reads.
		q := fmt.Sprintf(`SELECT id, common_name FROM Birds r
			WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > %d
			WITHOUT SUMMARIES`, c)
		acct := db.Accountant()
		// The probe alone, cold, enters each node of the walk once and
		// misses on each: its physical reads are the node share of a
		// query that enters the same nodes.
		pool.EvictAll()
		before := acct.Stats()
		db.SummaryIndex("Birds", "ClassBird1").Search("Disease", index.OpGt, c)
		probe := acct.Stats().Sub(before)
		if probe.PhysReads != probe.NodeReads {
			return nil, fmt.Errorf("fig19: cold probe made %d physical reads for %d node reads", probe.PhysReads, probe.NodeReads)
		}
		runCold := func(fetch string) (pager.Stats, []string, error) {
			pool.EvictAll()
			before := acct.Stats()
			res, err := db.Query(q, &optimizer.Options{ForceFetch: fetch})
			if err != nil {
				return pager.Stats{}, nil, err
			}
			if p := plan.Explain(res.Plan); !strings.Contains(p, "fetch="+fetch) {
				return pager.Stats{}, nil, fmt.Errorf("fig19: plan lacks fetch=%s:\n%s", fetch, p)
			}
			st := acct.Stats().Sub(before)
			if st.NodeReads != probe.NodeReads {
				return pager.Stats{}, nil, fmt.Errorf("fig19: %s fetch read %d index nodes, the probe %d", fetch, st.NodeReads, probe.NodeReads)
			}
			rows := make([]string, len(res.Rows))
			for i, r := range res.Rows {
				rows[i] = r.Tuple.String()
			}
			sort.Strings(rows)
			return st, rows, nil
		}
		ordered, oRows, err := runCold("ordered")
		if err != nil {
			return nil, err
		}
		sorted, sRows, err := runCold("sorted")
		if err != nil {
			return nil, err
		}
		db.Close()
		if len(oRows) == 0 || len(oRows) != len(sRows) {
			return nil, fmt.Errorf("fig19: row counts diverge: ordered %d, sorted %d", len(oRows), len(sRows))
		}
		for i := range oRows {
			if oRows[i] != sRows[i] {
				return nil, fmt.Errorf("fig19: row multisets diverge at %d: %s vs %s", i, oRows[i], sRows[i])
			}
		}
		reduction := float64(ordered.PhysReads) / float64(max(sorted.PhysReads, 1))
		if reduction > bestReduction {
			bestReduction = reduction
		}
		node := fmt.Sprint(probe.PhysReads)
		t.AddRow(fmt.Sprint(frames), fmt.Sprint(dataPages), fmt.Sprint(len(oRows)),
			node, fmt.Sprint(ordered.PhysReads-probe.PhysReads),
			node, fmt.Sprint(sorted.PhysReads-probe.PhysReads), fmt.Sprintf("%.1fx", reduction))
	}
	if bestReduction < 2 {
		return nil, fmt.Errorf("fig19: best physical-read reduction %.1fx, want >= 2x at pool < table pages", bestReduction)
	}
	t.AddNote("page-ordered fetch cuts cold physical reads (node + data) %.1fx at the smallest pool; row multisets identical in both modes", bestReduction)
	t.AddNote("node phys is the cold index probe's, which both fetches repeat: the walk enters each node once")
	t.AddNote("%d birds at page cap %d; the hit list spans several times the pool's frames, so per-RID order re-faults pages the batch pins once", fetchBirds, fetchPageCap)
	return t, nil
}
