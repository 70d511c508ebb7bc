// Package clustream implements an online micro-clustering algorithm in
// the style of CluStream (Aggarwal, Han, Wang & Yu, VLDB 2003 — the
// paper's reference [2]). Cluster-type summary instances use it to group
// similar annotations incrementally and report one representative per
// group.
//
// Each micro-cluster maintains a cluster-feature (CF) vector: the count,
// linear sum, and squared sum of its members' embeddings plus timestamp
// sums. New points are absorbed by the nearest cluster when they fall
// within its maximum boundary; otherwise they seed a new cluster, and the
// two closest clusters are merged when the cluster budget is exceeded.
package clustream

import (
	"math"

	"repro/internal/textutil"
)

// Group is the externally visible form of one micro-cluster: the member
// annotation IDs and the representative (the member closest to the
// centroid when it was absorbed).
type Group struct {
	Members []int64
	RepID   int64
	RepText string
}

// microCluster is one CF vector plus the bookkeeping needed to elect a
// representative and to export Elements[][].
type microCluster struct {
	n       int
	ls      textutil.Vector // linear sum of member embeddings
	ss      float64         // sum of squared norms
	lst     float64         // linear sum of timestamps
	sst     float64         // squared sum of timestamps
	members []int64

	repID   int64
	repText string
	repVec  textutil.Vector
}

func (m *microCluster) centroid() textutil.Vector {
	c := m.ls.CloneVec()
	c.Scale(1 / float64(m.n))
	return c
}

// rmsDeviation is the root-mean-square deviation of members from the
// centroid, derived from the CF vector: sqrt(ss/n - |ls/n|^2).
func (m *microCluster) rmsDeviation() float64 {
	c := m.ls.CloneVec()
	c.Scale(1 / float64(m.n))
	v := m.ss/float64(m.n) - c.Dot(c)
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

func (m *microCluster) absorb(id int64, text string, vec textutil.Vector, ts float64) {
	m.n++
	m.ls.Add(vec)
	m.ss += vec.Dot(vec)
	m.lst += ts
	m.sst += ts * ts
	m.members = append(m.members, id)
	// Elect the member nearest the (updated) centroid as representative.
	cent := m.centroid()
	if m.repVec == nil || vec.DistanceSq(cent) < m.repVec.DistanceSq(cent) {
		m.repID, m.repText, m.repVec = id, text, vec
	}
}

// Config tunes the clusterer.
type Config struct {
	// Dim is the embedding dimensionality (default 64).
	Dim int
	// MaxClusters bounds the number of micro-clusters (default 10).
	MaxClusters int
	// BoundaryFactor is CluStream's t: a point within t × RMS-deviation
	// of the nearest cluster is absorbed (default 2).
	BoundaryFactor float64
}

func (c Config) withDefaults() Config {
	if c.Dim <= 0 {
		c.Dim = 64
	}
	if c.MaxClusters <= 0 {
		c.MaxClusters = 10
	}
	if c.BoundaryFactor <= 0 {
		c.BoundaryFactor = 2
	}
	return c
}

// Clusterer incrementally clusters annotation texts. Not safe for
// concurrent use.
type Clusterer struct {
	cfg      Config
	clusters []*microCluster
	inserted int
}

// New builds a Clusterer with the given configuration.
func New(cfg Config) *Clusterer {
	return &Clusterer{cfg: cfg.withDefaults()}
}

// Insert adds one annotation (id, text) observed at logical time ts.
func (c *Clusterer) Insert(id int64, text string, ts float64) {
	vec := textutil.HashVector(text, c.cfg.Dim)
	c.inserted++

	if len(c.clusters) == 0 {
		c.seed(id, text, vec, ts)
		return
	}

	// Find the nearest cluster by centroid distance.
	best, bestDist := -1, math.Inf(1)
	for i, mc := range c.clusters {
		d := vec.Distance(mc.centroid())
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	mc := c.clusters[best]

	// Maximum boundary: t × RMS deviation; for singleton clusters use the
	// distance to the closest other cluster (CluStream's heuristic), or a
	// fixed unit-sphere default when it is the only cluster. A boundary
	// of zero (all members identical) still absorbs exact matches.
	boundary := c.cfg.BoundaryFactor * mc.rmsDeviation()
	if mc.n == 1 {
		boundary = c.nearestOtherDistance(best)
		if boundary == 0 {
			boundary = 1 // embeddings are unit vectors; 1 ≈ 60° apart
		}
	}
	if bestDist <= boundary {
		mc.absorb(id, text, vec, ts)
		return
	}
	c.seed(id, text, vec, ts)
	if len(c.clusters) > c.cfg.MaxClusters {
		c.mergeClosestPair()
	}
}

func (c *Clusterer) seed(id int64, text string, vec textutil.Vector, ts float64) {
	mc := &microCluster{ls: make(textutil.Vector, c.cfg.Dim)}
	mc.absorb(id, text, vec, ts)
	c.clusters = append(c.clusters, mc)
}

func (c *Clusterer) nearestOtherDistance(idx int) float64 {
	cent := c.clusters[idx].centroid()
	best := math.Inf(1)
	for i, mc := range c.clusters {
		if i == idx {
			continue
		}
		if d := cent.Distance(mc.centroid()); d < best {
			best = d
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best / 2
}

func (c *Clusterer) mergeClosestPair() {
	bi, bj, best := -1, -1, math.Inf(1)
	for i := 0; i < len(c.clusters); i++ {
		ci := c.clusters[i].centroid()
		for j := i + 1; j < len(c.clusters); j++ {
			if d := ci.Distance(c.clusters[j].centroid()); d < best {
				bi, bj, best = i, j, d
			}
		}
	}
	if bi < 0 {
		return
	}
	a, b := c.clusters[bi], c.clusters[bj]
	a.n += b.n
	a.ls.Add(b.ls)
	a.ss += b.ss
	a.lst += b.lst
	a.sst += b.sst
	a.members = append(a.members, b.members...)
	if b.n > a.n-b.n { // keep the representative of the larger side
		a.repID, a.repText, a.repVec = b.repID, b.repText, b.repVec
	}
	c.clusters = append(c.clusters[:bj], c.clusters[bj+1:]...)
}

// Groups exports the current clustering. Member slices are copies.
func (c *Clusterer) Groups() []Group {
	out := make([]Group, len(c.clusters))
	for i, mc := range c.clusters {
		out[i] = Group{
			Members: append([]int64(nil), mc.members...),
			RepID:   mc.repID,
			RepText: mc.repText,
		}
	}
	return out
}

// Len returns the current number of micro-clusters.
func (c *Clusterer) Len() int { return len(c.clusters) }

// Inserted returns the total number of points inserted.
func (c *Clusterer) Inserted() int { return c.inserted }
