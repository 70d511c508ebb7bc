package clustream

import (
	"fmt"
	"math/rand"
	"testing"
)

var topics = map[string][]string{
	"disease":  {"infection parasite sick virus outbreak", "lesion disease spreading illness", "flu symptoms sick virus"},
	"anatomy":  {"wingspan beak plumage feathers", "bone skeleton weight body", "neck wing beak measurements"},
	"behavior": {"eating foraging stonewort lake", "migration autumn flying south", "nesting courtship singing dawn"},
}

func insertTopic(c *Clusterer, rng *rand.Rand, topic string, n int, firstID int64) {
	texts := topics[topic]
	for i := 0; i < n; i++ {
		c.Insert(firstID+int64(i), texts[rng.Intn(len(texts))], float64(firstID)+float64(i))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := New(Config{})
	if c.cfg.Dim != 64 || c.cfg.MaxClusters != 10 || c.cfg.BoundaryFactor != 2 {
		t.Errorf("defaults: %+v", c.cfg)
	}
}

func TestSingleInsertSeedsCluster(t *testing.T) {
	c := New(Config{})
	c.Insert(1, "a sick bird with infection", 1)
	if c.Len() != 1 || c.Inserted() != 1 {
		t.Fatalf("Len=%d Inserted=%d", c.Len(), c.Inserted())
	}
	g := c.Groups()
	if len(g) != 1 || g[0].RepID != 1 || len(g[0].Members) != 1 {
		t.Errorf("Groups: %+v", g)
	}
}

func TestSimilarTextsCoalesce(t *testing.T) {
	c := New(Config{MaxClusters: 5})
	rng := rand.New(rand.NewSource(1))
	insertTopic(c, rng, "disease", 20, 0)
	insertTopic(c, rng, "anatomy", 20, 100)
	if c.Len() > 5 {
		t.Errorf("cluster budget exceeded: %d", c.Len())
	}
	// All 40 members present exactly once across groups.
	seen := map[int64]int{}
	for _, g := range c.Groups() {
		for _, id := range g.Members {
			seen[id]++
		}
	}
	if len(seen) != 40 {
		t.Fatalf("membership lost: %d", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("member %d in %d groups", id, n)
		}
	}
}

func TestRepresentativeIsMember(t *testing.T) {
	c := New(Config{MaxClusters: 4})
	rng := rand.New(rand.NewSource(2))
	for i, topic := range []string{"disease", "anatomy", "behavior"} {
		insertTopic(c, rng, topic, 15, int64(i*100))
	}
	for gi, g := range c.Groups() {
		found := false
		for _, id := range g.Members {
			if id == g.RepID {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("group %d: representative %d not a member", gi, g.RepID)
		}
		if g.RepText == "" {
			t.Errorf("group %d: empty representative text", gi)
		}
	}
}

func TestGroupsReturnsCopies(t *testing.T) {
	c := New(Config{})
	c.Insert(1, "wingspan beak plumage", 0)
	c.Insert(2, "wingspan beak feathers", 1)
	g := c.Groups()
	g[0].Members[0] = -99
	if c.Groups()[0].Members[0] == -99 {
		t.Error("Groups leaked internal member slice")
	}
}

func TestBudgetEnforcedUnderDiverseInput(t *testing.T) {
	c := New(Config{MaxClusters: 3, Dim: 32})
	for i := 0; i < 60; i++ {
		// Every text is distinct nonsense, forcing constant seeding.
		c.Insert(int64(i), fmt.Sprintf("unique%dword%d token%d", i, i*7, i*13), float64(i))
		if c.Len() > 3 {
			t.Fatalf("budget exceeded at insert %d: %d clusters", i, c.Len())
		}
	}
	total := 0
	for _, g := range c.Groups() {
		total += len(g.Members)
	}
	if total != 60 {
		t.Errorf("members lost in merges: %d", total)
	}
}

func TestTopicPurityOnSeparatedTopics(t *testing.T) {
	// With a generous budget, well-separated topics should not be forced
	// into shared clusters: check that at least one cluster is pure per
	// topic (soft check; the algorithm is a heuristic).
	c := New(Config{MaxClusters: 12, Dim: 128})
	rng := rand.New(rand.NewSource(3))
	topicOf := map[int64]string{}
	id := int64(0)
	for _, topic := range []string{"disease", "anatomy", "behavior"} {
		for i := 0; i < 12; i++ {
			texts := topics[topic]
			c.Insert(id, texts[rng.Intn(len(texts))], float64(id))
			topicOf[id] = topic
			id++
		}
	}
	pure := map[string]bool{}
	for _, g := range c.Groups() {
		first := topicOf[g.Members[0]]
		same := true
		for _, m := range g.Members {
			if topicOf[m] != first {
				same = false
				break
			}
		}
		if same && len(g.Members) >= 3 {
			pure[first] = true
		}
	}
	if len(pure) < 2 {
		t.Errorf("expected pure clusters for most topics, got %v", pure)
	}
}
