package optimizer

import (
	"testing"

	"repro/internal/plan"
)

// TestParallelizeIdentityAtDOPOne pins the central compatibility
// contract: MaxParallelWorkers <= 1 must produce the exact plans the
// serial optimizer produces — the parallelization pass is the identity.
func TestParallelizeIdentityAtDOPOne(t *testing.T) {
	f := newOptFixture(t, 40, 60, false, 1)
	queries := []string{
		`SELECT a, b FROM R r WHERE r.a > 10`,
		`SELECT b, count(*), sum(a) FROM R r GROUP BY b`,
		`SELECT r.a, s.z FROM R r, S s WHERE r.a = s.x`,
		`SELECT a FROM R r ORDER BY a LIMIT 5`,
	}
	for _, q := range queries {
		serial := f.explain(q, Options{})
		for _, max := range []int{0, 1} {
			got := f.explain(q, Options{MaxParallelWorkers: max})
			if got != serial {
				t.Errorf("%s: MaxParallelWorkers=%d diverges from serial:\n%s\nvs\n%s",
					q, max, got, serial)
			}
		}
	}
}

// TestParallelPlanShapes asserts the pass puts its one marker, a
// GatherNode with DOP > 1, where each kind of parallel fragment
// belongs: over a scan pipeline (here the plan's root), as a GroupBy's
// child, and as a hash join's build (Right) side.
func TestParallelPlanShapes(t *testing.T) {
	f := newOptFixture(t, 40, 60, false, 1)
	opts := Options{MaxParallelWorkers: 4}
	hash := Options{MaxParallelWorkers: 4, ForceJoin: "hash"}
	for what, input := range map[string]plan.Node{
		"scan pipeline": f.optimize(`SELECT a, b FROM R r WHERE r.a > 10`, opts),
		"GroupBy child": firstNode[*plan.GroupByNode](t, f.optimize(`SELECT b, count(*), sum(a) FROM R r GROUP BY b`, opts)).Child,
		"hash build":    firstNode[*plan.Join](t, f.optimize(`SELECT r.a, s.z FROM R r, S s WHERE r.a = s.x`, hash)).Right,
	} {
		if g, ok := input.(*plan.GatherNode); !ok || g.DOP < 2 {
			t.Errorf("%s not parallelized:\n%s", what, plan.Explain(input))
		}
	}
}

// firstNode returns the first node of type T in root's tree, depth
// first.
func firstNode[T plan.Node](t *testing.T, root plan.Node) T {
	t.Helper()
	var found []T
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if v, ok := n.(T); ok {
			found = append(found, v)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	if len(found) == 0 {
		t.Fatalf("no %T in\n%s", *new(T), plan.Explain(root))
	}
	return found[0]
}

// TestParallelSmallTableStaysSerial: a single-page table has nothing to
// partition, so the plan stays serial regardless of the worker cap.
func TestParallelSmallTableStaysSerial(t *testing.T) {
	f := newOptFixture(t, 6, 0, false, 1) // 6 rows @ PageCap 8 -> one page
	q := `SELECT a FROM R r WHERE r.a > 1`
	serial := f.explain(q, Options{})
	par := f.explain(q, Options{MaxParallelWorkers: 8})
	if par != serial {
		t.Errorf("single-page scan was parallelized:\n%s", par)
	}
}

// TestParallelResultsMatchSerial executes representative queries both
// ways and compares full results (values and summaries).
func TestParallelResultsMatchSerial(t *testing.T) {
	f := newOptFixture(t, 40, 60, false, 1)
	queries := []string{
		`SELECT a, b FROM R r WHERE r.a > 10`,
		`SELECT b, count(*), sum(a), min(a), max(a) FROM R r GROUP BY b`,
		`SELECT r.a, s.z FROM R r, S s WHERE r.a = s.x`,
		`SELECT a FROM R r WHERE r.a > 3 ORDER BY a DESC LIMIT 7`,
		`SELECT a FROM R r WHERE r.$.getSummaryObject('C1').getLabelValue('Disease') >= 2`,
	}
	for _, q := range queries {
		serial := f.run(q, Options{MaxParallelWorkers: 1})
		for _, max := range []int{2, 4, 8} {
			par := f.run(q, Options{MaxParallelWorkers: max})
			if len(par) != len(serial) {
				t.Fatalf("%s: workers=%d rows %d vs serial %d", q, max, len(par), len(serial))
			}
			for i := range par {
				if par[i] != serial[i] {
					t.Fatalf("%s: workers=%d row %d differs:\n%s\n%s", q, max, i, par[i], serial[i])
				}
			}
		}
	}
	// The forced-hash join with a parallel build, executed.
	q := `SELECT r.a, s.z FROM R r, S s WHERE r.a = s.x`
	serial := f.run(q, Options{ForceJoin: "hash", MaxParallelWorkers: 1})
	par := f.run(q, Options{ForceJoin: "hash", MaxParallelWorkers: 4})
	if len(par) != len(serial) || len(serial) == 0 {
		t.Fatalf("hash join: %d vs %d rows", len(par), len(serial))
	}
	for i := range par {
		if par[i] != serial[i] {
			t.Fatalf("hash join row %d differs", i)
		}
	}
}
