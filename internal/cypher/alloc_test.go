package cypher

import (
	"math/rand"
	"runtime"
	"testing"

	"chatiyp/internal/graph"
)

// Allocation regression tests. Rows are slot-indexed frames carved
// from slabs, aggregation folds rows into per-group accumulators, and
// the top-k heap copies keys only for the rows it keeps, so a query's
// allocations no longer grow with one map per binding. Each bound is
// about 1.5x the count measured when the frames landed (99, 47 and 422
// allocations). The map-based executor made 20,030, 24,276 and 118,938
// on the same queries, so a return to per-binding allocation fails
// here long before it shows in a benchmark.

// allocGraph is a seeded graph of n :V nodes (i, and a group g of 20)
// with 2n :E relationships.
func allocGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := graph.New()
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = g.MustCreateNode([]string{"V"}, map[string]any{"i": i, "g": i % 20}).ID
	}
	for i := 0; i < 2*n; i++ {
		g.MustCreateRelationship(ids[rng.Intn(n)], ids[rng.Intn(n)], "E", nil)
	}
	return g
}

// checkAllocs fails when one execution of src allocates more than max
// times on average.
func checkAllocs(t *testing.T, g *graph.Graph, src string, wantRows int, max float64) {
	t.Helper()
	pq, err := Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxParallelism: 1}
	res, err := pq.Execute(g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != wantRows {
		t.Fatalf("%s: %d rows, want %d", src, len(res.Rows), wantRows)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := pq.Execute(g, nil, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%s: %.0f allocs/op", src, allocs)
	if allocs > max {
		t.Errorf("%s: %.0f allocs/op, want <= %.0f", src, allocs, max)
	}
}

func TestAllocsLabelScanProjection(t *testing.T) {
	g := allocGraph(t, 2000)
	checkAllocs(t, g, "MATCH (v:V) RETURN v.i", 2000, 150)
}

func TestAllocsGroupCount(t *testing.T) {
	g := allocGraph(t, 2000)
	checkAllocs(t, g, "MATCH (v:V) RETURN v.g AS g, count(*) AS n", 20, 70)
}

func TestAllocsTwoHopDistinctTopK(t *testing.T) {
	g := allocGraph(t, 2000)
	checkAllocs(t, g, "MATCH (a:V)-[:E]->(b:V)-[:E]->(c:V) "+
		"RETURN c.g AS g, count(DISTINCT a) AS n ORDER BY n DESC, g LIMIT 5", 5, 630)
}

// TestAllocsDistinctNodeBytesPerGroup bounds the memory of a many-group
// count(DISTINCT node) over high node IDs. Each group's DISTINCT filter
// must cost memory by the values it has seen, not by the magnitude of
// their IDs: node IDs only grow as a graph is written to.
func TestAllocsDistinctNodeBytesPerGroup(t *testing.T) {
	const groups, members = 500, 2
	g := graph.New()
	// Node IDs start above three million, as in a graph that has
	// created and deleted that many nodes.
	if err := g.ApplyMutation(graph.Mutation{Kind: graph.MutCreateNode, NodeID: 3_000_000, Labels: []string{"Pad"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < groups; i++ {
		head := g.MustCreateNode([]string{"G"}, map[string]any{"k": i}).ID
		for j := 0; j < members; j++ {
			m := g.MustCreateNode([]string{"M"}, nil).ID
			g.MustCreateRelationship(head, m, "H", nil)
			g.MustCreateRelationship(head, m, "H", nil) // a duplicate DISTINCT drops
		}
	}
	pq, err := Prepare("MATCH (h:G)-[:H]->(m:M) RETURN h.k AS k, count(DISTINCT m) AS n")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxParallelism: 1}
	res, err := pq.Execute(g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != groups || res.Rows[0][1] != int64(members) {
		t.Fatalf("%d rows, first %v; want %d rows of n = %d", len(res.Rows), res.Rows[0], groups, members)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := pq.Execute(g, nil, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perGroup := float64(after.TotalAlloc-before.TotalAlloc) / runs / groups
	t.Logf("%.0f bytes allocated per group", perGroup)
	if perGroup > 2048 {
		t.Errorf("%.0f bytes allocated per group, want <= 2048", perGroup)
	}
}
