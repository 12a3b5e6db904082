package cypher

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"chatiyp/internal/graph"
)

// Recorded-output equivalence: every read query must produce exactly
// the columns, rows (including order), value types, stats and error
// text recorded from the former materializing executor (see
// oracle_test.go).

// streamEquivCorpus is the read conformance corpus: a broad sweep of
// read shapes, with deliberate weight on the pipeline's machinery —
// LIMIT pushdown, top-k ORDER BY, SKIP interplay, DISTINCT severing,
// UNION dedup, OPTIONAL MATCH fallbacks.
var streamEquivCorpus = []string{
	// Plain scans and projections.
	"MATCH (a:AS) RETURN a.asn",
	"MATCH (a:AS) RETURN a.asn, a.name",
	"MATCH (n) RETURN n.name ORDER BY n.name",
	"MATCH (a:AS) RETURN *",
	"RETURN 1 + 2 AS x",
	// LIMIT pushdown shapes.
	"MATCH (a:AS) RETURN a.asn LIMIT 2",
	"MATCH (a:AS) RETURN a.asn LIMIT 0",
	"MATCH (a:AS) RETURN a.asn SKIP 1 LIMIT 1",
	"MATCH (a:AS) RETURN a.asn SKIP 10",
	"MATCH (a:AS) RETURN a.asn SKIP 1",
	"MATCH (n) RETURN n LIMIT 3",
	// ORDER BY, top-k, ties.
	"MATCH (a:AS) RETURN a.asn ORDER BY a.asn",
	"MATCH (a:AS) RETURN a.asn ORDER BY a.asn DESC",
	"MATCH (a:AS) RETURN a.asn ORDER BY a.asn LIMIT 2",
	"MATCH (a:AS) RETURN a.asn ORDER BY a.asn DESC LIMIT 2",
	"MATCH (a:AS) RETURN a.asn ORDER BY a.asn SKIP 1 LIMIT 1",
	"MATCH (a:AS) RETURN a.name ORDER BY a.asn LIMIT 10",
	"MATCH (p:Prefix) RETURN p.prefix ORDER BY p.af, p.prefix DESC LIMIT 2",
	// DISTINCT and its ORDER BY scoping.
	"MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN DISTINCT c.country_code ORDER BY c.country_code",
	"MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN DISTINCT c.country_code LIMIT 1",
	"MATCH (p:Prefix) RETURN DISTINCT p.af",
	// Aggregation.
	"MATCH (a:AS) RETURN count(a)",
	"MATCH (a:AS)-[:ORIGINATE]->(p) RETURN a.name, count(p) ORDER BY count(p) DESC",
	"MATCH (a:AS)-[:ORIGINATE]->(p) RETURN a.name, count(p) ORDER BY count(p) DESC LIMIT 1",
	"MATCH (a:AS) RETURN sum(a.asn), min(a.asn), max(a.asn), avg(a.asn)",
	"MATCH (x:NoSuchLabel) RETURN count(*)",
	"MATCH (a:AS) RETURN collect(a.asn) AS asns",
	"MATCH (a:AS)-[r:ORIGINATE]->() RETURN a.name, sum(r.count) ORDER BY a.name",
	// WITH pipelines.
	"MATCH (a:AS) WITH a ORDER BY a.asn DESC LIMIT 1 MATCH (a)-[:ORIGINATE]->(p) RETURN p.prefix ORDER BY p.prefix",
	"MATCH (a:AS) WITH a.asn AS n WHERE n > 3000 RETURN n ORDER BY n",
	"MATCH (a:AS)-[r:ORIGINATE]->() WITH a, count(r) AS deg RETURN sum(deg), count(*)",
	"MATCH (a:AS) WITH collect(a.asn) AS xs UNWIND xs AS x RETURN count(x)",
	"MATCH (a:AS) WITH a LIMIT 2 RETURN a.asn ORDER BY a.asn",
	// UNWIND.
	"UNWIND [3, 1, 2] AS x RETURN x ORDER BY x",
	"UNWIND [3, 1, 2] AS x RETURN x LIMIT 2",
	"UNWIND [[1,2],[3]] AS xs UNWIND xs AS x RETURN x",
	"UNWIND [] AS x RETURN x",
	"UNWIND null AS x RETURN x",
	// OPTIONAL MATCH.
	"MATCH (a:AS) OPTIONAL MATCH (a)-[r:ORIGINATE]->() RETURN a.asn, count(r) ORDER BY a.asn",
	"MATCH (a:AS) OPTIONAL MATCH (a)-[:NO_SUCH]->(b) RETURN a.asn, b ORDER BY a.asn",
	"OPTIONAL MATCH (x:NoSuchLabel) RETURN x",
	// Relationship traversals, var-length, paths.
	"MATCH (a:AS {asn: 2497})-[:ORIGINATE]->(p) RETURN p.prefix ORDER BY p.prefix",
	"MATCH (a:AS {asn: 2497})-[:PEERS_WITH]-(b:AS) RETURN b.name",
	"MATCH (a:AS)-[:COUNTRY]->(c {country_code: 'JP'}) RETURN a.asn ORDER BY a.asn",
	"MATCH (a:AS {asn: 64500})-[:DEPENDS_ON*1..2]->(b:AS) RETURN b.asn ORDER BY b.asn",
	"MATCH p = (:AS {asn: 2497})-[:MEMBER_OF]->(:IXP) RETURN length(p)",
	"MATCH (a:AS)-[:MEMBER_OF]->(x:IXP)<-[:MEMBER_OF]-(b:AS) WHERE a.asn < b.asn RETURN a.asn, b.asn",
	// Multiple patterns (cross product with join predicate).
	"MATCH (a:AS), (b:AS) WHERE a.asn < b.asn RETURN a.asn, b.asn ORDER BY a.asn, b.asn",
	"MATCH (a:AS), (b:AS) WHERE a.asn < b.asn RETURN a.asn, b.asn LIMIT 3",
	// WHERE-driven index hints.
	"MATCH (a:AS) WHERE a.asn = 2497 RETURN a.name",
	"MATCH (a:AS) WHERE a.asn = 2497 AND a.name = 'IIJ' RETURN a.name",
	// UNION / UNION ALL / DISTINCT interplay.
	"MATCH (a:AS {asn: 2497}) RETURN a.name AS name UNION MATCH (a:AS {asn: 2497}) RETURN a.name AS name",
	"MATCH (a:AS {asn: 2497}) RETURN a.name AS name UNION ALL MATCH (a:AS {asn: 2497}) RETURN a.name AS name",
	"RETURN 1 AS n UNION RETURN 2 AS n UNION RETURN 1 AS n",
	"RETURN 1 AS n UNION ALL RETURN 1 AS n UNION RETURN 1 AS n",
	"RETURN 1 AS n UNION RETURN 1 AS n UNION ALL RETURN 1 AS n",
	"MATCH (a:AS) RETURN DISTINCT a.name AS n UNION ALL MATCH (a:AS) RETURN a.name AS n",
	"MATCH (a:AS) RETURN a.name AS n ORDER BY n LIMIT 2 UNION MATCH (c:Country) RETURN c.name AS n",
	// Expression-only queries.
	"RETURN CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END AS v",
	"RETURN [x IN range(1, 5) WHERE x % 2 = 0] AS evens",
}

func TestStreamingEquivalenceCorpus(t *testing.T) {
	g := fixture(t)
	for _, src := range streamEquivCorpus {
		checkRecorded(t, g, src, nil, Options{})
	}
}

func TestStreamingEquivalenceCorpusNoIndexes(t *testing.T) {
	g := fixture(t)
	for _, src := range streamEquivCorpus {
		checkRecorded(t, g, src, nil, Options{DisableIndexes: true})
	}
}

func TestStreamingEquivalenceChainGraph(t *testing.T) {
	g := chainGraph(t, 12)
	for _, src := range []string{
		"MATCH (n:N) RETURN n.i LIMIT 4",
		"MATCH (n:N) RETURN n.i ORDER BY n.i DESC LIMIT 3",
		"MATCH (a:N {i: 1})-[:NEXT*1..4]->(b) RETURN b.i ORDER BY b.i",
		"MATCH (a:N {i: 1})-[:NEXT*1..4]->(b) RETURN b.i LIMIT 2",
		"MATCH (a:N)-[:NEXT]->(b) RETURN a.i, b.i ORDER BY a.i SKIP 3 LIMIT 4",
		"MATCH (a:N)-[:NEXT]-(b)-[:NEXT]-(c) RETURN DISTINCT c.i ORDER BY c.i",
		"MATCH (n:N) WHERE n.i % 2 = 0 RETURN n.i ORDER BY n.i LIMIT 3",
	} {
		checkRecorded(t, g, src, nil, Options{})
	}
}

// TestStreamingEquivalenceRandomized checks the recorded outputs on
// random graphs with duplicate-heavy properties — the worst case for
// top-k tie-breaking and DISTINCT.
func TestStreamingEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		g := graph.New()
		n := 8 + rng.Intn(24)
		var nodes []*graph.Node
		for i := 0; i < n; i++ {
			nodes = append(nodes, g.MustCreateNode([]string{"V"}, map[string]any{
				"x": rng.Intn(5), // few distinct values => many ties
				"y": rng.Intn(100),
				"i": i,
			}))
		}
		for i := 0; i < n*2; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.MustCreateRelationship(nodes[a].ID, nodes[b].ID, "E", map[string]any{"w": rng.Intn(10)})
			}
		}
		limit := 1 + rng.Intn(6)
		skip := rng.Intn(3)
		for _, src := range []string{
			fmt.Sprintf("MATCH (v:V) RETURN v.i ORDER BY v.x LIMIT %d", limit),
			fmt.Sprintf("MATCH (v:V) RETURN v.i ORDER BY v.x DESC, v.y LIMIT %d", limit),
			fmt.Sprintf("MATCH (v:V) RETURN v.i ORDER BY v.x SKIP %d LIMIT %d", skip, limit),
			fmt.Sprintf("MATCH (v:V) RETURN v.x LIMIT %d", limit),
			fmt.Sprintf("MATCH (v:V) RETURN DISTINCT v.x ORDER BY v.x LIMIT %d", limit),
			fmt.Sprintf("MATCH (a:V)-[e:E]->(b:V) RETURN a.i, b.i ORDER BY e.w, a.i LIMIT %d", limit),
			fmt.Sprintf("MATCH (v:V) RETURN v.x, count(*) ORDER BY count(*) DESC, v.x LIMIT %d", limit),
			"MATCH (v:V) RETURN v.x, collect(v.i) ORDER BY v.x",
		} {
			checkRecorded(t, g, src, nil, Options{})
		}
	}
}

// TestStreamingTopKTieOrdering pins the top-k heap's tie-breaking to
// the stable sort: rows with equal keys must surface in arrival order,
// cut at exactly LIMIT.
func TestStreamingTopKTieOrdering(t *testing.T) {
	g := graph.New()
	// 9 nodes, keys 0,1,2,0,1,2,... — arrival order is id order.
	for i := 0; i < 9; i++ {
		g.MustCreateNode([]string{"T"}, map[string]any{"k": i % 3, "id": i})
	}
	for limit := 1; limit <= 9; limit++ {
		src := fmt.Sprintf("MATCH (t:T) RETURN t.id ORDER BY t.k LIMIT %d", limit)
		sres := checkRecorded(t, g, src, nil, Options{})
		if len(sres.Rows) != limit {
			t.Fatalf("LIMIT %d returned %d rows", limit, len(sres.Rows))
		}
	}
	// Explicit spot check: ties on k=0 are ids 0,3,6 in that order.
	res := checkRecorded(t, g, "MATCH (t:T) RETURN t.id ORDER BY t.k LIMIT 2", nil, Options{})
	if res.Rows[0][0] != int64(0) || res.Rows[1][0] != int64(3) {
		t.Fatalf("tie order = %v, want [0] [3]", res.Rows)
	}
}

func TestStreamingErrorParity(t *testing.T) {
	g := fixture(t)
	for _, src := range []string{
		"MATCH (a:AS) RETURN a.asn LIMIT -1",
		"MATCH (a:AS) RETURN a.asn SKIP -2",
		"MATCH (a:AS) RETURN a.asn ORDER BY a.asn LIMIT 'x'",
		"MATCH (a:AS) RETURN nope(a)",
		"RETURN $missing",
		"MATCH (a:AS) RETURN a.name UNION MATCH (a:AS) RETURN a.name, a.asn",
		"MATCH (a:AS) RETURN a.name AS x UNION MATCH (a:AS) RETURN a.name AS y",
	} {
		checkRecorded(t, g, src, nil, Options{}) // asserts the recorded error text
	}
}

func TestRowLimitTruncation(t *testing.T) {
	g := fixture(t) // 3 AS nodes
	res, err := ExecuteWith(g, "MATCH (a:AS) RETURN a.asn ORDER BY a.asn", nil, Options{RowLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || !res.Truncated {
		t.Fatalf("rows=%d truncated=%v, want 2/true", len(res.Rows), res.Truncated)
	}
	if res.Rows[0][0] != int64(2497) || res.Rows[1][0] != int64(15169) {
		t.Fatalf("truncated prefix = %v, want [2497] [15169]", res.Rows)
	}
	// Cap at or above the natural size must not set the flag.
	res, err = ExecuteWith(g, "MATCH (a:AS) RETURN a.asn", nil, Options{RowLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Truncated {
		t.Fatalf("rows=%d truncated=%v, want 3/false", len(res.Rows), res.Truncated)
	}
}

// TestStreamingAvoidsTooManyRows: a LIMIT query over an intermediate
// larger than MaxRows succeeds because the pushed-down limit stops the
// scan first, while a blocking operator over the same intermediate
// overflows.
func TestStreamingAvoidsTooManyRows(t *testing.T) {
	g := chainGraph(t, 300)
	src := "MATCH (a:N)-[:NEXT]->(b) RETURN a.i LIMIT 3" // 299 intermediate rows
	opts := Options{MaxRows: 100}
	blocking := "MATCH (a:N)-[:NEXT]->(b) RETURN count(a)"
	if _, err := ExecuteWith(g, blocking, nil, opts); !errors.Is(err, ErrTooManyRows) {
		t.Fatalf("aggregate over 299 rows with MaxRows 100: err = %v, want ErrTooManyRows", err)
	}
	res, err := ExecuteWith(g, src, nil, opts)
	if err != nil {
		t.Fatalf("streaming executor should not overflow: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

// TestWriteBarrierMaxRows: MaxRows bounds the rows a write barrier
// holds, counted after the MATCH's WHERE, and a top-k below the
// barrier keeps the intermediate small.
func TestWriteBarrierMaxRows(t *testing.T) {
	g := fixture(t) // 9 nodes; only the IXP is named TESTIX
	opts := Options{MaxRows: 3}
	res, err := ExecuteWith(g, "MATCH (n) WHERE n.name = 'TESTIX' SET n.hit = true RETURN count(n)", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(); v != int64(1) || res.Stats.PropertiesSet != 1 {
		t.Fatalf("count = %v, stats %+v; want the one TESTIX node updated", v, res.Stats)
	}
	res, err = ExecuteWith(g, "MATCH (a:AS) WITH a ORDER BY a.asn DESC LIMIT 1 SET a.top = true RETURN a.asn", nil, Options{MaxRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(); v != int64(64500) {
		t.Fatalf("top AS = %v, want 64500", v)
	}
	if _, err := ExecuteWith(g, "MATCH (a:AS) SET a.x = 1", nil, Options{MaxRows: 2}); !errors.Is(err, ErrTooManyRows) {
		t.Fatalf("3 rows into a barrier with MaxRows 2: err = %v, want ErrTooManyRows", err)
	}
}

func TestStreamingCounters(t *testing.T) {
	g := fixture(t)
	rows0, exits0 := StreamStats()
	if _, err := Execute(g, "MATCH (a:AS) RETURN a.asn LIMIT 2", nil); err != nil {
		t.Fatal(err)
	}
	rows1, exits1 := StreamStats()
	if rows1-rows0 != 2 {
		t.Errorf("rows_streamed delta = %d, want 2", rows1-rows0)
	}
	if exits1-exits0 != 1 {
		t.Errorf("limit_early_exit delta = %d, want 1", exits1-exits0)
	}
	// An unlimited full scan streams rows but records no early exit.
	if _, err := Execute(g, "MATCH (a:AS) RETURN a.asn", nil); err != nil {
		t.Fatal(err)
	}
	rows2, exits2 := StreamStats()
	if rows2-rows1 != 3 {
		t.Errorf("rows_streamed delta = %d, want 3", rows2-rows1)
	}
	if exits2 != exits1 {
		t.Errorf("limit_early_exit moved on an unlimited query")
	}
	// A LIMIT exactly matching the natural row count exhausts the
	// source and must not count as an early exit.
	if _, err := Execute(g, "MATCH (a:AS) RETURN a.asn LIMIT 3", nil); err != nil {
		t.Fatal(err)
	}
	if _, exits3 := StreamStats(); exits3 != exits2 {
		t.Errorf("limit_early_exit moved when LIMIT equaled the row count")
	}
}

func TestExplainShowsPushdown(t *testing.T) {
	g := fixture(t)
	plan, err := Explain(g, "MATCH (a:AS) RETURN a.asn LIMIT 5", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "pushed below projection") {
		t.Errorf("pushdown not reported:\n%s", plan)
	}
	for _, blocked := range []string{
		"MATCH (a:AS) RETURN DISTINCT a.asn LIMIT 5",
		"MATCH (a:AS) RETURN count(a) LIMIT 5",
		"MATCH (a:AS) RETURN a.asn ORDER BY a.asn LIMIT 5",
	} {
		plan, err := Explain(g, blocked, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan, "pushed below projection") {
			t.Errorf("%s: pushdown must be blocked:\n%s", blocked, plan)
		}
	}
	plan, err = Explain(g, "MATCH (a:AS) RETURN a.asn ORDER BY a.asn LIMIT 5", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "top-k sort") {
		t.Errorf("ORDER BY ... LIMIT should plan a top-k sort:\n%s", plan)
	}
}

// TestStreamingPreparedQueries exercises the prepared-query path: the
// stage pipelines live on the cached plan and must replan with it.
func TestStreamingPreparedQueries(t *testing.T) {
	g := fixture(t)
	pq, err := Prepare("MATCH (a:AS) WHERE a.asn = $n RETURN a.name LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Execute(g, map[string]any{"n": 2497}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Value(); !ok || v != "IIJ" {
		t.Fatalf("prepared streaming result = %v", res.Rows)
	}
	// A write invalidates the plan; the rebuilt pipeline must see the
	// new data.
	if _, err := Execute(g, "CREATE (:AS {asn: 99, name: 'NewAS'})", nil); err != nil {
		t.Fatal(err)
	}
	res, err = pq.Execute(g, map[string]any{"n": 99}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Value(); !ok || v != "NewAS" {
		t.Fatalf("replanned streaming result = %v", res.Rows)
	}
}
