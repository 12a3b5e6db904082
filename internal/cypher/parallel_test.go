package cypher

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"chatiyp/internal/graph"
)

// Parallel/serial equivalence: with the morsel executor forced on
// (ParallelThreshold < 0, so every eligible query fans out even on
// tiny graphs) results must be bit-identical to the serial streaming
// path — row order, ORDER BY tie-order, Truncated flag and error
// presence included. Morsel sizes of 1-4 make every query split into
// many morsels, so the ordered merge is genuinely exercised.

// forcedParallel are the options the equivalence suites force the
// morsel executor with.
func forcedParallel(morsel int) Options {
	return Options{MaxParallelism: 4, ParallelThreshold: -1, ParallelMorselSize: morsel}
}

// runParallelSerial executes src with the given (parallel) options and
// with parallelism disabled, and fails the test unless the outcomes
// are identical.
func runParallelSerial(t *testing.T, g *graph.Graph, src string, params map[string]any, popts Options) *Result {
	t.Helper()
	sopts := popts
	sopts.MaxParallelism = 1
	sopts.ParallelThreshold = 0
	sopts.ParallelMorselSize = 0
	pres, perr := ExecuteWith(g, src, params, popts)
	sres, serr := ExecuteWith(g, src, params, sopts)
	if (perr == nil) != (serr == nil) {
		t.Fatalf("%s: error divergence: parallel=%v serial=%v", src, perr, serr)
	}
	if perr != nil {
		return nil
	}
	if !reflect.DeepEqual(pres.Columns, sres.Columns) {
		t.Fatalf("%s: columns diverge: %v vs %v", src, pres.Columns, sres.Columns)
	}
	if !reflect.DeepEqual(pres.Rows, sres.Rows) {
		t.Fatalf("%s: rows diverge:\nparallel: %v\nserial:   %v", src, pres.Rows, sres.Rows)
	}
	if pres.Stats != sres.Stats {
		t.Fatalf("%s: stats diverge: %+v vs %+v", src, pres.Stats, sres.Stats)
	}
	if pres.Truncated != sres.Truncated {
		t.Fatalf("%s: truncated diverges: %v vs %v", src, pres.Truncated, sres.Truncated)
	}
	return pres
}

func TestParallelEquivalenceCorpusForced(t *testing.T) {
	g := fixture(t)
	for _, morsel := range []int{1, 3} {
		for _, src := range streamEquivCorpus {
			runParallelSerial(t, g, src, nil, forcedParallel(morsel))
		}
	}
}

func TestParallelEquivalenceCorpusNoIndexes(t *testing.T) {
	g := fixture(t)
	for _, src := range streamEquivCorpus {
		opts := forcedParallel(2)
		opts.DisableIndexes = true
		runParallelSerial(t, g, src, nil, opts)
	}
}

func TestParallelEquivalenceChainGraph(t *testing.T) {
	g := chainGraph(t, 12)
	for morsel := 1; morsel <= 4; morsel++ {
		for _, src := range []string{
			"MATCH (n:N) RETURN n.i",
			"MATCH (n:N) RETURN n.i LIMIT 4",
			"MATCH (n:N) RETURN n.i ORDER BY n.i DESC LIMIT 3",
			"MATCH (a:N {i: 1})-[:NEXT*1..4]->(b) RETURN b.i ORDER BY b.i",
			"MATCH (a:N)-[:NEXT]->(b) RETURN a.i, b.i ORDER BY a.i SKIP 3 LIMIT 4",
			"MATCH (a:N)-[:NEXT]-(b)-[:NEXT]-(c) RETURN DISTINCT c.i ORDER BY c.i",
			"MATCH (n:N) WHERE n.i % 2 = 0 RETURN n.i ORDER BY n.i LIMIT 3",
			"MATCH (n:N) WHERE n.i % 2 = 0 RETURN n.i",
			"MATCH (a:N)-[:NEXT]->(b) WITH a.i AS x, b.i AS y RETURN x + y ORDER BY x LIMIT 5",
		} {
			runParallelSerial(t, g, src, nil, forcedParallel(morsel))
		}
	}
}

// TestParallelTopKTieOrdering pins the merged top-k to the serial
// heap's tie-breaking: equal keys must surface in global arrival
// (morsel) order, cut at exactly LIMIT — with morsel size 1, every
// candidate travels alone, the hardest case for the merge.
func TestParallelTopKTieOrdering(t *testing.T) {
	g := graph.New()
	for i := 0; i < 9; i++ {
		g.MustCreateNode([]string{"T"}, map[string]any{"k": i % 3, "id": i})
	}
	for limit := 1; limit <= 9; limit++ {
		src := fmt.Sprintf("MATCH (t:T) RETURN t.id ORDER BY t.k LIMIT %d", limit)
		res := runParallelSerial(t, g, src, nil, forcedParallel(1))
		if len(res.Rows) != limit {
			t.Fatalf("LIMIT %d returned %d rows", limit, len(res.Rows))
		}
	}
	res := runParallelSerial(t, g, "MATCH (t:T) RETURN t.id ORDER BY t.k LIMIT 2", nil, forcedParallel(1))
	if res.Rows[0][0] != int64(0) || res.Rows[1][0] != int64(3) {
		t.Fatalf("tie order = %v, want [0] [3]", res.Rows)
	}
}

func TestParallelErrorParity(t *testing.T) {
	g := fixture(t)
	for _, src := range []string{
		"MATCH (a:AS) RETURN a.asn LIMIT -1",
		"MATCH (a:AS) RETURN a.asn SKIP -2",
		"MATCH (a:AS) RETURN a.asn ORDER BY a.asn LIMIT 'x'",
		"MATCH (a:AS) RETURN nope(a)",
		"MATCH (a:AS) RETURN a.asn + [1]",
		"RETURN $missing",
	} {
		runParallelSerial(t, g, src, nil, forcedParallel(1)) // asserts both paths error
	}
}

// TestParallelRowLimitTruncation checks Options.RowLimit parity: the
// parallel sink must stop pulling at the cap and report Truncated
// exactly as the serial path does.
func TestParallelRowLimitTruncation(t *testing.T) {
	g := chainGraph(t, 20)
	opts := forcedParallel(2)
	opts.RowLimit = 5
	res := runParallelSerial(t, g, "MATCH (n:N) RETURN n.i", nil, opts)
	if len(res.Rows) != 5 || !res.Truncated {
		t.Fatalf("rows=%d truncated=%v, want 5/true", len(res.Rows), res.Truncated)
	}
}

// TestParallelOneWorkerParity forces the morsel machinery with a
// single worker: the degenerate pool must still match serial output
// exactly (the 1-worker benchmark's correctness premise).
func TestParallelOneWorkerParity(t *testing.T) {
	g := fixture(t)
	opts := Options{MaxParallelism: 1, ParallelThreshold: -1, ParallelMorselSize: 2}
	before, _ := ParallelStats()
	for _, src := range streamEquivCorpus {
		runParallelSerial(t, g, src, nil, opts)
	}
	after, _ := ParallelStats()
	if after == before {
		t.Fatal("forced 1-worker run never engaged the parallel executor")
	}
}

// parallelScaleGraph is large enough to clear the default cardinality
// threshold.
func parallelScaleGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.New()
	for i := 0; i < n; i++ {
		g.MustCreateNode([]string{"V"}, map[string]any{"i": i})
	}
	return g
}

// TestParallelPlannerThreshold checks the runtime planner decision:
// above the cardinality threshold the morsel executor engages (and the
// metrics counters advance); below it, the query runs serially even
// with parallelism available.
func TestParallelPlannerThreshold(t *testing.T) {
	big := parallelScaleGraph(t, defaultParallelThreshold+50)
	small := parallelScaleGraph(t, 10)
	opts := Options{MaxParallelism: 4}

	q0, m0 := ParallelStats()
	res, err := ExecuteWith(big, "MATCH (v:V) RETURN v.i", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != defaultParallelThreshold+50 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	q1, m1 := ParallelStats()
	if q1 <= q0 {
		t.Fatalf("parallel_queries did not advance above threshold: %d -> %d", q0, q1)
	}
	if m1 <= m0 {
		t.Fatalf("morsels_dispatched did not advance: %d -> %d", m0, m1)
	}

	q2, _ := ParallelStats()
	if _, err := ExecuteWith(small, "MATCH (v:V) RETURN v.i", nil, opts); err != nil {
		t.Fatal(err)
	}
	q3, _ := ParallelStats()
	if q3 != q2 {
		t.Fatalf("parallel executor engaged below threshold: %d -> %d", q2, q3)
	}
}

// TestParallelSkipsPushedLimit checks that a scan under a pushed-down
// LIMIT runs serially even above the cardinality threshold: the serial
// scan stops after LIMIT rows, while morsel workers would produce
// whole morsels only to have the limit discard them.
func TestParallelSkipsPushedLimit(t *testing.T) {
	g := graph.New()
	for i := 0; i < 600; i++ {
		g.MustCreateNode([]string{"AS"}, map[string]any{"asn": i})
	}
	for _, opts := range []Options{{}, {MaxParallelism: 4}} {
		_, m0 := ParallelStats()
		res, err := ExecuteWith(g, "MATCH (a:AS) RETURN a.asn LIMIT 5", nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, m1 := ParallelStats()
		if m1 != m0 {
			t.Fatalf("opts %+v: a pushed LIMIT dispatched %d morsels", opts, m1-m0)
		}
		if len(res.Rows) != 5 || res.Rows[0][0] != int64(0) || res.Rows[4][0] != int64(4) {
			t.Fatalf("opts %+v: rows = %v", opts, res.Rows)
		}
	}
}

// TestExplainParallelDecision asserts the planner decision surfaces in
// EXPLAIN: parallel above the threshold, an explicit serial fallback
// below it, and no line at all when parallelism is unavailable.
func TestExplainParallelDecision(t *testing.T) {
	big := parallelScaleGraph(t, defaultParallelThreshold+50)
	small := parallelScaleGraph(t, 10)

	out, err := Explain(big, "MATCH (v:V) RETURN v.i", Options{MaxParallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "parallel scan: up to 4 worker(s)") {
		t.Fatalf("EXPLAIN above threshold missing parallel decision:\n%s", out)
	}

	out, err = Explain(small, "MATCH (v:V) RETURN v.i", Options{MaxParallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "serial scan: est. 10 anchor rows < parallel threshold") {
		t.Fatalf("EXPLAIN below threshold missing serial fallback:\n%s", out)
	}

	out, err = Explain(big, "MATCH (v:V) RETURN v.i", Options{MaxParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "parallel scan") || strings.Contains(out, "serial scan") {
		t.Fatalf("EXPLAIN with parallelism disabled still renders a decision:\n%s", out)
	}

	out, err = Explain(small, "MATCH (v:V) RETURN v.i", Options{MaxParallelism: 4, ParallelThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(forced)") {
		t.Fatalf("EXPLAIN with forced threshold missing (forced):\n%s", out)
	}
}

// waitParallelWorkersSettled polls the worker lifecycle counters until
// every started worker has exited — the no-goroutine-leak assertion.
func waitParallelWorkersSettled(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		started, exited := parallelWorkersStarted.Load(), parallelWorkersExited.Load()
		if started == exited {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("parallel workers leaked: started=%d exited=%d", started, exited)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestParallelStreamEarlyCloseStopsWorkers abandons a parallel stream
// after one row: Close must halt the run and every morsel worker must
// exit.
func TestParallelStreamEarlyCloseStopsWorkers(t *testing.T) {
	g := parallelScaleGraph(t, 600)
	opts := forcedParallel(1) // 600 morsels: workers are mid-flight at Close
	s, err := ExecuteStreamContext(t.Context(), g, "MATCH (v:V) RETURN v.i", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Next(); !ok || err != nil {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	s.Close()
	waitParallelWorkersSettled(t)
}

// TestParallelStreamDrain checks the streaming (pull) interface on the
// parallel path end to end: all rows, in serial order.
func TestParallelStreamDrain(t *testing.T) {
	const n = 150
	g := parallelScaleGraph(t, n)
	s, err := ExecuteStreamContext(t.Context(), g, "MATCH (v:V) RETURN v.i", nil, forcedParallel(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := 0
	for {
		row, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if row[0] != int64(want) {
			t.Fatalf("row %d = %v, want %d (order must match serial)", want, row[0], want)
		}
		want++
	}
	if want != n {
		t.Fatalf("drained %d rows, want %d", want, n)
	}
	waitParallelWorkersSettled(t)
}

// TestParallelPreparedQueries runs a prepared plan through the
// parallel executor across writes (forcing a replan) — the cached
// parallel segment must stay consistent with the refreshed plan.
func TestParallelPreparedQueries(t *testing.T) {
	g := parallelScaleGraph(t, 40)
	pq, err := Prepare("MATCH (v:V) RETURN v.i ORDER BY v.i DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	opts := forcedParallel(2)
	r1, err := pq.Execute(g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(g, "CREATE (:V {i: 1000})", nil); err != nil {
		t.Fatal(err)
	}
	r2, err := pq.Execute(g, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0] != int64(39) || r2.Rows[0][0] != int64(1000) {
		t.Fatalf("prepared parallel results stale: %v then %v", r1.Rows, r2.Rows)
	}
}

// TestParallelUnionParts forces parallelism across UNION parts — each
// part engages (or not) independently and dedup happens at the sink.
func TestParallelUnionParts(t *testing.T) {
	g := graph.New()
	for i := 0; i < 12; i++ {
		g.MustCreateNode([]string{"A"}, map[string]any{"v": i % 4})
		g.MustCreateNode([]string{"B"}, map[string]any{"v": i % 3})
	}
	for _, src := range []string{
		"MATCH (a:A) RETURN a.v AS v UNION MATCH (b:B) RETURN b.v AS v",
		"MATCH (a:A) RETURN a.v AS v UNION ALL MATCH (b:B) RETURN b.v AS v",
		"MATCH (a:A) RETURN a.v AS v ORDER BY v LIMIT 3 UNION MATCH (b:B) RETURN b.v AS v",
	} {
		runParallelSerial(t, g, src, nil, forcedParallel(1))
	}
}
