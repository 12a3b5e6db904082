package cypher

import (
	"context"
	"errors"
	"testing"

	"chatiyp/internal/graph"
)

// drainStream pulls a Stream to its end and returns the collected rows.
func drainStream(t *testing.T, s *Stream) [][]graph.Value {
	t.Helper()
	rows := [][]graph.Value{}
	for {
		row, ok, err := s.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return rows
		}
		rows = append(rows, row)
	}
}

// TestStreamAPIEquivalenceCorpus drives the whole read corpus through
// the public pull iterator and checks the collected rows against the
// outputs recorded for TestStreamingEquivalenceCorpus. Plan-time errors
// surface from ExecuteStream itself, runtime errors from Next.
func TestStreamAPIEquivalenceCorpus(t *testing.T) {
	g := fixture(t)
	recordedReadsOnce.Do(func() { loadRecorded(t, "recorded_reads.json", &recordedReads) })
	want := recordedReads["TestStreamingEquivalenceCorpus"]
	if len(want) != len(streamEquivCorpus) {
		t.Fatalf("recorded %d outputs, corpus has %d", len(want), len(streamEquivCorpus))
	}
	for i, src := range streamEquivCorpus {
		st, err := ExecuteStream(g, src, nil)
		var res *Result
		if err == nil {
			res, err = st.drain()
		}
		diffRecorded(t, "Stream", want[i], recordOutcome(src, res, err))
	}
}

func TestStreamAPIRowLimitTruncates(t *testing.T) {
	g := fixture(t)
	st, err := ExecuteStreamContext(context.Background(), g, "MATCH (a:AS) RETURN a.asn", nil, Options{RowLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := drainStream(t, st)
	if len(rows) != 2 || !st.Truncated() {
		t.Fatalf("rows=%d truncated=%v, want 2/true", len(rows), st.Truncated())
	}
	// Exhausted streams keep reporting end of stream.
	if _, ok, err := st.Next(); ok || err != nil {
		t.Fatalf("post-end Next = ok:%v err:%v", ok, err)
	}
}

func TestStreamAPIMaterializedFallback(t *testing.T) {
	g := fixture(t)
	// A write query streams through its write barrier and carries the
	// barrier's stats.
	st, err := ExecuteStream(g, "CREATE (x:Thing {name: 'streamed'}) RETURN x.name", nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := drainStream(t, st)
	if len(rows) != 1 || rows[0][0] != "streamed" {
		t.Fatalf("rows = %v", rows)
	}
	if st.Stats().NodesCreated != 1 {
		t.Fatalf("stats = %+v", st.Stats())
	}
}

// TestStreamAPIWriteAppliesBeforeFirstNext pins the write contract: a
// write Stream has applied all of its writes when ExecuteStream
// returns, so closing it before the first Next (or capping it with
// RowLimit) loses none of them, and a failing write is an error from
// ExecuteStream itself.
func TestStreamAPIWriteAppliesBeforeFirstNext(t *testing.T) {
	g := fixture(t)
	st, err := ExecuteStream(g, "UNWIND range(1, 3) AS i CREATE (n:Early {i: i}) RETURN n.i", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().NodesCreated; got != 3 {
		t.Fatalf("stats before the first Next: NodesCreated = %d, want 3", got)
	}
	st.Close()
	if n := len(g.NodesByLabel("Early")); n != 3 {
		t.Fatalf("%d :Early nodes after Close, want 3", n)
	}

	st, err = ExecuteStreamContext(context.Background(), g,
		"CREATE (:Once) RETURN 1 AS x UNION ALL CREATE (:Twice) RETURN 2 AS x", nil, Options{RowLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := drainStream(t, st)
	if len(rows) != 1 || !st.Truncated() {
		t.Fatalf("rows=%v truncated=%v, want 1 row, truncated", rows, st.Truncated())
	}
	if len(g.NodesByLabel("Once")) != 1 || len(g.NodesByLabel("Twice")) != 1 {
		t.Fatal("a RowLimit-capped write stream skipped the writes of a later UNION part")
	}

	if _, err := ExecuteStream(g, "CREATE (a)-[:R]-(b)", nil); err == nil {
		t.Fatal("a failing write must fail ExecuteStream")
	}
}

func TestStreamAPICancellation(t *testing.T) {
	g := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	st, err := ExecuteStreamContext(ctx, g, "MATCH (a:AS) MATCH (b:AS) MATCH (c:AS) RETURN count(*)", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	_, _, err = st.Next()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// A failed stream keeps returning its error.
	if _, _, err2 := st.Next(); !errors.Is(err2, ErrCanceled) {
		t.Fatalf("repeat err = %v", err2)
	}
}

func TestStreamAPIPlanTimeErrors(t *testing.T) {
	g := fixture(t)
	if _, err := ExecuteStream(g, "RETURN 1 AS a UNION RETURN 2 AS b", nil); err == nil {
		t.Fatal("UNION column mismatch not reported at ExecuteStream time")
	}
	var syntaxErr *SyntaxError
	if _, err := ExecuteStream(g, "NOT CYPHER", nil); !errors.As(err, &syntaxErr) {
		t.Fatalf("err = %v, want *SyntaxError", err)
	}
}

func TestStreamAPICountsRows(t *testing.T) {
	g := fixture(t)
	before, exitBefore := StreamStats()
	st, err := ExecuteStream(g, "MATCH (a:AS) RETURN a.asn", nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(drainStream(t, st))
	if n == 0 {
		t.Fatal("no rows")
	}
	after, _ := StreamStats()
	if after-before != int64(n) {
		t.Errorf("rows_streamed moved by %d, want %d", after-before, n)
	}
	// Close after natural end must not double-count.
	st.Close()
	again, _ := StreamStats()
	if again != after {
		t.Errorf("Close double-counted: %d -> %d", after, again)
	}
	// An early-exited stream bumps the early-exit counter on Close.
	st2, err := ExecuteStreamContext(context.Background(), g, "MATCH (a:AS) RETURN a.asn", nil, Options{RowLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	drainStream(t, st2)
	_, exitAfter := StreamStats()
	if exitAfter <= exitBefore {
		t.Errorf("limit_early_exit did not move: %d -> %d", exitBefore, exitAfter)
	}
}

func TestStreamAPIPrepared(t *testing.T) {
	g := fixture(t)
	pq, err := Prepare("MATCH (a:AS) WHERE a.asn = $n RETURN a.name")
	if err != nil {
		t.Fatal(err)
	}
	st, err := pq.StreamContext(context.Background(), g, map[string]any{"n": 2497}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := drainStream(t, st)
	if len(rows) != 1 || rows[0][0] != "IIJ" {
		t.Fatalf("rows = %v", rows)
	}
}
