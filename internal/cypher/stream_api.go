package cypher

import (
	"context"

	"chatiyp/internal/graph"
)

// This file is the public face of the executor: a pull iterator
// callers drive row by row, so transports (the HTTP server's NDJSON
// mode, cursor pagination) can put the first result on the wire before
// the scan has finished. Execute and friends build the same Stream and
// drain it into a materialized Result.

// Stream is a pull iterator over one query execution's result rows.
// Rows come off the operator pipeline as the scan produces them.
//
// A read-only query pins one graph.View when the Stream is created. A
// write query reads the live graph instead, so later clauses see its
// own writes, and it applies all of its writes inside the constructor:
// a failing write is an error from the constructor, and every write
// applies exactly once however few rows the caller pulls. Rows after
// the last write barrier still stream lazily.
//
// A Stream is single-goroutine: calls to Next must not race. Callers
// must call Close when done (Close is idempotent and implied by
// draining the stream to its end); an abandoned, unclosed stream leaks
// no resources but under-reports the executor's row counters.
type Stream struct {
	cols      []string
	truncated bool
	done      bool
	counted   bool
	err       error

	se        *streamExec
	parts     []*stagePlan
	partIdx   int
	it        rowIter
	seen      map[string]bool
	lastDedup int
	rowLimit  int
	emitted   int

	// buf holds rows pulled ahead while the constructor ran a write
	// query's barriers; Next hands them out before pulling on.
	buf []pulledRow
}

// pulledRow is one result row and the index of the part it came from.
type pulledRow struct {
	vals []graph.Value
	part int
}

// ExecuteStream parses src and begins a streaming execution with
// default options and no cancellation context.
func ExecuteStream(g *graph.Graph, src string, params map[string]any) (*Stream, error) {
	return ExecuteStreamContext(context.Background(), g, src, params, Options{})
}

// ExecuteStreamContext parses src and begins a streaming execution:
// the returned Stream yields rows as the operator pipeline produces
// them. ctx cancellation aborts the in-flight pull with an error
// matching ErrCanceled, exactly as in ExecuteWithContext.
func ExecuteStreamContext(ctx context.Context, g *graph.Graph, src string, params map[string]any, opts Options) (*Stream, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return executeQueryStream(ctx, g, q, nil, params, opts)
}

// StreamContext begins a streaming execution of the prepared query,
// reusing its cached plan (see ExecuteContext for the plan-staleness
// rules and ExecuteStreamContext for the iterator contract).
func (pq *PreparedQuery) StreamContext(ctx context.Context, g *graph.Graph, params map[string]any, opts Options) (*Stream, error) {
	return executeQueryStream(ctx, g, pq.query, pq.planFor(g, opts), params, opts)
}

// executeQueryStream builds a Stream for a parsed query. Plan-time
// errors (parameter normalization, UNION column mismatches) and every
// write surface here rather than on the first Next, so transports can
// still answer with a clean HTTP error before committing to a 200.
func executeQueryStream(ctx context.Context, g *graph.Graph, q *Query, plan *queryPlan, params map[string]any, opts Options) (*Stream, error) {
	opts = opts.withDefaults()
	normParams := make(map[string]graph.Value, len(params))
	for k, v := range params {
		nv, err := graph.NormalizeValue(v)
		if err != nil {
			return nil, evalErrorf("parameter $%s: %v", k, err)
		}
		normParams[k] = nv
	}
	if plan == nil {
		plan = planQuery(g, q, opts)
	}
	if plan.err != nil {
		return nil, plan.err
	}
	// A read-only stream pins its snapshot here, when it is created — a
	// long-lived cursor page or NDJSON response then reads one
	// consistent graph epoch for its entire lifetime, no matter how
	// many writes land while rows trickle out. A write query reads the
	// live graph so that it sees its own writes.
	var r graph.Reader = g
	if plan.writes == 0 {
		r = g.View()
	}
	s := &Stream{
		cols: plan.parts[0].cols,
		se: &streamExec{ctx: &evalCtx{g: g, r: r, params: normParams, opts: opts, plan: plan,
			width: plan.layout.width(), ctx: ctx}},
		parts:     plan.parts,
		lastDedup: plan.lastDedup,
		rowLimit:  opts.RowLimit,
	}
	if plan.lastDedup >= 0 {
		s.seen = map[string]bool{}
	}
	// Pull until every write barrier has run, holding the rows pulled
	// on the way (the earlier UNION parts, and at most the first row
	// after the last barrier).
	for s.se.barriersRun < plan.writes {
		vals, part, ok, err := s.pull()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		s.buf = append(s.buf, pulledRow{vals: vals, part: part})
	}
	return s, nil
}

// Columns returns the result column names, available before the first
// row (the NDJSON header record is written from this).
func (s *Stream) Columns() []string { return s.cols }

// Next returns the next result row, or ok=false at end of stream. Once
// Next has returned ok=false or an error, every later call repeats
// that outcome. Returned rows are owned by the caller.
func (s *Stream) Next() ([]graph.Value, bool, error) {
	if s.err != nil || s.done {
		return nil, false, s.err
	}
	for {
		var pr pulledRow
		if len(s.buf) > 0 {
			pr, s.buf = s.buf[0], s.buf[1:]
		} else {
			vals, part, ok, err := s.pull()
			if err != nil {
				return s.fail(err)
			}
			if !ok {
				s.finish()
				return nil, false, nil
			}
			pr = pulledRow{vals: vals, part: part}
		}
		if pr.part <= s.lastDedup {
			key := graph.ValueKey(pr.vals)
			if s.seen[key] {
				continue
			}
			s.seen[key] = true
		}
		if s.rowLimit > 0 && s.emitted == s.rowLimit {
			// A row beyond the cap exists, so the flag is exact.
			s.truncated = true
			s.se.limitHit = true
			s.finish()
			return nil, false, nil
		}
		s.emitted++
		return pr.vals, true, nil
	}
}

// drain pulls the stream to its end into a Result and closes it.
func (s *Stream) drain() (*Result, error) {
	defer s.Close()
	res := &Result{Columns: s.cols, Rows: [][]graph.Value{}}
	for {
		row, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			res.Stats, res.Truncated = s.Stats(), s.Truncated()
			return res, nil
		}
		res.Rows = append(res.Rows, row)
	}
}

// pull returns the next row of the pipeline and the index of its part,
// before UNION dedup and RowLimit, moving on to the next part when one
// ends. The rows of a part without RETURN are pulled, so its writes
// apply, and dropped.
func (s *Stream) pull() ([]graph.Value, int, bool, error) {
	for {
		if s.it == nil {
			if s.partIdx >= len(s.parts) {
				return nil, 0, false, nil
			}
			if err := s.se.ctx.pollCancel(); err != nil {
				return nil, 0, false, err
			}
			s.se.par = s.parts[s.partIdx].par
			it, err := s.se.build(s.parts[s.partIdx].root, false)
			if err != nil {
				return nil, 0, false, err
			}
			s.it = it
		}
		if err := s.se.ctx.checkCancel(); err != nil {
			return nil, 0, false, err
		}
		row, ok, err := s.it.Next()
		if err != nil {
			return nil, 0, false, err
		}
		if !ok {
			s.it = nil
			s.partIdx++
			continue
		}
		if s.cols == nil {
			continue
		}
		// A RETURN pipeline yields its column values, in column order.
		return row, s.partIdx, true, nil
	}
}

// Truncated reports whether Options.RowLimit cut the stream off before
// the query's natural end. It is only meaningful after Next returned
// ok=false.
func (s *Stream) Truncated() bool { return s.truncated }

// Stats returns the write statistics of the execution. A write query
// has applied all of its writes by the time its Stream exists, so the
// stats are final from the start.
func (s *Stream) Stats() WriteStats { return s.se.stats }

// Close ends the stream early, stopping any parallel morsel workers
// and flushing the executor's row counters for the rows already
// emitted. It never errs and may be called any number of times,
// including after the stream ended naturally.
func (s *Stream) Close() {
	s.done = true
	s.se.stopRuns()
	s.flushCounters()
}

func (s *Stream) finish() {
	s.done = true
	s.se.stopRuns()
	s.flushCounters()
}

func (s *Stream) fail(err error) ([]graph.Value, bool, error) {
	s.err = err
	s.done = true
	s.se.stopRuns()
	s.flushCounters()
	return nil, false, err
}

// flushCounters mirrors the emitted-row count into the process-global
// streaming counters exactly once.
func (s *Stream) flushCounters() {
	if s.counted {
		return
	}
	s.counted = true
	streamRowsStreamed.Add(int64(s.emitted))
	if s.se.limitHit {
		streamLimitEarlyExit.Add(1)
	}
}
