package cypher

import (
	"container/heap"
	"sort"
	"sync/atomic"

	"chatiyp/internal/graph"
)

// This file is the executor: each logical stage (see stages.go)
// becomes a pull iterator, rows flow one at a time from the scan to
// the output, and a LIMIT — pushed below the projection when no ORDER
// BY/DISTINCT/aggregate intervenes — stops the upstream scan as soon
// as it is satisfied. Blocking operators (sort and the write barriers
// in write.go) materialize their input, bounded by Options.MaxRows;
// aggregation folds its input into per-group accumulators as it
// arrives (aggregates.go), still counting it against MaxRows; ORDER BY
// ... LIMIT avoids the full sort with a bounded top-k heap whose
// tie-breaking is bit-identical to a stable sort.

// rowIter is the pull interface every row-level operator implements.
// Next returns the next row, or ok=false at end of stream. Returned
// rows are owned by the caller, except that a chain built to lend (see
// build) may reuse a row once the caller pulls the next one.
type rowIter interface {
	Next() (Row, bool, error)
}

// projIter is the pull interface of the projection sub-pipeline
// (project → distinct → sort/top-k → skip), whose elements carry the
// source row alongside the projected values for ORDER BY scoping.
type projIter interface {
	Next() (projected, bool, error)
}

// Cumulative counters of the streaming executor, mirrored into the
// metrics registry by core.Pipeline (process-global, like the runtime
// counters they feed).
var (
	streamRowsStreamed   atomic.Int64
	streamLimitEarlyExit atomic.Int64
)

// StreamStats reports the cumulative streaming-executor counters:
// rowsStreamed is the total number of result rows produced by
// streaming executions; limitEarlyExit counts executions a LIMIT (or
// Options.RowLimit) terminated before the source was exhausted.
func StreamStats() (rowsStreamed, limitEarlyExit int64) {
	return streamRowsStreamed.Load(), streamLimitEarlyExit.Load()
}

// streamExec is the shared state of one execution.
type streamExec struct {
	ctx      *evalCtx
	limitHit bool // some limit reached its cap and stopped the pull

	// stats accumulates the write barriers' side effects; barriersRun
	// counts the barriers that have applied their writes.
	stats       WriteStats
	barriersRun int

	// Morsel-driven parallel state (see parallel.go). par is the
	// current part's statically-eligible segment; runs tracks the live
	// morsel runs so every exit path can stop their workers; pre is set
	// only on per-worker clones and pins the anchor to one morsel.
	par  *parallelSegment
	runs []*parallelRun
	pre  *morselPreset
}

// build assembles the iterator chain for a stage pipeline, rooted at s.
//
// lend says the consumer is done with each row before it pulls the
// next one — it copies or drops what it keeps — so the chain may hand
// out a row it reuses afterwards. A MATCH lends its matches from a
// pool of frames recycled per candidate; filters and pushed limits
// pass rows, and the promise, through. Consumers that lend are the
// aggregation (it copies each group's first row), a MATCH or UNWIND
// reading its input row, and a morsel worker copying rows into its
// batch.
func (se *streamExec) build(s *stage, lend bool) (rowIter, error) {
	// Sink-side parallel substitution: when s tops an eligible segment
	// and the run engages, the whole prefix below runs on the worker
	// pool instead (see parallel.go). On fallback, build serially.
	if se.par != nil && s == se.par.top && se.par.mode == parRows {
		if it, ok := se.tryParallel(); ok {
			return it, nil
		}
	}
	switch s.kind {
	case stageSeed:
		return &seedIter{ctx: se.ctx}, nil
	case stageMatch:
		in, err := se.build(s.input, true)
		if err != nil {
			return nil, err
		}
		mi := &matchIter{se: se, m: s.match, hints: s.hints, input: in, newSlots: s.newSlots, lend: lend}
		if se.pre != nil && se.pre.match == s {
			mi.pre = se.pre
		}
		return mi, nil
	case stageUnwind:
		in, err := se.build(s.input, true)
		if err != nil {
			return nil, err
		}
		return &unwindIter{ctx: se.ctx, u: s.unwind, input: in}, nil
	case stageFilter:
		in, err := se.build(s.input, lend)
		if err != nil {
			return nil, err
		}
		return &filterIter{se: se, cond: s.cond, input: in}, nil
	case stageWrite:
		in, err := se.build(s.input, false)
		if err != nil {
			return nil, err
		}
		return &writeIter{se: se, cl: s.write, input: in}, nil
	case stageLimit:
		if s.pushed {
			in, err := se.build(s.input, lend)
			if err != nil {
				return nil, err
			}
			budget, err := se.evalSkipLimitBudget(s.skipE, s.limitE)
			if err != nil {
				return nil, err
			}
			return &rowLimitIter{se: se, input: in, remaining: budget}, nil
		}
		fallthrough
	default:
		pi, err := se.buildProj(s)
		if err != nil {
			return nil, err
		}
		p := s
		for p.kind != stageProject {
			p = p.input
		}
		return &stripIter{ctx: se.ctx, in: pi, proj: p}, nil
	}
}

// buildProj assembles the projection sub-pipeline rooted at s.
func (se *streamExec) buildProj(s *stage) (projIter, error) {
	if se.par != nil && s == se.par.top && se.par.mode != parRows {
		if it, ok := se.tryParallelProj(); ok {
			return it, nil
		}
	}
	switch s.kind {
	case stageProject:
		in, err := se.build(s.input, s.hasAgg)
		if err != nil {
			return nil, err
		}
		return &projectIter{ctx: se.ctx, s: s, input: in}, nil
	case stageDistinct:
		in, err := se.buildProj(s.input)
		if err != nil {
			return nil, err
		}
		return &distinctIter{in: in, seen: map[string]bool{}}, nil
	case stageSort:
		in, err := se.buildProj(s.input)
		if err != nil {
			return nil, err
		}
		return &sortIter{ctx: se.ctx, in: in, order: s.order}, nil
	case stageTopK:
		in, err := se.buildProj(s.input)
		if err != nil {
			return nil, err
		}
		k, err := se.evalSkipLimitBudget(s.skipE, s.limitE)
		if err != nil {
			return nil, err
		}
		return &topKIter{ctx: se.ctx, in: in, order: s.order, k: k}, nil
	case stageSkip:
		in, err := se.buildProj(s.input)
		if err != nil {
			return nil, err
		}
		n, err := se.evalSkip(s.skipE)
		if err != nil {
			return nil, err
		}
		return &skipIter{in: in, n: n}, nil
	case stageLimit:
		in, err := se.buildProj(s.input)
		if err != nil {
			return nil, err
		}
		n, err := se.evalLimit(s.limitE)
		if err != nil {
			return nil, err
		}
		return &limitIter{se: se, in: in, remaining: n}, nil
	}
	return nil, evalErrorf("internal: stage kind %d in projection pipeline", s.kind)
}

// evalSkip evaluates a SKIP expression (nil means 0): a non-negative
// integer.
func (se *streamExec) evalSkip(e Expr) (int, error) {
	if e == nil {
		return 0, nil
	}
	v, err := se.ctx.eval(e, nil)
	if err != nil {
		return 0, err
	}
	s, ok := graph.AsInt(v)
	if !ok || s < 0 {
		return 0, evalErrorf("SKIP must be a non-negative integer")
	}
	return int(s), nil
}

// evalLimit evaluates a LIMIT expression: a non-negative integer.
func (se *streamExec) evalLimit(e Expr) (int, error) {
	v, err := se.ctx.eval(e, nil)
	if err != nil {
		return 0, err
	}
	l, ok := graph.AsInt(v)
	if !ok || l < 0 {
		return 0, evalErrorf("LIMIT must be a non-negative integer")
	}
	return int(l), nil
}

// evalSkipLimitBudget returns SKIP+LIMIT: the number of rows a pushed
// limit (or a top-k heap) must retain so the post-projection SKIP
// still has rows to drop.
func (se *streamExec) evalSkipLimitBudget(skipE, limitE Expr) (int, error) {
	s, err := se.evalSkip(skipE)
	if err != nil {
		return 0, err
	}
	l, err := se.evalLimit(limitE)
	if err != nil {
		return 0, err
	}
	return s + l, nil
}

// seedIter yields the single empty row every pipeline starts from.
type seedIter struct {
	ctx  *evalCtx
	done bool
}

func (it *seedIter) Next() (Row, bool, error) {
	if it.done {
		return nil, false, nil
	}
	it.done = true
	return it.ctx.newFrame(), true, nil
}

// matchIter enumerates pattern matches per input row. Single-pattern
// MATCH (the common shape) streams anchor-candidate by
// anchor-candidate, so a downstream LIMIT stops the scan early;
// multi-pattern MATCH buffers the full cross product of one input row
// at a time (relationship uniqueness spans the patterns).
type matchIter struct {
	se       *streamExec
	m        *MatchClause
	hints    matchHints
	input    rowIter
	newSlots []int // OPTIONAL MATCH: the slots bound to null on no match

	// pre pins the anchor choice and candidate set to one morsel's
	// subrange — set only on parallel-worker chains (see parallel.go).
	pre *morselPreset

	// state for the input row currently being expanded
	haveIn     bool
	inRow      Row
	matcher    *matcher
	matchedAny bool

	// lend: matches go out in frames from pool, reused from poolPos 0
	// whenever buf is refilled (see streamExec.build)
	lend    bool
	pool    []Row
	poolPos int

	// single-pattern candidate streaming; the match state is reused
	// across input rows that anchor at the same position
	cands   candSet
	candIdx int
	state   *matchState
	keep    func(Row) bool // it.collect, bound once
	// whereErr is the first WHERE error of the current candidate's
	// matches; it surfaces after the candidate's enumeration, so a
	// matching error still takes precedence.
	whereErr error

	buf    []Row
	bufPos int
}

func (it *matchIter) Next() (Row, bool, error) {
	for {
		if it.bufPos < len(it.buf) {
			r := it.buf[it.bufPos]
			it.buf[it.bufPos] = nil
			it.bufPos++
			return r, true, nil
		}
		it.buf = it.buf[:0]
		it.bufPos = 0
		it.poolPos = 0
		if !it.haveIn {
			row, ok, err := it.input.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			it.inRow = row
			it.haveIn = true
			it.matchedAny = false
			if it.matcher == nil {
				it.matcher = newMatcher(it.se.ctx, it.hints)
			}
			if len(it.m.Patterns) > 1 {
				if err := it.fillMulti(); err != nil {
					return nil, false, err
				}
				it.haveIn = false
				continue
			}
			pat := it.m.Patterns[0]
			if len(pat.Nodes) == 0 {
				return nil, false, evalErrorf("empty pattern")
			}
			var anchor int
			if it.pre != nil {
				anchor = it.pre.anchor
				it.cands = it.pre.cands
			} else {
				anchor = it.matcher.pickAnchor(pat, row)
				cands, err := it.matcher.anchorCandidates(pat.Nodes[anchor], row)
				if err != nil {
					return nil, false, err
				}
				it.cands = cands
			}
			it.candIdx = 0
			if it.state == nil || it.state.anchor != anchor {
				if it.keep == nil {
					it.keep = it.collect
				}
				it.state = it.matcher.newState(pat, anchor, len(row), it.keep)
			}
		}
		if it.candIdx >= it.cands.len() {
			it.haveIn = false
			if !it.matchedAny && it.m.Optional {
				return it.nullRow(), true, nil
			}
			continue
		}
		cand := it.cands.at(it.se.ctx.r, it.candIdx)
		it.candIdx++
		if cand == nil {
			continue // id vanished between planning and resolution
		}
		if _, err := it.matcher.matchCandidate(it.state, cand, it.inRow); err != nil {
			return nil, false, err
		}
		if it.whereErr != nil {
			return nil, false, it.whereErr
		}
		if len(it.buf) > 0 {
			it.matchedAny = true
		}
	}
}

// collect receives each complete single-pattern match in the matcher's
// work frame, applies the MATCH's WHERE to it there, and copies out
// only the matches that pass.
func (it *matchIter) collect(work Row) bool {
	if it.m.Where != nil {
		if it.whereErr != nil {
			return true
		}
		v, err := it.se.ctx.eval(it.m.Where, work)
		if err != nil {
			it.whereErr = err
			return true
		}
		if b, ok := v.(bool); !ok || !b {
			return true
		}
	}
	it.buf = append(it.buf, it.keepFrame(work))
	return true
}

// keepFrame copies a match out of the work frame: into a fresh frame,
// or, when the consumer borrows rows, into the next pooled one.
func (it *matchIter) keepFrame(work Row) Row {
	if !it.lend {
		return it.se.ctx.copyFrame(work)
	}
	if it.poolPos == len(it.pool) {
		it.pool = append(it.pool, it.se.ctx.copyFrame(work))
	} else {
		f := it.pool[it.poolPos]
		n := copy(f, work)
		f[n:].unbindAll()
	}
	it.poolPos++
	return it.pool[it.poolPos-1]
}

// fillMulti buffers every match of a multi-pattern MATCH for the
// current input row, bounded by MaxRows.
func (it *matchIter) fillMulti() error {
	ctx := it.se.ctx
	matches := []Row{it.inRow}
	for _, pat := range it.m.Patterns {
		var next []Row
		for _, mr := range matches {
			err := it.matcher.match(pat, mr, func(r Row) bool {
				next = append(next, ctx.copyFrame(r))
				return len(next) <= ctx.opts.MaxRows
			})
			if err != nil {
				return err
			}
		}
		if len(next) > ctx.opts.MaxRows {
			return ErrTooManyRows
		}
		matches = next
		if len(matches) == 0 {
			break
		}
	}
	it.buf = matches
	if err := it.filterWhere(); err != nil {
		return err
	}
	if len(it.buf) == 0 && it.m.Optional {
		it.buf = append(it.buf, it.nullRow())
	}
	return nil
}

// filterWhere applies the MATCH's WHERE predicate to the buffered
// matches (before the optional-null fallback).
func (it *matchIter) filterWhere() error {
	if it.m.Where == nil || len(it.buf) == 0 {
		return nil
	}
	kept := it.buf[:0]
	for _, mr := range it.buf {
		v, err := it.se.ctx.eval(it.m.Where, mr)
		if err != nil {
			return err
		}
		if b, ok := v.(bool); ok && b {
			kept = append(kept, mr)
		}
	}
	it.buf = kept
	return nil
}

// nullRow is the OPTIONAL MATCH no-match fallback: the input row with
// every new pattern variable bound to null.
func (it *matchIter) nullRow() Row {
	nr := it.se.ctx.copyFrame(it.inRow)
	for _, s := range it.newSlots {
		if !nr.bound(s) {
			nr[s] = nil
		}
	}
	return nr
}

// unwindIter expands list values to one row per element.
type unwindIter struct {
	ctx   *evalCtx
	u     *UnwindClause
	input rowIter

	cur     Row
	list    []graph.Value
	listPos int
	inList  bool
}

func (it *unwindIter) Next() (Row, bool, error) {
	for {
		if it.inList {
			if it.listPos < len(it.list) {
				nr := it.ctx.copyFrame(it.cur)
				nr[it.u.slot] = it.list[it.listPos]
				it.listPos++
				return nr, true, nil
			}
			it.inList = false
		}
		row, ok, err := it.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := it.ctx.eval(it.u.Expr, row)
		if err != nil {
			return nil, false, err
		}
		switch list := v.(type) {
		case nil:
			continue
		case []graph.Value:
			it.cur = row
			it.list = list
			it.listPos = 0
			it.inList = true
		default:
			nr := it.ctx.copyFrame(row)
			nr[it.u.slot] = v
			return nr, true, nil
		}
	}
}

// filterIter keeps rows whose predicate is strictly true (three-valued
// logic: null and false both drop the row).
type filterIter struct {
	se    *streamExec
	cond  Expr
	input rowIter
}

func (it *filterIter) Next() (Row, bool, error) {
	for {
		row, ok, err := it.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := it.se.ctx.eval(it.cond, row)
		if err != nil {
			return nil, false, err
		}
		if b, ok := v.(bool); ok && b {
			return row, true, nil
		}
	}
}

// rowLimitIter is a pushed-down LIMIT: it caps source rows below the
// projection, stopping the upstream scan.
type rowLimitIter struct {
	se        *streamExec
	input     rowIter
	remaining int
	probed    bool
}

func (it *rowLimitIter) Next() (Row, bool, error) {
	if it.remaining <= 0 {
		// Probe one source row so limit_early_exit only counts caps
		// that genuinely cut a live stream off.
		if !it.probed {
			it.probed = true
			if _, ok, err := it.input.Next(); err != nil {
				return nil, false, err
			} else if ok {
				it.se.limitHit = true
			}
		}
		return nil, false, nil
	}
	row, ok, err := it.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	it.remaining--
	return row, true, nil
}

// projectIter evaluates the projection items per row into a row of
// column values; with aggregates it blocks, folding its whole input
// into per-group accumulators first (see aggregates.go).
type projectIter struct {
	ctx   *evalCtx
	s     *stage // the stageProject
	input rowIter
	rows  rowSlab

	grouped []projected
	pos     int
	built   bool
}

func (it *projectIter) Next() (projected, bool, error) {
	if it.s.hasAgg {
		if !it.built {
			grouped, err := aggregate(it.ctx, it.input, it.s)
			if err != nil {
				return projected{}, false, err
			}
			it.grouped, it.built = grouped, true
		}
		if it.pos >= len(it.grouped) {
			return projected{}, false, nil
		}
		pr := it.grouped[it.pos]
		it.pos++
		return pr, true, nil
	}
	src, ok, err := it.input.Next()
	if err != nil || !ok {
		return projected{}, false, err
	}
	row := it.rows.alloc(len(it.s.items))
	for i, item := range it.s.items {
		v, err := it.ctx.eval(item.Expr, src)
		if err != nil {
			return projected{}, false, err
		}
		row[i] = v
	}
	return projected{row: row, source: src}, true, nil
}

// distinctIter keeps the first occurrence of each projected row and
// severs the source scope: ORDER BY after DISTINCT sees only the
// projected columns.
type distinctIter struct {
	in   projIter
	seen map[string]bool
}

func (it *distinctIter) Next() (projected, bool, error) {
	for {
		pr, ok, err := it.in.Next()
		if err != nil || !ok {
			return projected{}, false, err
		}
		key := graph.ValueKey([]graph.Value(pr.row))
		if it.seen[key] {
			continue
		}
		it.seen[key] = true
		pr.source = nil
		return pr, true, nil
	}
}

// sortIter is the blocking full sort (no LIMIT to bound it).
type sortIter struct {
	ctx   *evalCtx
	in    projIter
	order *orderSpec

	rows  []projected
	pos   int
	built bool
}

func (it *sortIter) Next() (projected, bool, error) {
	if !it.built {
		for {
			if err := it.ctx.checkCancel(); err != nil {
				return projected{}, false, err
			}
			pr, ok, err := it.in.Next()
			if err != nil {
				return projected{}, false, err
			}
			if !ok {
				break
			}
			it.rows = append(it.rows, pr)
			if len(it.rows) > it.ctx.opts.MaxRows {
				return projected{}, false, ErrTooManyRows
			}
		}
		if err := it.order.sortRows(it.ctx, it.rows); err != nil {
			return projected{}, false, err
		}
		it.built = true
	}
	if it.pos >= len(it.rows) {
		return projected{}, false, nil
	}
	pr := it.rows[it.pos]
	it.pos++
	return pr, true, nil
}

// keyedRow is one row plus its ORDER BY key tuple and arrival rank;
// (keys, seq, seq2) is the total order the stable sort produces. The
// serial executor ranks by a single arrival counter (seq2 stays 0);
// parallel workers rank by (morsel index, position within the morsel),
// which is the same global arrival order the serial scan would see.
type keyedRow struct {
	pr   projected
	keys []graph.Value
	seq  int
	seq2 int
}

// sortsAfter reports whether a comes strictly after b in the stable
// ORDER BY order (ties broken by arrival rank).
func sortsAfter(orderBy []*SortItem, a, b keyedRow) bool {
	for j, si := range orderBy {
		ka, kb := a.keys[j], b.keys[j]
		if graph.TotalLess(ka, kb) {
			return si.Desc
		}
		if graph.TotalLess(kb, ka) {
			return !si.Desc
		}
	}
	if a.seq != b.seq {
		return a.seq > b.seq
	}
	return a.seq2 > b.seq2
}

// topKIter retains the first k rows of the stable ORDER BY order using
// a bounded max-heap: the root is the worst retained row, evicted
// whenever a better one arrives. Output order — and tie-breaking — is
// bit-identical to fully sorting and slicing.
type topKIter struct {
	ctx   *evalCtx
	in    projIter
	order *orderSpec
	k     int

	kept  []keyedRow
	pos   int
	built bool
}

func (it *topKIter) Next() (projected, bool, error) {
	if !it.built {
		h := newTopKHeap(it.order, it.k)
		seq := 0
		for {
			if err := it.ctx.checkCancel(); err != nil {
				return projected{}, false, err
			}
			pr, ok, err := it.in.Next()
			if err != nil {
				return projected{}, false, err
			}
			if !ok {
				break
			}
			if err := h.offer(it.ctx, pr, seq, 0); err != nil {
				return projected{}, false, err
			}
			seq++
		}
		it.kept = h.sorted()
		it.built = true
	}
	if it.pos >= len(it.kept) {
		return projected{}, false, nil
	}
	pr := it.kept[it.pos].pr
	it.pos++
	return pr, true, nil
}

// topKHeap is a max-heap on the stable sort order: the root sorts
// after every other retained row. Keys are computed into a scratch
// tuple and copied only for rows the heap keeps, so a long input costs
// no allocation per rejected row.
type topKHeap struct {
	items []keyedRow
	order *orderSpec
	k     int
	keys  []graph.Value // scratch key tuple
	scope Row           // scratch ORDER BY scope frame
}

func newTopKHeap(order *orderSpec, k int) *topKHeap {
	return &topKHeap{order: order, k: k, keys: make([]graph.Value, len(order.items))}
}

// offer computes pr's sort keys — for every row, so key errors surface
// exactly as a full sort would raise them — and keeps pr when it ranks
// among the first k rows seen so far.
func (h *topKHeap) offer(ctx *evalCtx, pr projected, seq, seq2 int) error {
	if err := h.order.keysFor(ctx, pr, h.keys, &h.scope); err != nil {
		return err
	}
	if h.k == 0 {
		return nil
	}
	kr := keyedRow{pr: pr, keys: h.keys, seq: seq, seq2: seq2}
	if len(h.items) < h.k {
		kr.keys = append([]graph.Value(nil), h.keys...)
		heap.Push(h, kr)
		return nil
	}
	// Evict the current worst when the new row sorts before it, reusing
	// its key tuple.
	if sortsAfter(h.order.items, h.items[0], kr) {
		kr.keys = h.items[0].keys
		copy(kr.keys, h.keys)
		h.items[0] = kr
		heap.Fix(h, 0)
	}
	return nil
}

// sorted returns the retained rows in ORDER BY order.
func (h *topKHeap) sorted() []keyedRow {
	kept := h.items
	sortKeyed(h.order.items, kept)
	return kept
}

// sortKeyed sorts keyed rows into the stable ORDER BY order.
func sortKeyed(orderBy []*SortItem, rows []keyedRow) {
	sort.Slice(rows, func(i, j int) bool {
		return sortsAfter(orderBy, rows[j], rows[i])
	})
}

func (h *topKHeap) Len() int { return len(h.items) }
func (h *topKHeap) Less(i, j int) bool {
	return sortsAfter(h.order.items, h.items[i], h.items[j])
}
func (h *topKHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *topKHeap) Push(x any)    { h.items = append(h.items, x.(keyedRow)) }
func (h *topKHeap) Pop() any {
	last := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return last
}

// skipIter drops the first n rows.
type skipIter struct {
	in projIter
	n  int
}

func (it *skipIter) Next() (projected, bool, error) {
	for it.n > 0 {
		_, ok, err := it.in.Next()
		if err != nil || !ok {
			return projected{}, false, err
		}
		it.n--
	}
	return it.in.Next()
}

// limitIter caps the stream at n rows (the not-pushed form, above
// DISTINCT or aggregation).
type limitIter struct {
	se        *streamExec
	in        projIter
	remaining int
	probed    bool
}

func (it *limitIter) Next() (projected, bool, error) {
	if it.remaining <= 0 {
		if !it.probed {
			it.probed = true
			if _, ok, err := it.in.Next(); err != nil {
				return projected{}, false, err
			} else if ok {
				it.se.limitHit = true
			}
		}
		return projected{}, false, nil
	}
	pr, ok, err := it.in.Next()
	if err != nil || !ok {
		return projected{}, false, err
	}
	it.remaining--
	return pr, true, nil
}

// stripIter adapts the projection sub-pipeline back to plain rows. A
// RETURN's rows are its column values in column order; a WITH's rows
// are fresh frames binding only its columns, which severs the scope
// before the clauses that follow.
type stripIter struct {
	ctx  *evalCtx
	in   projIter
	proj *stage // the stageProject of the pipeline
}

func (it *stripIter) Next() (Row, bool, error) {
	pr, ok, err := it.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	if it.proj.final {
		return pr.row, true, nil
	}
	frame := it.ctx.newFrame()
	for i, s := range it.proj.colSlots {
		frame[s] = pr.row[i]
	}
	return frame, true, nil
}
