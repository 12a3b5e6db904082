package cypher

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Morsel-driven intra-query parallelism over the pinned snapshot.
//
// A read-only query's anchor scan is split into ID-range morsels of
// the candidate set, fanned out across a bounded worker pool, and
// merged back at the sink. Each worker owns a private evalCtx but
// shares the execution's immutable graph.View, so the scan is
// lock-free and every worker reads the same epoch. The merge is
// order-preserving: the sink consumes per-morsel batches strictly in
// morsel order (and the top-k merge carries the serial arrival rank),
// which makes the parallel output bit-identical to the serial
// streaming executor — row order, ORDER BY tie-breaking and error
// choice included. The equivalence and randomized differential suites
// in parallel_test.go hold the executor to exactly that bar.
//
// The planner decision is two-staged: analyzeParallel statically finds
// the longest operator-chain prefix workers can run independently
// (stored on the stagePlan, shared via the plan cache), and startRun
// applies the per-execution cardinality threshold against the resolved
// anchor candidate count before spawning anything. Queries below the
// threshold — or shapes with no eligible prefix — run serially on the
// unchanged streaming path.

const (
	// defaultParallelThreshold is the minimum anchor-candidate count
	// before the planner picks the parallel path: below it the fan-out
	// overhead (goroutines, batching) exceeds the win.
	defaultParallelThreshold = 256
	// defaultParallelMorselSize is the anchor-candidate ID-range chunk
	// handed to one worker per dispatch — small enough for dynamic load
	// balancing when per-candidate expansion cost is skewed, large
	// enough to amortize the dispatch.
	defaultParallelMorselSize = 128
	// parallelStopInterval is how many rows a worker produces between
	// polls of the run's stop flag (context cancellation is polled
	// separately, inside the match machinery).
	parallelStopInterval = 64
)

// Cumulative counters of the parallel executor, mirrored into
// /v1/metrics by core.Pipeline.
var (
	parallelQueriesTotal   atomic.Int64
	morselsDispatchedTotal atomic.Int64
	// Worker lifecycle counters: the leak tests assert started == exited
	// once every run has wound down.
	parallelWorkersStarted atomic.Int64
	parallelWorkersExited  atomic.Int64
)

// ParallelStats reports the cumulative parallel-executor counters:
// parallelQueries counts query parts that engaged the morsel executor,
// morsels the total number of morsels dispatched to workers.
func ParallelStats() (parallelQueries, morsels int64) {
	return parallelQueriesTotal.Load(), morselsDispatchedTotal.Load()
}

// errParallelStopped marks a morsel aborted because the sink halted
// the run (LIMIT early-exit, stream Close, or an error in an earlier
// morsel). It never surfaces to callers: a halted sink has stopped
// consuming morsel results.
var errParallelStopped = errors.New("cypher: parallel run stopped")

// resolveParallelism maps Options.MaxParallelism to a concrete worker
// cap: zero (or negative) means GOMAXPROCS.
func resolveParallelism(opts Options) int {
	if opts.MaxParallelism > 0 {
		return opts.MaxParallelism
	}
	return runtime.GOMAXPROCS(0)
}

// parMode says where a parallel segment hands back to the sink.
type parMode int

const (
	parRows parMode = iota // segment ends in row-land; sink merges row batches
	parProj                // segment includes the projection; sink merges []projected
	parTopK                // segment includes ORDER BY ... LIMIT; workers keep local top-k heaps
)

// parallelSegment is the statically-analyzed prefix of one part's
// operator chain that morsel workers can execute independently: the
// anchoring MATCH plus every row-wise stage above it. The sink
// substitutes its merge iterator at top; everything above top builds
// normally and runs single-goroutine at the sink.
type parallelSegment struct {
	match *stage // anchoring single-pattern MATCH fed directly by the seed
	top   *stage // last stage the workers run
	mode  parMode
	// keepSource is set when a parProj segment feeds a full sort, whose
	// ORDER BY scope needs each row's source frame; other consumers
	// never look at it, so workers drop it.
	keepSource bool
}

// analyzeParallel finds a part's parallelizable prefix, or nil. Only
// a single-pattern non-OPTIONAL MATCH splits into morsels (the
// optional no-match fallback and multi-pattern cross products depend
// on state spanning the whole candidate set); above it, row-wise
// stages extend the segment and pipeline breakers (aggregation,
// DISTINCT, full sort, SKIP, LIMIT) end it — except ORDER BY ... LIMIT
// directly above the projection, which workers absorb as local top-k
// heaps. A segment whose consumer is a pushed-down LIMIT is not
// parallelized at all: the serial scan stops after SKIP+LIMIT rows,
// while workers would produce whole morsels the limit then discards.
func analyzeParallel(sp *stagePlan) *parallelSegment {
	var chain []*stage
	for s := sp.root; s != nil; s = s.input {
		chain = append(chain, s)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	if len(chain) < 2 || chain[0].kind != stageSeed || chain[1].kind != stageMatch {
		return nil
	}
	m := chain[1]
	if len(m.match.Patterns) != 1 || m.match.Optional || len(m.match.Patterns[0].Nodes) == 0 {
		return nil
	}
	seg := &parallelSegment{match: m, top: m, mode: parRows}
	for _, s := range chain[2:] {
		switch s.kind {
		case stageMatch, stageUnwind, stageFilter:
			// Row-wise: each input row expands independently, so the
			// per-morsel concatenation equals the serial stream.
			seg.top, seg.mode = s, parRows
		case stageProject:
			if s.hasAgg {
				// Aggregation is a pipeline breaker: the sink folds the
				// merged rows. Per-morsel partial states, merged at the
				// sink, measured slower on 2 CPUs: a DISTINCT has to be
				// filtered twice and every group is set up once per
				// morsel.
				return seg
			}
			seg.top, seg.mode = s, parProj
		case stageTopK:
			if seg.mode != parProj {
				return seg // DISTINCT (or similar) intervened
			}
			seg.top, seg.mode = s, parTopK
			return seg
		case stageLimit:
			if s.pushed {
				return nil
			}
			return seg
		default:
			seg.keepSource = s.kind == stageSort
			return seg
		}
	}
	return seg
}

// morselPreset pins a worker's matchIter to a pre-resolved anchor and
// candidate subrange — the unit of work one morsel covers.
type morselPreset struct {
	match  *stage
	anchor int
	cands  candSet
}

// tryParallel is the sink-side hook for segments ending in row-land:
// ok=false means run serially (below threshold, parallelism
// unavailable, or anchor resolution failed — the serial path then
// surfaces any error identically).
func (se *streamExec) tryParallel() (rowIter, bool) {
	run := se.startRun()
	if run == nil {
		return nil, false
	}
	return &parallelRowIter{run: run}, true
}

// tryParallelProj is the sink-side hook for segments that include the
// projection (and possibly the top-k).
func (se *streamExec) tryParallelProj() (projIter, bool) {
	run := se.startRun()
	if run == nil {
		return nil, false
	}
	if run.seg.mode == parTopK {
		return &parallelTopKIter{run: run}, true
	}
	return &parallelProjIter{run: run}, true
}

// startRun resolves the anchor candidates exactly as the serial
// matchIter would, applies the planner's cardinality threshold, and
// spawns the worker pool. nil means execute serially.
func (se *streamExec) startRun() *parallelRun {
	seg := se.par
	opts := se.ctx.opts
	force := opts.ParallelThreshold < 0
	workers := resolveParallelism(opts)
	if workers < 2 && !force {
		return nil
	}
	pat := seg.match.match.Patterns[0]
	m := newMatcher(se.ctx, seg.match.hints)
	anchor := m.pickAnchor(pat, nil)
	cands, err := m.anchorCandidates(pat.Nodes[anchor], nil)
	if err != nil {
		return nil // the serial matchIter surfaces the same error
	}
	threshold := opts.ParallelThreshold
	if threshold == 0 {
		threshold = defaultParallelThreshold
	}
	if cands.len() == 0 || (!force && cands.len() < threshold) {
		return nil
	}
	msize := opts.ParallelMorselSize
	if msize <= 0 {
		msize = defaultParallelMorselSize
	}
	nm := (cands.len() + msize - 1) / msize
	if workers > nm {
		workers = nm
	}
	if workers < 1 {
		workers = 1
	}
	run := &parallelRun{
		se:     se,
		seg:    seg,
		cands:  cands,
		anchor: anchor,
		msize:  msize,
		nm:     nm,
		stopCh: make(chan struct{}),
		sem:    make(chan struct{}, 2*workers),
		done:   make([]bool, nm),
		outs:   make([]morselOut, nm),
		errs:   make([]error, nm),
	}
	run.cond = sync.NewCond(&run.mu)
	if seg.mode == parTopK {
		k, err := se.evalSkipLimitBudget(seg.top.skipE, seg.top.limitE)
		if err != nil {
			return nil // serial surfaces the identical budget error
		}
		run.kBudget = k
	}
	se.runs = append(se.runs, run)
	parallelQueriesTotal.Add(1)
	morselsDispatchedTotal.Add(int64(nm))
	run.wg.Add(workers)
	parallelWorkersStarted.Add(int64(workers))
	for w := 0; w < workers; w++ {
		go run.worker()
	}
	return run
}

// stopRuns halts every parallel run this execution started. Every
// execution exit path calls it, so no morsel worker outlives its sink.
func (se *streamExec) stopRuns() {
	for _, r := range se.runs {
		r.halt()
	}
}

// parallelRun is one engaged morsel execution: a shared candidate set,
// an atomic dispatch cursor, and a per-morsel result board the sink
// consumes strictly in morsel order — which is what makes the merged
// stream bit-identical to the serial executor's output.
type parallelRun struct {
	se     *streamExec
	seg    *parallelSegment
	cands  candSet
	anchor int
	msize  int
	nm     int

	kBudget int // parTopK: SKIP+LIMIT rows each worker retains

	next atomic.Int64 // dispatch cursor: next unclaimed morsel index

	// Stop protocol: halt trips stopped and closes stopCh, waking
	// workers blocked on the dispatch window and aborting in-progress
	// morsels at the next poll.
	stopped  atomic.Bool
	stopOnce sync.Once
	stopCh   chan struct{}

	// sem is the in-flight window: a worker holds one slot from claim
	// to sink consumption, bounding buffered batches. Claims are
	// monotonic, so the sink's next morsel is always claimed or
	// claimable — the window cannot starve it.
	sem chan struct{}

	mu   sync.Mutex
	cond *sync.Cond
	done []bool
	outs []morselOut
	errs []error
	// spareProjs are emptied batches the sink has finished with;
	// workers refill them instead of growing new ones.
	spareProjs [][]projected

	heapMu sync.Mutex
	kept   []keyedRow // parTopK: union of the workers' local heaps

	wg sync.WaitGroup
}

func (r *parallelRun) halt() {
	r.stopOnce.Do(func() {
		r.stopped.Store(true)
		close(r.stopCh)
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
}

// morselOut is what one morsel hands the sink, per segment mode.
type morselOut struct {
	rows  *rowBatch   // parRows
	projs []projected // parProj
}

func (r *parallelRun) publish(i int, out morselOut, err error) {
	r.mu.Lock()
	r.done[i] = true
	r.outs[i] = out
	r.errs[i] = err
	r.cond.Broadcast()
	r.mu.Unlock()
}

// take blocks until morsel i is published, consumes its batch, and
// frees the dispatch-window slot. Only the sink calls it, strictly in
// morsel order; every claimed morsel is eventually published, so take
// always returns.
func (r *parallelRun) take(i int) (morselOut, error) {
	r.mu.Lock()
	for !r.done[i] && !r.stopped.Load() {
		r.cond.Wait()
	}
	if !r.done[i] {
		r.mu.Unlock()
		return morselOut{}, errParallelStopped
	}
	out := r.outs[i]
	r.outs[i] = morselOut{}
	err := r.errs[i]
	r.mu.Unlock()
	<-r.sem
	return out, err
}

// worker is one pool goroutine: claim a morsel, run the segment's
// iterator chain over that candidate subrange on a private evalCtx
// sharing the pinned View, publish the batch, repeat. Context
// cancellation propagates through the private evalCtx (the match
// machinery polls it), so a canceled execution publishes
// CanceledError morsels and the pool drains promptly.
func (r *parallelRun) worker() {
	defer parallelWorkersExited.Add(1)
	defer r.wg.Done()
	src := r.se.ctx
	ws := &streamExec{ctx: &evalCtx{
		g:      src.g,
		r:      src.r, // the execution's immutable snapshot
		params: src.params,
		opts:   src.opts,
		plan:   src.plan,
		width:  src.width,
		ctx:    src.ctx,
	}}
	var h *topKHeap
	if r.seg.mode == parTopK {
		h = newTopKHeap(r.seg.top.order, r.kBudget)
		defer func() {
			r.heapMu.Lock()
			r.kept = append(r.kept, h.items...)
			r.heapMu.Unlock()
		}()
	}
	for {
		select {
		case r.sem <- struct{}{}:
		case <-r.stopCh:
			return
		}
		i := int(r.next.Add(1)) - 1
		if i >= r.nm {
			<-r.sem // give the claimed slot back; nothing to consume it
			return
		}
		lo := i * r.msize
		hi := lo + r.msize
		if hi > r.cands.len() {
			hi = r.cands.len()
		}
		out, err := r.runMorsel(ws, i, lo, hi, h)
		r.publish(i, out, err)
	}
}

// runMorsel executes the worker's iterator chain over candidates
// [lo, hi) and collects the output of morsel idx.
//
// Unless a worker-side heap or the sink keeps them, the frames a
// morsel's operators allocate are dead once the batch is collected: a
// parRows batch holds copies of its rows, and a parProj batch drops
// the source frames no consumer reads. The worker then rewinds its
// frame slab and the next morsel reuses the same memory.
func (r *parallelRun) runMorsel(ws *streamExec, idx, lo, hi int, h *topKHeap) (morselOut, error) {
	ws.pre = &morselPreset{match: r.seg.match, anchor: r.anchor, cands: r.cands.sub(lo, hi)}
	if r.seg.mode == parRows || (r.seg.mode == parProj && !r.seg.keepSource) {
		ws.ctx.frames.rewind()
	}
	switch r.seg.mode {
	case parRows:
		it, err := ws.build(r.seg.top, true)
		if err != nil {
			return morselOut{}, err
		}
		out := &rowBatch{width: ws.ctx.width}
		for {
			row, ok, err := it.Next()
			if err != nil {
				return morselOut{}, err
			}
			if !ok {
				return morselOut{rows: out}, nil
			}
			out.add(row)
			if out.n%parallelStopInterval == 0 && r.stopped.Load() {
				return morselOut{}, errParallelStopped
			}
		}
	case parProj:
		pi, err := ws.buildProj(r.seg.top)
		if err != nil {
			return morselOut{}, err
		}
		out := r.spareProjBatch()
		for {
			pr, ok, err := pi.Next()
			if err != nil {
				return morselOut{}, err
			}
			if !ok {
				return morselOut{projs: out}, nil
			}
			if !r.seg.keepSource {
				pr.source = nil
			}
			out = append(out, pr)
			if len(out)%parallelStopInterval == 0 && r.stopped.Load() {
				return morselOut{}, errParallelStopped
			}
		}
	default: // parTopK
		pi, err := ws.buildProj(r.seg.top.input)
		if err != nil {
			return morselOut{}, err
		}
		pos := 0
		for {
			pr, ok, err := pi.Next()
			if err != nil || !ok {
				return morselOut{}, err
			}
			// (idx, pos) is this row's global arrival rank — morsel
			// order, then order within the morsel — i.e. exactly the
			// serial arrival sequence, so ties evict identically.
			pos++
			if err := h.offer(ws.ctx, pr, idx, pos); err != nil {
				return morselOut{}, err
			}
			if pos%parallelStopInterval == 0 && r.stopped.Load() {
				return morselOut{}, errParallelStopped
			}
		}
	}
}

// rowBatch is one morsel's output rows, copied back to back into
// chunks of up to maxSlabRows rows: a batch costs one allocation per
// chunk, and the rows handed to the sink's consumer are slices of the
// chunks.
type rowBatch struct {
	width  int
	n      int // rows added
	chunks []Row
	// read cursor
	chunk, off, read int
}

func (b *rowBatch) add(row Row) {
	b.n++
	last := len(b.chunks) - 1
	if last < 0 || cap(b.chunks[last])-len(b.chunks[last]) < b.width {
		b.chunks = append(b.chunks, make(Row, 0, b.width*maxSlabRows))
		last++
	}
	b.chunks[last] = append(b.chunks[last], row[:b.width]...)
}

// next returns the batch's next row; ok is false after the last one.
func (b *rowBatch) next() (Row, bool) {
	if b.read == b.n {
		return nil, false
	}
	b.read++
	if b.width == 0 {
		return Row{}, true
	}
	if b.off == len(b.chunks[b.chunk]) {
		b.chunk, b.off = b.chunk+1, 0
	}
	lo, hi := b.off, b.off+b.width
	b.off = hi
	return b.chunks[b.chunk][lo:hi:hi], true
}

// spareProjBatch returns an emptied batch for a worker to fill, or nil.
func (r *parallelRun) spareProjBatch() []projected {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.spareProjs)
	if n == 0 {
		return nil
	}
	b := r.spareProjs[n-1]
	r.spareProjs = r.spareProjs[:n-1]
	return b
}

// recycle hands a consumed projected batch back for reuse. The rows it
// held belong to the sink's consumer now; only the slice is reused,
// after clearing it.
func (r *parallelRun) recycle(projs []projected) {
	if cap(projs) == 0 {
		return
	}
	clear(projs)
	r.mu.Lock()
	r.spareProjs = append(r.spareProjs, projs[:0])
	r.mu.Unlock()
}

// parallelRowIter is the parRows sink: per-morsel batches emitted
// strictly in morsel order, making the merged stream bit-identical to
// the serial scan order. The first per-morsel error — in morsel
// order — halts the run and surfaces, matching the serial executor's
// error choice.
type parallelRowIter struct {
	run  *parallelRun
	cur  *rowBatch
	next int
}

func (it *parallelRowIter) Next() (Row, bool, error) {
	for {
		if it.cur != nil {
			if row, ok := it.cur.next(); ok {
				return row, true, nil
			}
		}
		if it.next >= it.run.nm {
			return nil, false, nil
		}
		out, err := it.run.take(it.next)
		it.next++
		if err != nil {
			it.run.halt()
			return nil, false, err
		}
		it.cur = out.rows
	}
}

// parallelProjIter is the parProj sink — the same ordered-merge
// protocol over projected rows.
type parallelProjIter struct {
	run  *parallelRun
	cur  []projected
	pos  int
	next int
}

func (it *parallelProjIter) Next() (projected, bool, error) {
	for {
		if it.pos < len(it.cur) {
			pr := it.cur[it.pos]
			it.pos++
			return pr, true, nil
		}
		it.run.recycle(it.cur)
		it.cur = nil
		if it.next >= it.run.nm {
			return projected{}, false, nil
		}
		out, err := it.run.take(it.next)
		it.next++
		if err != nil {
			it.run.halt()
			return projected{}, false, err
		}
		it.cur, it.pos = out.projs, 0
	}
}

// parallelTopKIter is the parTopK sink: it drives every morsel to
// completion (surfacing the first error in morsel order, as the
// serial top-k drain would), then merges the workers' local heaps in
// the stable sort order and keeps the global SKIP+LIMIT budget. Any
// row the global top-k would retain is also retained by its worker's
// local heap, and the (keys, seq, seq2) order is total, so the merge
// is bit-identical to the serial heap's output.
type parallelTopKIter struct {
	run   *parallelRun
	kept  []keyedRow
	pos   int
	built bool
}

func (it *parallelTopKIter) Next() (projected, bool, error) {
	if !it.built {
		for i := 0; i < it.run.nm; i++ {
			if _, err := it.run.take(i); err != nil {
				it.run.halt()
				return projected{}, false, err
			}
		}
		// All morsels are consumed, so every worker is past its last
		// publish; wait for the final heap hand-offs.
		it.run.wg.Wait()
		it.run.heapMu.Lock()
		kept := it.run.kept
		it.run.heapMu.Unlock()
		sortKeyed(it.run.seg.top.order.items, kept)
		if len(kept) > it.run.kBudget {
			kept = kept[:it.run.kBudget]
		}
		it.kept = kept
		it.built = true
	}
	if it.pos >= len(it.kept) {
		return projected{}, false, nil
	}
	pr := it.kept[it.pos].pr
	it.pos++
	return pr, true, nil
}
