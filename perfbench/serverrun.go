package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"chatiyp/client"
	"chatiyp/internal/api"
	"chatiyp/internal/persist"
)

// serverRun is one workload run against the server binary.
type serverRun struct {
	workload    string
	fx          *fixtures
	setup       []time.Duration
	ready       api.ReadyGraph
	serverProcs int
	samples     []sample
	elapsed     time.Duration
	cpu         time.Duration
	gcCPU       time.Duration
	peakRSSMB   float64
	before      counters
	after       counters
	dataBytes   int64   // data directory size at the end of the window
	baseBytes   int64   // size of the base snapshot a checkpoint rewrites
	stealShare  float64 // share of the machine's CPU time the hypervisor took during the window
	refs        *references
	tally
}

// tally counts attempted and failed operations and checks.
type tally struct {
	attempted int
	failed    int
	failures  []string // the first few reasons, for the report
}

func (t *tally) fail(why string) {
	t.failed++
	if len(t.failures) < 10 {
		t.failures = append(t.failures, why)
	}
}

func (t *tally) count(samples []sample) {
	for _, s := range samples {
		t.attempted++
		if !s.ok {
			t.fail(s.why)
		}
	}
}

func newReferences(fx *fixtures) *references {
	return &references{
		askScored: make([]bool, len(fx.questions)),
		askExact:  make([]bool, len(fx.questions)),
		agentSig:  make([]string, len(fx.agents)),
		agentRow:  make([]rowSet, len(fx.agents)),
		writes:    newWriterState(),
		cypher:    map[string]rowSet{},
	}
}

// warmupOps lists every pooled read once: the answers become the
// references the window is checked against, and caches fill before
// timing.
func warmupOps(fx *fixtures) []op {
	var ops []op
	for i := range fx.questions {
		ops = append(ops, op{opAsk, i})
	}
	for i := range fx.points {
		ops = append(ops, op{opPoint, i})
	}
	for i := range fx.analytics {
		ops = append(ops, op{opScan, i}, op{opStream, i})
	}
	for i := range fx.agents {
		ops = append(ops, op{opAgent, i})
	}
	return ops
}

// runList spreads a fixed list of operations over the workers; no two
// workers run the same entry.
func runList(ctx context.Context, workers []*worker, ops []op) []sample {
	out := make([][]sample, len(workers))
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := i; j < len(ops); j += len(workers) {
				out[i] = append(out[i], workers[i].do(ctx, ops[j]))
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// measure runs the workload's window against base: closed-loop clients,
// plus the open-loop writer on refresh (its worker is the last one).
func measure(ctx context.Context, cfg config, fx *fixtures, workers []*worker, window time.Duration) ([]sample, time.Duration) {
	readers := workers
	if cfg.workload == wlRefresh {
		readers = workers[:len(workers)-1]
	}
	gens := make([]*opGen, len(readers))
	for i := range readers {
		gens[i] = newOpGen(fx, cfg.workload, cfg.seed, i)
	}
	start := time.Now()
	deadline := start.Add(window)
	var writes []sample
	var wg sync.WaitGroup
	if cfg.workload == wlRefresh {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = openLoop(ctx, workers[len(workers)-1], len(fx.writes), cfg.writeRate, start, deadline)
		}()
	}
	var all []sample
	for _, s := range closedLoop(ctx, readers, gens, deadline) {
		all = append(all, s...)
	}
	wg.Wait()
	return append(all, writes...), time.Since(start)
}

func newWorkers(cfg config, base string, fx *fixtures, refs *references, tr *tracer, rp *replayer) ([]*worker, error) {
	n := cfg.clients
	if cfg.workload == wlRefresh {
		n = 2 // one closed-loop reader and the open-loop writer
	}
	ws := make([]*worker, n)
	for i := range ws {
		w, err := newWorker(i, base, fx, refs, tr, rp)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

func closeWorkers(ws []*worker) {
	for _, w := range ws {
		w.close()
	}
}

// runServer boots the server binary `boots` times (timing each boot),
// keeps the last one up, builds the workload's inputs, warms the server,
// measures one window and checks the outputs. On refresh it then
// verifies read-your-writes, restarts the server on the same data
// directory with SIGTERM, and verifies again.
func runServer(cfg config, window time.Duration) (*serverRun, error) {
	ctx := context.Background()
	r := &serverRun{workload: cfg.workload}
	spec := serverSpec{bin: cfg.serverBin, logPath: filepath.Join(cfg.work, "server.log")}
	if cfg.workload == wlRefresh {
		spec.args = []string{"-checkpoint-bytes", strconv.FormatInt(cfg.ckptBytes, 10)}
	}
	boots := cfg.boots
	if cfg.trace {
		spec.env = []string{"GODEBUG=gctrace=1"}
		boots = 1
	}
	var srv *serverProc
	defer func() {
		if srv != nil {
			_ = srv.stop() // error path only; the success path stops it below
		}
	}()
	for i := 0; i < boots; i++ {
		if cfg.workload == wlRefresh {
			spec.dataDir = filepath.Join(cfg.work, fmt.Sprintf("data-%d", i))
			if err := os.RemoveAll(spec.dataDir); err != nil {
				return nil, err
			}
		}
		p, d, err := startServer(spec)
		if err != nil {
			// The free port startServer picked may have been taken before
			// the server bound it; one more try with a new port.
			if p, d, err = startServer(spec); err != nil {
				return nil, err
			}
		}
		r.setup = append(r.setup, d)
		if i == boots-1 {
			srv = p
			break
		}
		if err := p.stop(); err != nil {
			return nil, fmt.Errorf("stopping boot %d: %w", i, err)
		}
		if err := os.RemoveAll(p.dataDir); err != nil {
			return nil, err
		}
	}
	defer os.RemoveAll(srv.dataDir)
	sc, err := client.New(srv.base, client.WithRetries(0), client.WithHTTPClient(probe))
	if err != nil {
		return nil, err
	}
	fx, err := buildFixtures(ctx, cfg.workload, cfg.seed, int(cfg.writeRate*window.Seconds())+8, sc)
	if err != nil {
		return nil, err
	}
	r.fx, r.refs = fx, newReferences(fx)
	r.ready = srv.ready.Graph
	if st := fx.g.CollectStats(); st.Nodes != r.ready.Nodes || st.Relationships != r.ready.Relationships {
		return nil, fmt.Errorf("server holds %d nodes and %d relationships, the default dataset %d and %d",
			r.ready.Nodes, r.ready.Relationships, st.Nodes, st.Relationships)
	}
	r.serverProcs = allowedCPUs(srv.pid())
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		r.serverProcs = v
	}

	workers, err := newWorkers(cfg, srv.base, fx, r.refs, nil, nil)
	if err != nil {
		return nil, err
	}
	defer closeWorkers(workers)
	r.count(runList(ctx, workers, warmupOps(fx)))

	if r.before, err = scrapeMetrics(srv.base); err != nil {
		return nil, err
	}
	cpu0, err := cpuTime(srv.pid())
	if err != nil {
		return nil, err
	}
	tot0, steal0, _ := cpuSteal() // without /proc/stat the share reads 0
	r.samples, r.elapsed = measure(ctx, cfg, fx, workers, window)
	tot1, steal1, _ := cpuSteal()
	r.stealShare = ratio(float64(steal1-steal0), float64(tot1-tot0))
	cpu1, err := cpuTime(srv.pid())
	if err != nil {
		return nil, err
	}
	r.cpu = cpu1 - cpu0
	windowEnd := time.Since(srv.started).Seconds()
	if r.after, err = scrapeMetrics(srv.base); err != nil {
		return nil, err
	}
	if r.peakRSSMB, err = peakRSSMB(srv.pid()); err != nil {
		return nil, err
	}
	r.count(r.samples)
	if srv.dataDir != "" {
		r.dataBytes = dirSize(srv.dataDir)
		if st, err := os.Stat(persist.BasePath(srv.dataDir)); err == nil {
			r.baseBytes = st.Size()
		}
	}

	if cfg.workload == wlRefresh {
		r.attempted++
		if err := r.refs.writes.verify(ctx, workers[0].c); err != nil {
			r.fail("at the end of the window: " + err.Error())
		}
	}
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w; log:\n%s", err, logTail(srv.logPath))
	}
	if cfg.trace {
		from := windowEnd - r.elapsed.Seconds()
		if r.gcCPU, err = gcCPU(srv.logPath, from, windowEnd); err != nil {
			return nil, err
		}
	}
	if cfg.workload == wlRefresh {
		if err := r.verifyAfterRestart(ctx, cfg, fx, spec); err != nil {
			return nil, err
		}
	}
	dataDir := srv.dataDir
	srv = nil
	return r, os.RemoveAll(dataDir)
}

// verifyAfterRestart starts the server again on the window's data
// directory and checks that every acknowledged write survived.
func (r *serverRun) verifyAfterRestart(ctx context.Context, cfg config, fx *fixtures, spec serverSpec) error {
	spec.logPath = filepath.Join(cfg.work, "server-restart.log")
	p, _, err := startServer(spec)
	if err != nil {
		return fmt.Errorf("restarting on the same data directory: %w", err)
	}
	w, err := newWorker(0, p.base, fx, r.refs, nil, nil)
	if err == nil {
		r.attempted++
		if verr := r.refs.writes.verify(ctx, w.c); verr != nil {
			r.fail("after a SIGTERM restart: " + verr.Error())
		}
		w.close()
	}
	return errors.Join(err, p.stop())
}

func splitSamples(all []sample) (reads, writes []sample) {
	for _, s := range all {
		switch {
		case !s.ok:
		case s.kind == opWrite:
			writes = append(writes, s)
		default:
			reads = append(reads, s)
		}
	}
	return reads, writes
}

func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.lat)
	}
	return out
}

func (r *serverRun) endToEnd() map[string]float64 {
	reads, writes := splitSamples(r.samples)
	ok := float64(len(reads) + len(writes))
	lat := latenciesMS(reads)
	durs := make([]float64, len(r.setup))
	for i, d := range r.setup {
		durs[i] = d.Seconds()
	}
	// Throughput counts the seconds the virtual CPUs actually ran: on a
	// shared host the hypervisor's steal varies from run to run and
	// would otherwise dominate the figure. With no steal it is plain
	// operations per second.
	return map[string]float64{
		"setup_s":              median(durs),
		"ops_per_s":            ok / (r.elapsed.Seconds() * (1 - r.stealShare)),
		"read_p50_ms":          percentile(lat, 50),
		"server_cpu_ms_per_op": ratio(ms(r.cpu), ok),
		"server_peak_rss_mb":   r.peakRSSMB,
	}
}

// reportOnly are the end-to-end metrics the report prints next to the
// bounded ones: some exist on one workload only (null elsewhere), and
// read_p99_ms spreads too widely on a shared host to be bounded.
func (r *serverRun) reportOnly() map[string]any {
	reads, writes := splitSamples(r.samples)
	out := map[string]any{
		"ops_per_s_wall":    float64(len(reads)+len(writes)) / r.elapsed.Seconds(),
		"read_p99_ms":       percentile(latenciesMS(reads), 99),
		"write_p50_ms":      nil,
		"write_p99_ms":      nil,
		"first_row_p50_ms":  nil,
		"ask_exec_accuracy": nil,
		"fail_ratio":        ratio(float64(r.failed), float64(r.attempted)),
	}
	if len(writes) > 0 {
		wl := latenciesMS(writes)
		out["write_p50_ms"], out["write_p99_ms"] = percentile(wl, 50), percentile(wl, 99)
	}
	var first []float64
	for _, s := range reads {
		if s.kind == opStream && s.firstRow > 0 {
			first = append(first, ms(s.firstRow))
		}
	}
	if len(first) > 0 {
		out["first_row_p50_ms"] = median(first)
	}
	if len(r.refs.askExact) > 0 {
		exact := 0
		for _, e := range r.refs.askExact {
			if e {
				exact++
			}
		}
		out["ask_exec_accuracy"] = float64(exact) / float64(len(r.refs.askExact))
	}
	return out
}

// reportMetrics lists every end-to-end metric with its unit, bounded or
// not.
func (r *serverRun) reportMetrics() map[string]any {
	units := map[string]string{
		"ops_per_s_wall": "1/s", "read_p99_ms": "ms", "write_p50_ms": "ms", "write_p99_ms": "ms", "first_row_p50_ms": "ms",
		"ask_exec_accuracy": "ratio", "fail_ratio": "ratio",
	}
	out := map[string]any{}
	for name, v := range r.endToEnd() {
		out[name] = map[string]any{"value": v, "unit": unitOf(endToEnd, name)}
	}
	for name, v := range r.reportOnly() {
		out[name] = map[string]any{"value": v, "unit": units[name]}
	}
	reads, writes := splitSamples(r.samples)
	out["samples"] = map[string]int{"reads": len(reads), "writes": len(writes), "setup_boots": len(r.setup)}
	out["cpu_steal_share"] = r.stealShare
	byKind := map[opKind][]sample{}
	for _, s := range append(reads, writes...) {
		byKind[s.kind] = append(byKind[s.kind], s)
	}
	perKind := map[string]any{}
	for k, ss := range byKind {
		lat := latenciesMS(ss)
		perKind[k.String()] = map[string]float64{"count": float64(len(ss)), "p50_ms": percentile(lat, 50), "p99_ms": percentile(lat, 99)}
	}
	out["latency_by_kind"] = perKind
	return out
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// properties records the workload's measured properties.
func (r *serverRun) properties() map[string]any {
	reads, writes := splitSamples(r.samples)
	p := map[string]any{"population_figures_synced": r.fx.populationSynced}
	switch r.workload {
	case wlAsk:
		fallback, distinct := 0, map[string]bool{}
		for _, s := range reads {
			if s.fallback {
				fallback++
			}
			if s.cypher != "" {
				distinct[s.cypher] = true
			}
		}
		p["vector_fallback_share"] = ratio(float64(fallback), float64(len(reads)))
		p["distinct_cypher"] = len(distinct)
		p["question_pool"] = len(r.refs.askExact)
	case wlAnalyst:
		p["parallel_query_share"] = ratio(delta(r.before, r.after, "cypher.parallel_queries"), delta(r.before, r.after, "cypher.executions"))
	case wlRefresh:
		late := make([]float64, len(writes))
		for i, s := range writes {
			late[i] = ms(s.late)
		}
		p["writes_per_read"] = ratio(float64(len(writes)), float64(len(reads)))
		p["checkpoints"] = delta(r.before, r.after, "persist.checkpoints")
		p["writer_late_p50_ms"] = percentile(late, 50)
		p["writer_late_p99_ms"] = percentile(late, 99)
		p["writer_late_max_ms"] = percentile(late, 100)
		p["data_dir_bytes"] = r.dataBytes
	}
	return p
}

// perLayer computes the per-layer metrics the server's counters and the
// wire give; runTraced adds the span timings.
func (r *serverRun) perLayer() map[string]float64 {
	reads, writes := splitSamples(r.samples)
	all := append(append([]sample(nil), reads...), writes...)
	ops, nw := float64(len(all)), float64(len(writes))
	d := func(name string) float64 { return delta(r.before, r.after, name) }
	v := map[string]float64{}
	for name, x := range r.reportOnly() {
		if f, ok := x.(float64); ok {
			v[name] = f
		}
	}

	// server: client-side time per HTTP call beyond the server's own
	// route timing.
	var latSum, calls, bytes, ndRows, ndOps float64
	for _, s := range all {
		latSum += ms(s.lat - s.late)
		calls += float64(s.calls)
		bytes += float64(s.bytes)
		if s.kind == opStream {
			ndRows += float64(s.rows)
			ndOps++
		}
	}
	routeMS := ratio(deltaMatching(r.before, r.after, "server.latency{route=POST ", ".sum_us"),
		deltaMatching(r.before, r.after, "server.latency{route=POST ", ".count")) / 1000
	v["server.route_ms"] = routeMS
	v["server.overhead_ms"] = ratio(latSum, calls) - routeMS
	v["server.rejects"] = d("server.rejected") + d("server.rejected_draining") + d("server.llm_unavailable") + d("agent.session_rejects")
	v["api.resp_kb_per_op"] = ratio(bytes/1024, ops)
	v["api.ndjson_rows_per_op"] = ratio(ndRows, ndOps)

	// core: the stage trace each ask returns.
	var asks, fallback, pipeMS float64
	stage := map[string][]float64{}
	distinct := map[string]bool{}
	for _, s := range reads {
		if s.kind != opAsk {
			continue
		}
		asks++
		pipeMS += s.serverMS
		if s.fallback {
			fallback++
		}
		if s.cypher != "" {
			distinct[s.cypher] = true
		}
		for _, t := range s.stages {
			stage[t.Stage] = append(stage[t.Stage], t.DurationMS)
		}
	}
	v["core.pipeline_ms"] = ratio(pipeMS, asks)
	v["core.text2cypher_ms"] = mean(stage["text2cypher"])
	v["core.vector_ms"] = mean(stage["vector"])
	v["core.rerank_ms"] = mean(stage["rerank"])
	v["core.generate_ms"] = mean(stage["generate"])
	v["core.fallback_share"] = ratio(fallback, asks)
	v["core.distinct_cypher"] = float64(len(distinct))

	v["llm.calls_per_op"] = ratio(d("llm.calls"), ops)
	v["resilience.retries"] = d("llm.retries")
	v["resilience.rejections"] = d("llm.breaker_rejections") + d("llm.bulkhead_rejections")

	hits, misses := d("cypher.plan_cache.hits"), d("cypher.plan_cache.misses")
	v["cypher.plan_hit_ratio"] = ratio(hits, hits+misses)
	v["cypher.parallel_share"] = ratio(d("cypher.parallel_queries"), d("cypher.executions"))
	v["cypher.morsels_per_query"] = ratio(d("cypher.morsels_dispatched"), d("cypher.parallel_queries"))

	v["graph.view_pins_per_op"] = ratio(d("graph.view_pins"), ops)
	v["graph.publishes_per_write"] = ratio(d("graph.snapshot_publishes"), nw)

	v["persist.wal_bytes_per_write"] = ratio(d("persist.wal_bytes"), nw)
	v["persist.checkpoints"] = d("persist.checkpoints")
	// Bytes the server wrote to its data directory: the journal plus one
	// base snapshot per checkpoint.
	v["persist.data_bytes_per_write"] = ratio(d("persist.wal_bytes")+d("persist.checkpoints")*float64(r.baseBytes), nw)

	v["go.gc_cpu_share"] = ratio(ms(r.gcCPU), ms(r.cpu))

	late := make([]float64, len(writes))
	for i, s := range writes {
		late[i] = ms(s.late)
	}
	v["refresh.writes_per_read"] = ratio(nw, float64(len(reads)))
	v["refresh.writer_late_p99_ms"] = percentile(late, 99)
	return v
}
