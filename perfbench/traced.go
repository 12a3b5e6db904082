package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracedRun is the workload's traced run against the in-process server.
type tracedRun struct {
	samples []sample
	elapsed time.Duration
	stats   map[string]spanStat
	model   *spanModel
	rp      *replayer
	allocs  float64
	kb      float64
	report  map[string]any
	tally
}

// runTraced runs the workload for one window against the in-process
// server with spans recorded, checks the outputs as the untraced run
// does, and writes the spans to the work directory.
func runTraced(cfg config, fx *fixtures, window time.Duration) (_ *tracedRun, err error) {
	ctx := context.Background()
	tr := newTracer()
	dataDir := ""
	if cfg.workload == wlRefresh {
		dataDir = filepath.Join(cfg.work, "data-traced")
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dataDir)
	}
	p, err := startInProcess(fx, dataDir, cfg.ckptBytes, tr)
	if err != nil {
		return nil, fmt.Errorf("in-process server: %w", err)
	}
	defer func() { err = errors.Join(err, p.stop()) }()
	rp, err := newReplayer(tr, p.g, cfg.workload != wlRefresh)
	if err != nil {
		return nil, err
	}
	t := &tracedRun{model: p.model, rp: rp}
	refs := newReferences(fx)

	warm, err := newWorkers(cfg, p.base, fx, refs, nil, nil)
	if err != nil {
		return nil, err
	}
	t.count(runList(ctx, warm, warmupOps(fx)))
	closeWorkers(warm)
	tr.reset()
	p.model.calls.Store(0)
	p.model.tokens.Store(0)

	workers, err := newWorkers(cfg, p.base, fx, refs, tr, rp)
	if err != nil {
		return nil, err
	}
	defer closeWorkers(workers)
	t.samples, t.elapsed = measure(ctx, cfg, fx, workers, window)
	t.count(t.samples)
	if cfg.workload == wlRefresh {
		t.attempted++
		if err := refs.writes.verify(ctx, workers[0].c); err != nil {
			t.fail("traced, at the end of the window: " + err.Error())
		}
	}
	t.allocs, t.kb = rp.allocsPerExec()
	t.stats = tr.stats()
	path := filepath.Join(cfg.work, "trace-"+cfg.workload+".json")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	reads, writes := splitSamples(t.samples)
	lat := latenciesMS(reads)
	t.report = map[string]any{
		"trace_file":  path,
		"spans":       t.stats,
		"ops_per_s":   float64(len(reads)+len(writes)) / t.elapsed.Seconds(),
		"read_p50_ms": percentile(lat, 50),
		"read_p99_ms": percentile(lat, 99),
	}
	return t, nil
}

// addPerLayer adds the span timings, and the traced run's end-to-end
// numbers next to the untraced ones, to the per-layer metrics.
func (t *tracedRun) addPerLayer(v map[string]float64, u *serverRun) {
	mean := func(name string) float64 { return t.stats[name].MeanMS }
	v["llm.text2cypher_ms"] = mean("llm.text2cypher")
	v["llm.answer_ms"] = mean("llm.answer")
	v["llm.rerank_ms"] = mean("llm.rerank")
	v["llm.tokens_in_per_call"] = ratio(float64(t.model.tokens.Load()), float64(t.model.calls.Load()))
	v["cypher.prepare_us"] = mean("cypher.prepare") * 1000
	v["cypher.exec_ms"] = mean("cypher.exec")
	v["cypher.allocs_per_exec"] = t.allocs
	v["cypher.kb_per_exec"] = t.kb
	v["cypher.replans_per_read"] = ratio(float64(t.rp.replans.Load()), float64(t.rp.reads.Load()))
	v["graph.publish_ms"] = mean("graph.view")
	v["vector.search_ms"] = mean("vector.search")
	v["embed.embed_us"] = mean("embed.embed") * 1000
	v["agent.search_entities_ms"] = mean("http tools search_entities")
	v["agent.run_cypher_ms"] = mean("http tools run_cypher")

	ops := t.report["ops_per_s"].(float64)
	v["trace.ops_per_s"] = ops
	v["trace.read_p50_ms"] = t.report["read_p50_ms"].(float64)
	v["trace.read_p99_ms"] = t.report["read_p99_ms"].(float64)
	v["trace.overhead_share"] = 1 - ratio(ops, u.reportOnly()["ops_per_s_wall"].(float64))
}
