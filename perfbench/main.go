// Command perfbench is ChatIYP's end-to-end benchmark. It boots the real
// chatiyp-server binary with its default flags and the default dataset,
// drives it from this separate process with one of three workloads, checks
// every answer, and prints the metrics as JSON on its last output line:
//
//	perfbench -server <chatiyp-server binary> -work <work dir> \
//	    --workload ask|analyst|refresh --seed N --seconds S --trace 0|1
//
// perfbench/run.sh builds both binaries and runs this command; see
// perfbench/README.md for the workloads and every metric.
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
// runs the workload for half the time against the server binary (for the
// server's counter deltas) and half against the same components hosted
// in-process with spans recorded around each layer, and reports the
// per-layer metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	serverBin string
	work      string
	clients   int     // closed-loop clients, one keep-alive connection each
	boots     int     // server boots timed for setup_s; the last one serves the window
	writeRate float64 // refresh: open-loop writes per second
	ckptBytes int64   // refresh: the server's -checkpoint-bytes
}

func defaultConfig() config {
	return config{clients: 2, boots: 7, writeRate: 100, ckptBytes: 8 << 10}
}

func main() {
	cfg := defaultConfig()
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ask, analyst or refresh")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed sends the same requests")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 the end-to-end metrics")
	flag.StringVar(&cfg.serverBin, "server", "", "path of the chatiyp-server binary")
	flag.StringVar(&cfg.work, "work", "", "directory for server logs, data directories and traces")
	flag.Parse()
	cfg.trace = trace == 1
	res, report, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, _ := json.Marshal(map[string]any{"report": report})
	fmt.Println(string(rep))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metricDef names a metric and its unit, as listed in BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a --trace 0 run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"server_cpu_ms_per_op", "ms"},
	{"server_peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a --trace 1 run, on every workload; a
// layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"read_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"first_row_p50_ms", "ms"},
	{"ask_exec_accuracy", "ratio"},
	{"fail_ratio", "ratio"},
	{"server.overhead_ms", "ms"},
	{"server.route_ms", "ms"},
	{"server.rejects", "count"},
	{"api.resp_kb_per_op", "KiB"},
	{"api.ndjson_rows_per_op", "count"},
	{"core.pipeline_ms", "ms"},
	{"core.text2cypher_ms", "ms"},
	{"core.vector_ms", "ms"},
	{"core.rerank_ms", "ms"},
	{"core.generate_ms", "ms"},
	{"core.fallback_share", "ratio"},
	{"core.distinct_cypher", "count"},
	{"llm.calls_per_op", "count"},
	{"llm.text2cypher_ms", "ms"},
	{"llm.answer_ms", "ms"},
	{"llm.rerank_ms", "ms"},
	{"llm.tokens_in_per_call", "count"},
	{"resilience.retries", "count"},
	{"resilience.rejections", "count"},
	{"cypher.plan_hit_ratio", "ratio"},
	{"cypher.prepare_us", "us"},
	{"cypher.exec_ms", "ms"},
	{"cypher.allocs_per_exec", "count"},
	{"cypher.kb_per_exec", "KiB"},
	{"cypher.parallel_share", "ratio"},
	{"cypher.morsels_per_query", "count"},
	{"cypher.replans_per_read", "count"},
	{"graph.view_pins_per_op", "count"},
	{"graph.publishes_per_write", "count"},
	{"graph.publish_ms", "ms"},
	{"vector.search_ms", "ms"},
	{"embed.embed_us", "us"},
	{"persist.wal_bytes_per_write", "B"},
	{"persist.checkpoints", "count"},
	{"persist.data_bytes_per_write", "B"},
	{"agent.search_entities_ms", "ms"},
	{"agent.run_cypher_ms", "ms"},
	{"go.gc_cpu_share", "ratio"},
	{"refresh.writes_per_read", "ratio"},
	{"refresh.writer_late_p99_ms", "ms"},
	{"trace.ops_per_s", "1/s"},
	{"trace.read_p50_ms", "ms"},
	{"trace.read_p99_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(defs []metricDef, values map[string]float64, attempted, failed int) result {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r
}

func run(cfg config) (result, map[string]any, error) {
	switch {
	case cfg.workload != wlAsk && cfg.workload != wlAnalyst && cfg.workload != wlRefresh:
		return result{}, nil, fmt.Errorf("-workload must be ask, analyst or refresh, not %q", cfg.workload)
	case cfg.seconds < 1:
		return result{}, nil, errors.New("-seconds must be at least 1")
	case cfg.serverBin == "" || cfg.work == "":
		return result{}, nil, errors.New("-server and -work are required (perfbench/run.sh sets them)")
	}
	if _, err := os.Stat(cfg.serverBin); err != nil {
		return result{}, nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return result{}, nil, err
	}
	window := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		window /= 2
	}
	u, err := runServer(cfg, window)
	if err != nil {
		return result{}, nil, err
	}
	report := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"provenance": provenance(cfg, u),
		"properties": u.properties(),
		"metrics":    u.reportMetrics(),
		"failures":   u.failures,
	}
	if !cfg.trace {
		return newResult(endToEnd, u.endToEnd(), u.attempted, u.failed), report, nil
	}
	t, err := runTraced(cfg, u.fx, window)
	if err != nil {
		return result{}, nil, err
	}
	values := u.perLayer()
	t.addPerLayer(values, u)
	report["traced"] = t.report
	report["per_layer"] = values
	attempted, failed := u.attempted+t.attempted, u.failed+t.failed
	report["failures"] = append(u.failures, t.failures...)
	return newResult(perLayer, values, attempted, failed), report, nil
}

// provenance records where and how the run happened.
func provenance(cfg config, u *serverRun) map[string]any {
	p := map[string]any{
		"num_cpu":           runtime.NumCPU(),
		"gomaxprocs_load":   runtime.GOMAXPROCS(0),
		"gomaxprocs_server": u.serverProcs,
		"go_version":        runtime.Version(),
		"clients":           cfg.clients,
		"nodes":             u.ready.Nodes,
		"relationships":     u.ready.Relationships,
		"write_rate":        cfg.writeRate,
		"checkpoint_bytes":  cfg.ckptBytes,
	}
	p["commit"] = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p["commit"] = s.Value
			}
		}
	}
	p["source_sha256"] = sourceDigest(".")
	return p
}

// sourceDigest hashes the Go sources and module files under root (the
// working directory: run.sh starts from the repository root), so a run
// from a checkout without git history still names its code.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
