package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"chatiyp/internal/api"
)

// describe renders the requests an operation sends, for the
// reproducibility self-test.
func (fx *fixtures) describe(o op) string {
	enc := func(v any) string { b, _ := json.Marshal(v); return string(b) }
	switch o.kind {
	case opAsk:
		return "POST /v1/ask " + enc(api.AskRequest{Question: fx.questions[o.idx].text})
	case opPoint:
		c := fx.points[o.idx]
		return "POST /v1/cypher " + enc(api.CypherRequest{Query: c.query, Params: c.params})
	case opScan, opStream:
		c := fx.analytics[o.idx]
		return fmt.Sprintf("POST /v1/cypher (%s) %s", o.kind, enc(api.CypherRequest{Query: c.query, Params: c.params}))
	case opAgent:
		c := fx.agents[o.idx]
		return "POST /v1/tools agent " + enc(c.search) + " " + c.query
	case opWrite:
		w := fx.writes[o.idx]
		return "POST /v1/cypher " + enc(api.CypherRequest{Query: w.query, Params: w.params})
	}
	return ""
}

// requests renders the first n operations each client of a workload
// sends, plus the refresh writer's pool.
func requests(t *testing.T, workload string, seed int64, n int) []string {
	t.Helper()
	fx, err := buildFixtures(context.Background(), workload, seed, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for c := range 2 {
		g := newOpGen(fx, workload, seed, c)
		for range n {
			out = append(out, fx.describe(g.next()))
		}
	}
	for i := range fx.writes {
		out = append(out, fx.describe(op{opWrite, i}))
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, wl := range []string{wlAsk, wlAnalyst, wlRefresh} {
		a, b := requests(t, wl, 7, 200), requests(t, wl, 7, 200)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different request sequences", wl)
		}
		if c := requests(t, wl, 8, 200); slices.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced the same request sequence", wl)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {25, 20}, {40, 29}, {50, 35}, {75, 40}, {99, 49.6}, {100, 50},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3}, 99); got != 3 {
		t.Errorf("percentile of one value = %v, want 3", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no values = %v, want 0", got)
	}
	if xs[0] != 15 || xs[4] != 50 {
		t.Error("percentile reordered its input")
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("p99 of 1..100 = %v, want 99.01", got)
	}
}

func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 60, End: 60}}
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered = %d, want 40 (10–40 and 90–100)", got)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the program
// prints in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, []string{wlAsk, wlAnalyst, wlRefresh}) {
		t.Errorf("BENCHMARK.json workloads = %v", names)
	}
}

// TestSmoke runs every workload for two seconds, untraced and traced,
// against a freshly built server binary, and checks that every metric
// is printed with its unit and that no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the server and runs six short benchmarks")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "chatiyp-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/chatiyp-server")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the server: %v\n%s", err, out)
	}
	for _, wl := range []string{wlAsk, wlAnalyst, wlRefresh} {
		for _, traced := range []bool{false, true} {
			cfg := defaultConfig()
			cfg.workload, cfg.seed, cfg.seconds, cfg.trace = wl, 3, 2, traced
			cfg.serverBin, cfg.work, cfg.boots = bin, filepath.Join(dir, "work"), 2
			res, report, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d: %v",
					wl, traced, res.Correct, res.Attempted, res.Failed, report["failures"])
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics printed, want %d", wl, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s printed as %+v, want unit %s", wl, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.name, m.Value)
				}
			}
			line, err := json.Marshal(res)
			if err != nil || !strings.Contains(string(line), `"metrics"`) {
				t.Errorf("%s trace=%t: result does not encode: %v", wl, traced, err)
			}
		}
	}
}
