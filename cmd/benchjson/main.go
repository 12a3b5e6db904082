// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON report on stdout, so benchmark trajectories
// can be tracked across PRs (see scripts/bench_streaming.sh, which
// writes BENCH_streaming.json).
//
//	go test -run NONE -bench 'BenchmarkStreaming' . | go run ./cmd/benchjson
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full JSON document. NumCPU qualifies concurrency
// results: goroutine-scaling numbers are bounded by the cores the
// machine actually has.
type Report struct {
	GoVersion string             `json:"go_version"`
	GOOS      string             `json:"goos"`
	GOARCH    string             `json:"goarch"`
	NumCPU    int                `json:"num_cpu"`
	Results   []Result           `json:"results"`
	Speedups  map[string]float64 `json:"speedups,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

func main() {
	rep := Report{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU()}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		r := Result{Name: m[1], Iterations: iters, NsPerOp: ns}
		// Trailing fields come in "<value> <unit>" pairs: -benchmem's
		// B/op and allocs/op, plus any b.ReportMetric units.
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				r.BytesPerOp = &v
			case "allocs/op":
				r.AllocsPerOp = &v
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[fields[i+1]] = v
			}
		}
		rep.Results = append(rep.Results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	// Derive per-family speedups: locked/view pairs (the lock-free snapshot read path), and
	// goroutine-scaling factors (1 → 8 workers, same fixed work unit).
	byName := map[string]float64{}
	for _, r := range rep.Results {
		byName[r.Name] = r.NsPerOp
	}
	addSpeedup := func(key string, factor float64) {
		if rep.Speedups == nil {
			rep.Speedups = map[string]float64{}
		}
		rep.Speedups[key] = factor
	}
	for name, ns := range byName {
		if ns == 0 {
			continue
		}
		if base, ok := strings.CutSuffix(name, "/view"); ok {
			if locked, ok := byName[base+"/locked"]; ok {
				addSpeedup(strings.TrimPrefix(base, "Benchmark")+"/locked_over_view", locked/ns)
			}
		}
		if base, ok := strings.CutSuffix(name, "/goroutines=8"); ok {
			if one, ok := byName[base+"/goroutines=1"]; ok {
				addSpeedup(strings.TrimPrefix(base, "Benchmark")+"/scaling_1to8", one/ns)
			}
		}
		// Morsel-executor families: workers=N variants force the
		// parallel path; serial_over_1worker near 1.0 means the morsel
		// machinery costs ~nothing when it cannot help.
		if base, ok := strings.CutSuffix(name, "/workers=8"); ok {
			if one, ok := byName[base+"/workers=1"]; ok {
				addSpeedup(strings.TrimPrefix(base, "Benchmark")+"/scaling_1to8", one/ns)
			}
		}
		if base, ok := strings.CutSuffix(name, "/workers=1"); ok {
			if serial, ok := byName[base+"/serial"]; ok {
				addSpeedup(strings.TrimPrefix(base, "Benchmark")+"/serial_over_1worker", serial/ns)
			}
		}
		// Retrieval families: exact/hnsw pairs (brute-force scan vs the
		// approximate graph index, per corpus size) and cold/warm Ask
		// pairs (full pipeline vs a semantic-cache hit).
		if base, ok := strings.CutSuffix(name, "/hnsw"); ok {
			if exact, ok := byName[base+"/exact"]; ok {
				addSpeedup(strings.TrimPrefix(base, "Benchmark")+"/exact_over_hnsw", exact/ns)
			}
		}
		if base, ok := strings.CutSuffix(name, "/warm"); ok {
			if cold, ok := byName[base+"/cold"]; ok {
				addSpeedup(strings.TrimPrefix(base, "Benchmark")+"/cold_over_warm_ask", cold/ns)
			}
		}
		// Persistence families: gob parse vs mmap columnar cold start,
		// and write throughput with the WAL attached vs detached.
		if base, ok := strings.CutSuffix(name, "/columnar"); ok {
			if gob, ok := byName[base+"/gob"]; ok {
				addSpeedup(strings.TrimPrefix(base, "Benchmark")+"/gob_over_columnar", gob/ns)
			}
		}
		if base, ok := strings.CutSuffix(name, "/wal=on"); ok {
			if off, ok := byName[base+"/wal=off"]; ok {
				addSpeedup(strings.TrimPrefix(base, "Benchmark")+"/wal_write_overhead", ns/off)
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
