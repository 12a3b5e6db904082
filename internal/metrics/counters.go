package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file adds runtime operational counters to the metrics package —
// distinct from the answer-quality metrics above, these count events in
// the serving path (plan-cache hits and misses, questions asked, Cypher
// executions) so deployments can watch cache effectiveness live via the
// server's /v1/metrics endpoint.

// Counter is a monotonically readable int64 event counter. The zero
// value is ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Set overwrites the value — used for counters that mirror an external
// snapshot (e.g. plan-cache hit totals maintained by the cache itself).
func (c *Counter) Set(v int64) { c.v.Store(v) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level — in-flight requests, scheduler queue
// depth — that moves both ways, unlike the monotonic Counter. The zero
// value is ready to use; all methods are safe for concurrent use.
// Inc/Dec/Add return the post-update value. Note that registry gauges
// are externally mutable (Registry.Reset zeroes them), so control
// decisions should key on private state and only mirror into a gauge.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one and returns the new level.
func (g *Gauge) Inc() int64 { return g.v.Add(1) }

// Dec subtracts one and returns the new level.
func (g *Gauge) Dec() int64 { return g.v.Add(-1) }

// Add adds delta and returns the new level.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Set overwrites the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value reads the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Timing is a latency summary: count, sum, and max of observed
// durations, all in microseconds. It is the cheapest shape that still
// answers "how many, how slow on average, how slow at worst" per
// route; the zero value is ready to use and all methods are safe for
// concurrent use.
type Timing struct {
	count atomic.Int64
	sum   atomic.Int64
	max   atomic.Int64
}

// Observe records one duration in microseconds.
func (t *Timing) Observe(us int64) {
	t.count.Add(1)
	t.sum.Add(us)
	for {
		cur := t.max.Load()
		if us <= cur || t.max.CompareAndSwap(cur, us) {
			return
		}
	}
}

// Snapshot reads the summary: observation count, total and max
// microseconds.
func (t *Timing) Snapshot() (count, sumUS, maxUS int64) {
	return t.count.Load(), t.sum.Load(), t.max.Load()
}

// Registry is a named set of counters, gauges and timings. Instruments
// are created on first use and live for the registry's lifetime;
// counter and gauge namespaces are shared (one name is either a
// counter or a gauge, and Snapshot merges both), while timings expand
// into <name>.count/.sum_us/.max_us entries. Safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timings  map[string]*Timing
}

// NewRegistry returns an empty counter registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timings:  make(map[string]*Timing),
	}
}

// Default is the process-wide registry the pipeline and server use when
// no explicit registry is configured.
var Default = NewRegistry()

// Counter returns the named counter, creating it when absent.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it when absent.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timing returns the named latency summary, creating it when absent.
func (r *Registry) Timing(name string) *Timing {
	r.mu.RLock()
	t := r.timings[name]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.timings[name]; t == nil {
		t = &Timing{}
		if r.timings == nil {
			r.timings = make(map[string]*Timing)
		}
		r.timings[name] = t
	}
	return t
}

// Snapshot returns the current value of every counter and gauge, keyed
// by name, plus each timing expanded into <name>.count, <name>.sum_us
// and <name>.max_us. When a name is registered as both counter and
// gauge, the gauge wins (levels are the more informative reading).
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges)+3*len(r.timings))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, t := range r.timings {
		count, sum, max := t.Snapshot()
		out[name+".count"] = count
		out[name+".sum_us"] = sum
		out[name+".max_us"] = max
	}
	return out
}

// Names returns the registered counter and gauge names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[string]bool, len(r.counters)+len(r.gauges))
	out := make([]string, 0, len(r.counters)+len(r.gauges))
	for name := range r.counters {
		seen[name] = true
		out = append(out, name)
	}
	for name := range r.gauges {
		if !seen[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Reset zeroes every counter (the registry keeps the names). Gauges
// are left alone: they are live levels maintained by Inc/Dec deltas
// (in-flight requests, queue depth), and zeroing one mid-flight would
// desynchronize it from reality permanently — the pending Dec calls
// would drive it negative with no resync path.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.Set(0)
	}
}
