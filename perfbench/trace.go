package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chatiyp/internal/core"
	"chatiyp/internal/cypher"
	"chatiyp/internal/embed"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
	"chatiyp/internal/llm"
	"chatiyp/internal/persist"
	"chatiyp/internal/server"
	"chatiyp/internal/vector"
)

// This file is the traced run: the same components the server binary
// wires, hosted in-process, with spans recorded around calls into
// their public functions. Spans stay in memory and are written once,
// when the run ends.

// span is one timed interval. Start and End are nanoseconds since the
// trace began; spans of one HTTP request share its X-Request-ID.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	ReqID  string `json:"request_id,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	byReq  map[string]int64 // X-Request-ID → id of the client's HTTP span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), byReq: map[string]int64{}} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a span. A non-empty reqID marks the client side of an
// HTTP request: spans the server records under the same ID become its
// children.
func (t *tracer) begin(name string, parent int64, reqID string) *openSpan {
	id := t.nextID.Add(1)
	if reqID != "" {
		t.mu.Lock()
		t.byReq[reqID] = id
		t.mu.Unlock()
	}
	return &openSpan{t: t, s: span{ID: id, Parent: parent, Name: name, ReqID: reqID, Start: int64(time.Since(t.epoch))}}
}

func (sp *openSpan) end() {
	sp.s.End = int64(time.Since(sp.t.epoch))
	sp.t.mu.Lock()
	sp.t.spans = append(sp.t.spans, sp.s)
	sp.t.mu.Unlock()
}

// child starts a span inside the server, parented to the client span of
// the request it serves.
func (t *tracer) child(name, reqID string) *openSpan {
	t.mu.Lock()
	parent := t.byReq[reqID]
	t.mu.Unlock()
	return &openSpan{t: t, s: span{ID: t.nextID.Add(1), Parent: parent, Name: name, ReqID: reqID, Start: int64(time.Since(t.epoch))}}
}

// spanStat summarizes the spans of one name.
type spanStat struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	SelfMS float64 `json:"self_mean_ms"`
}

// stats summarizes spans by name. A span's self time is its duration
// minus the part of it that its children's intervals cover.
func (t *tracer) stats() map[string]spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type acc struct {
		n          int
		total, own int64
	}
	by := map[string]*acc{}
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.own += s.End - s.Start - covered(s, children[s.ID])
	}
	out := make(map[string]spanStat, len(by))
	for name, a := range by {
		out[name] = spanStat{Count: a.n, MeanMS: float64(a.total) / float64(a.n) / 1e6, SelfMS: float64(a.own) / float64(a.n) / 1e6}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{"epoch": t.epoch.Format(time.RFC3339Nano), "spans": t.spans})
	return errors.Join(err, f.Close())
}

// reqIDKey carries the X-Request-ID into the server's request context,
// where the model wrapper reads it.
type reqIDKey struct{}

func withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, r.Header.Get("X-Request-ID"))))
	})
}

// spanModel is an llm.Model that records one span per completion,
// named after its task, and counts calls and prompt tokens.
type spanModel struct {
	inner  llm.Model
	tr     *tracer
	calls  atomic.Int64
	tokens atomic.Int64
}

func (m *spanModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	reqID, _ := ctx.Value(reqIDKey{}).(string)
	sp := m.tr.child("llm."+req.Task.String(), reqID)
	resp, err := m.inner.Complete(ctx, req)
	sp.end()
	m.calls.Add(1)
	m.tokens.Add(int64(resp.TokensIn))
	return resp, err
}

// inProcess is chatiyp-server's wiring hosted in the benchmark process:
// core.New over the simulated model (wrapped in spanModel) and
// server.New on a loopback listener, with a data directory for refresh.
type inProcess struct {
	base  string
	g     *graph.Graph
	model *spanModel
	hs    *http.Server
	store *persist.Store
	done  chan error
}

func startInProcess(fx *fixtures, dataDir string, ckptBytes int64, tr *tracer) (*inProcess, error) {
	p := &inProcess{g: fx.g, done: make(chan error, 1)}
	if dataDir != "" {
		if err := persist.Init(dataDir, fx.g); err != nil {
			return nil, err
		}
		store, err := persist.Open(dataDir, persist.Options{
			Fsync: persist.FsyncInterval, FsyncInterval: 100 * time.Millisecond,
			CheckpointBytes: ckptBytes, VerifyChecksums: true,
		})
		if err != nil {
			return nil, err
		}
		p.store, p.g = store, store.Graph()
	}
	p.model = &spanModel{inner: llm.NewSim(llm.DefaultSimConfig(core.BuildLexicon(p.g))), tr: tr}
	pipe, err := core.New(core.Config{Graph: p.g, Model: p.model})
	if err == nil {
		var srv *server.Server
		srv, err = server.New(server.Config{Pipeline: pipe, Logger: log.New(io.Discard, "chatiyp-server ", log.LstdFlags)})
		if err == nil {
			var ln net.Listener
			if ln, err = net.Listen("tcp", "127.0.0.1:0"); err == nil {
				p.base = "http://" + ln.Addr().String()
				p.hs = &http.Server{Handler: withRequestID(srv.Handler())}
				go func() { p.done <- p.hs.Serve(ln) }()
				return p, nil
			}
		}
	}
	if p.store != nil {
		_ = p.store.Close() // the setup error is the one to report
	}
	return nil, err
}

func (p *inProcess) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	if serr := <-p.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	if p.store != nil {
		err = errors.Join(err, p.store.Checkpoint(), p.store.Close())
	}
	return err
}

// replayer re-runs, from the benchmark, the work a traced request made
// the server do, timing the public entry points of each layer: the plan
// cache and executor, the embedder and vector index, and snapshot
// publication after writes.
type replayer struct {
	tr      *tracer
	g       *graph.Graph
	plans   *cypher.PlanCache
	emb     *embed.Embedder
	index   *vector.Index
	reads   atomic.Int64
	replans atomic.Int64
	mu      sync.Mutex
	kept    []replayQuery // the first queries replayed, for allocsPerExec
}

type replayQuery struct {
	query  string
	params map[string]any
}

const keptReplays = 256

// newReplayer builds the replay side. With vectors it also fits its own
// embedder and index over the node descriptions, as core.New does.
func newReplayer(tr *tracer, g *graph.Graph, vectors bool) (*replayer, error) {
	r := &replayer{tr: tr, g: g, plans: cypher.NewPlanCache(0)}
	if !vectors {
		return r, nil
	}
	descs := iyp.Describe(g)
	corpus := make([]string, len(descs))
	for i, d := range descs {
		corpus[i] = d.Text
	}
	r.emb = embed.NewDefault()
	r.emb.Fit(corpus)
	r.index = vector.NewIndex(r.emb.Dim())
	for _, d := range descs {
		if err := r.index.Add(vector.Doc{ID: d.NodeID, Text: d.Text, Kind: d.Label, Vec: r.emb.Embed(d.Text)}); err != nil {
			return nil, fmt.Errorf("indexing descriptions: %w", err)
		}
	}
	return r, nil
}

func parentSpan(ctx context.Context) int64 {
	id, _ := ctx.Value(keySpan).(int64)
	return id
}

// cypher prepares and executes one read the server just served,
// counting how often the cached plan had to be rebuilt.
func (r *replayer) cypher(ctx context.Context, query string, params map[string]any) {
	parent, p := parentSpan(ctx), wireParams(params)
	sp := r.tr.begin("cypher.prepare", parent, "")
	pq, err := r.plans.Prepare(query)
	sp.end()
	if err != nil {
		return // the server ran it, so this cannot happen; a gap in the spans would show it
	}
	before := pq.Replans()
	sp = r.tr.begin("cypher.exec", parent, "")
	_, _ = pq.ExecuteContext(ctx, r.g, p, cypher.Options{})
	sp.end()
	r.reads.Add(1)
	r.replans.Add(int64(pq.Replans() - before))
	r.mu.Lock()
	if len(r.kept) < keptReplays {
		r.kept = append(r.kept, replayQuery{query, p})
	}
	r.mu.Unlock()
}

// search embeds text and searches the index, as vector fallback and
// search_entities do. k ≤ 0 means the pipeline's default top-K.
func (r *replayer) search(ctx context.Context, text string, k int, kind string) {
	if r.emb == nil {
		return
	}
	if k <= 0 {
		k = 8
	}
	var filter vector.Filter
	if kind != "" {
		filter = vector.KindFilter(kind)
	}
	parent := parentSpan(ctx)
	sp := r.tr.begin("embed.embed", parent, "")
	v := r.emb.Embed(text)
	sp.end()
	sp = r.tr.begin("vector.search", parent, "")
	_, _ = r.index.SearchContext(ctx, v, k, filter)
	sp.end()
}

// view pins the graph right after a write, which publishes the next
// snapshot unless a reader already did.
func (r *replayer) view(ctx context.Context) {
	sp := r.tr.begin("graph.view", parentSpan(ctx), "")
	r.g.View()
	sp.end()
}

// allocsPerExec re-executes the kept queries serially, after the
// window, and reports heap allocations and KiB allocated per execution.
func (r *replayer) allocsPerExec() (allocs, kb float64) {
	r.mu.Lock()
	kept := append([]replayQuery(nil), r.kept...)
	r.mu.Unlock()
	if len(kept) == 0 {
		return 0, 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, q := range kept {
		if pq, err := r.plans.Prepare(q.query); err == nil {
			_, _ = pq.ExecuteContext(context.Background(), r.g, q.params, cypher.Options{})
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(kept))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n
}

// reset drops the spans recorded so far (the warm-up's).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.byReq = nil, map[string]int64{}
}
