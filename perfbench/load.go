package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chatiyp/client"
	"chatiyp/internal/api"
	"chatiyp/internal/graph"
)

// sample is the outcome of one operation.
type sample struct {
	kind     opKind
	lat      time.Duration // from start, or from the due time for open-loop writes
	late     time.Duration // open-loop writes: how late the writer sent it
	firstRow time.Duration // NDJSON reads: time to the first row record
	ok       bool
	why      string
	bytes    int64 // response body bytes
	calls    int   // HTTP requests
	rows     int   // NDJSON row records received
	// asks only
	fallback bool
	cypher   string
	serverMS float64
	stages   []api.TraceEntry
}

// worker is one client: its own transport (one keep-alive connection),
// byte counter and request-ID sequence.
type worker struct {
	id    int
	c     *client.Client
	fx    *fixtures
	refs  *references
	tr    *tracer   // nil in untraced runs
	rp    *replayer // nil in untraced runs
	tp    *http.Transport
	bytes atomic.Int64
	calls atomic.Int64
	seq   atomic.Int64
}

func newWorker(id int, base string, fx *fixtures, refs *references, tr *tracer, rp *replayer) (*worker, error) {
	w := &worker{id: id, fx: fx, refs: refs, tr: tr, rp: rp,
		tp: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	hc := &http.Client{Transport: &wireTransport{base: w.tp, w: w}}
	c, err := client.New(base, client.WithRetries(0), client.WithHTTPClient(hc))
	if err != nil {
		return nil, err
	}
	w.c = c
	return w, nil
}

func (w *worker) close() { w.tp.CloseIdleConnections() }

// ctxKey types the context values the transport reads.
type ctxKey int

const (
	keySpan  ctxKey = iota // int64 id of the enclosing operation span
	keyLabel               // string label naming the HTTP call in the trace
)

func withLabel(ctx context.Context, label string) context.Context {
	return context.WithValue(ctx, keyLabel, label)
}

// wireTransport stamps each request with an X-Request-ID, counts
// response bytes and, when tracing, records one span per HTTP call
// from send until the body is closed.
type wireTransport struct {
	base *http.Transport
	w    *worker
}

func (t *wireTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	w := t.w
	id := fmt.Sprintf("pb%d-%d", w.id, w.seq.Add(1))
	req = req.Clone(req.Context())
	req.Header.Set("X-Request-ID", id)
	w.calls.Add(1)
	var sp *openSpan
	if w.tr != nil {
		label, _ := req.Context().Value(keyLabel).(string)
		if label == "" {
			label = req.URL.Path
		}
		parent, _ := req.Context().Value(keySpan).(int64)
		sp = w.tr.begin("http "+label, parent, id)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		if sp != nil {
			sp.end()
		}
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &w.bytes, span: sp}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n    *atomic.Int64
	span *openSpan
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	if b.span != nil {
		b.once.Do(b.span.end)
	}
	return err
}

// references holds what each operation must return. The warm-up before
// the window fills the per-question and per-agent-case entries.
type references struct {
	writes *writerState // refresh: what the writer has applied

	mu        sync.Mutex
	askScored []bool            // per question: askExact is set
	askExact  []bool            // per question: rows equal the gold query's rows
	agentSig  []string          // per agent case: the search hits
	agentRow  []rowSet          // per agent case: rows the bound query must return
	cypher    map[string]rowSet // Cypher an answer ran → its in-process rows
}

// scoreAsk records, for the first answer to a question only, whether
// its rows equal the gold query's.
func (r *references) scoreAsk(idx int, exact bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.askScored[idx] {
		r.askScored[idx], r.askExact[idx] = true, exact
	}
}

// agentRef returns the hits and rows an agent conversation must
// produce. The first conversation of a case sets them: its hits, and
// the in-process rows of the query bound to its top hit.
func (r *references) agentRef(idx int, sig string, rows func() (rowSet, error)) (string, rowSet, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.agentSig[idx] == "" {
		want, err := rows()
		if err != nil {
			return "", rowSet{}, err
		}
		r.agentSig[idx], r.agentRow[idx] = sig, want
	}
	return r.agentSig[idx], r.agentRow[idx], nil
}

// rowsOf returns the in-process result of a Cypher query an answer
// reports, computing it on first use.
func (r *references) rowsOf(fx *fixtures, query string) (rowSet, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rs, ok := r.cypher[query]; ok {
		return rs, nil
	}
	rs, err := fx.reference(query, nil)
	if err != nil {
		return rowSet{}, err
	}
	r.cypher[query] = rs
	return rs, nil
}

// do runs one operation and checks its output. The latency ends when
// the last response has been read; checks and trace replays run after.
func (w *worker) do(ctx context.Context, o op) sample {
	s := sample{kind: o.kind}
	var sp *openSpan
	if w.tr != nil {
		sp = w.tr.begin("op "+o.kind.String(), 0, "")
		ctx = context.WithValue(ctx, keySpan, sp.s.ID)
	}
	b0, c0 := w.bytes.Load(), w.calls.Load()
	t := &timer{start: time.Now()}
	var err error
	switch o.kind {
	case opAsk:
		err = w.ask(ctx, o.idx, t, &s)
	case opPoint:
		err = w.query(ctx, w.fx.points[o.idx], t)
	case opScan:
		err = w.query(ctx, w.fx.analytics[o.idx], t)
	case opStream:
		err = w.stream(ctx, w.fx.analytics[o.idx], t, &s)
	case opAgent:
		err = w.agent(ctx, o.idx, t)
	case opWrite:
		err = w.write(ctx, o.idx, t)
	}
	s.lat = t.stop()
	if sp != nil {
		sp.end()
	}
	s.bytes, s.calls = w.bytes.Load()-b0, int(w.calls.Load()-c0)
	s.ok = err == nil
	if err != nil {
		s.why = fmt.Sprintf("%s: %v", o.kind, err)
	}
	return s
}

// timer measures one operation; stop keeps the first reading.
type timer struct {
	start time.Time
	lat   time.Duration
}

func (t *timer) stop() time.Duration {
	if t.lat == 0 {
		t.lat = time.Since(t.start)
	}
	return t.lat
}

// ask sends one question. The answer must not be degraded, and the rows
// must be the rows of the Cypher the answer says it ran. The first
// answer to each question (before the window) is scored against the
// gold query for ask_exec_accuracy.
func (w *worker) ask(ctx context.Context, idx int, t *timer, s *sample) error {
	r, err := w.c.Ask(withLabel(ctx, "ask"), w.fx.questions[idx].text)
	t.stop()
	if err != nil {
		return err
	}
	if r.Degraded {
		return fmt.Errorf("degraded answer (%s)", r.DegradedReason)
	}
	if strings.TrimSpace(r.Answer) == "" {
		return errors.New("empty answer")
	}
	s.fallback, s.cypher, s.serverMS, s.stages = r.Fallback, r.Cypher, r.DurationMS, r.Trace
	if r.Cypher != "" {
		want, err := w.refs.rowsOf(w.fx, r.Cypher)
		if err != nil {
			return err
		}
		if !want.sameResult(r.Rows) {
			return fmt.Errorf("rows differ from an in-process run of the returned Cypher %q", r.Cypher)
		}
	}
	w.refs.scoreAsk(idx, r.Cypher != "" && w.fx.questions[idx].gold.matches(r.Rows))
	if w.rp != nil {
		if r.Cypher != "" {
			w.rp.cypher(ctx, r.Cypher, nil)
		}
		if r.Fallback {
			w.rp.search(ctx, w.fx.questions[idx].text, 0, "")
		}
	}
	return nil
}

func (w *worker) query(ctx context.Context, c cypherCase, t *timer) error {
	r, err := w.c.Query(withLabel(ctx, "cypher json"), c.query, c.params)
	t.stop()
	if err != nil {
		return err
	}
	if r.Truncated || !c.want.matches(r.Rows) {
		return fmt.Errorf("rows differ from the reference for %q", c.query)
	}
	if w.rp != nil {
		w.rp.cypher(ctx, c.query, c.params)
	}
	return nil
}

// stream reads an NDJSON result to the end; its rows must equal the
// JSON reference rows for the same query.
func (w *worker) stream(ctx context.Context, c cypherCase, t *timer, s *sample) error {
	rows, err := w.c.QueryStream(withLabel(ctx, "cypher ndjson"), c.query, c.params)
	if err != nil {
		return err
	}
	var got [][]graph.Value
	for rows.Next() {
		if len(got) == 0 {
			s.firstRow = time.Since(t.start)
		}
		got = append(got, rows.Row())
	}
	err = rows.Err()
	rows.Close()
	t.stop()
	if err != nil {
		return err
	}
	s.rows = len(got)
	if rows.Truncated() || !c.want.matches(got) {
		return fmt.Errorf("NDJSON rows differ from the JSON reference for %q", c.query)
	}
	if w.rp != nil {
		w.rp.cypher(ctx, c.query, c.params)
	}
	return nil
}

// agent runs one conversation in its own session: search for an AS,
// then run Cypher with $asn bound to the top hit's key property, then
// end the session.
func (w *worker) agent(ctx context.Context, idx int, t *timer) error {
	c := w.fx.agents[idx]
	sess, err := w.c.NewSession(withLabel(ctx, "session/create"), 0)
	if err != nil {
		return err
	}
	found, err := sess.SearchEntities(withLabel(ctx, "tools search_entities"), c.search)
	var res *api.ToolCallResult
	if err == nil && found.Search != nil && len(found.Search.Hits) > 0 {
		res, err = sess.RunCypher(withLabel(ctx, "tools run_cypher"), api.RunCypherParams{
			Query: c.query,
			Bind:  map[string]api.HandleRef{"asn": {Handle: found.Handle, Row: 0, Column: "name"}},
		})
	}
	err = errors.Join(err, sess.Delete(withLabel(ctx, "session/delete")))
	t.stop()
	switch {
	case err != nil:
		return err
	case found.Search == nil || len(found.Search.Hits) == 0:
		return errors.New("search_entities returned no hits")
	case res.Cypher == nil:
		return errors.New("run_cypher returned no result")
	}
	var sig strings.Builder
	for _, h := range found.Search.Hits {
		fmt.Fprintf(&sig, "%d:%s;", h.ID, h.Name)
	}
	top := map[string]any{"asn": found.Search.Hits[0].Name}
	wantSig, wantRows, err := w.refs.agentRef(idx, sig.String(), func() (rowSet, error) { return w.fx.reference(c.query, top) })
	if err != nil {
		return err
	}
	if sig.String() != wantSig {
		return errors.New("search hits differ from the reference hits")
	}
	if !wantRows.matches(res.Cypher.Rows) {
		return errors.New("run_cypher rows differ from the reference")
	}
	if w.rp != nil {
		w.rp.search(ctx, c.search.Query, c.search.K, c.search.Kind)
		w.rp.cypher(ctx, c.query, top)
	}
	return nil
}

// write applies one crawler-style write; it must report exactly its
// expected effect, and is then recorded for the read-your-writes check.
func (w *worker) write(ctx context.Context, idx int, t *timer) error {
	op := w.fx.writes[idx]
	r, err := w.c.Query(withLabel(ctx, "cypher write"), op.query, op.params)
	t.stop()
	if err != nil {
		return err
	}
	if r.Stats != op.want {
		return fmt.Errorf("write reported %+v, want %+v", r.Stats, op.want)
	}
	w.refs.writes.apply(op)
	if w.rp != nil {
		w.rp.view(ctx)
	}
	return nil
}

// writerState is the graph state the writer's acknowledged writes
// imply: the last value SET per AS, and the relationships created and
// not yet deleted.
type writerState struct {
	mu       sync.Mutex
	lastSeen map[int64]int64
	open     map[int64][2]int64 // seq → (a, b)
}

func newWriterState() *writerState {
	return &writerState{lastSeen: map[int64]int64{}, open: map[int64][2]int64{}}
}

func (ws *writerState) apply(op writeOp) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	switch {
	case op.setASN != 0:
		ws.lastSeen[op.setASN] = op.seq
	case op.create:
		ws.open[op.seq] = [2]int64{op.relA, op.relB}
	default:
		delete(ws.open, op.seq)
	}
}

// verify reads back everything the writer touched and compares it with
// the acknowledged writes.
func (ws *writerState) verify(ctx context.Context, c *client.Client) error {
	ws.mu.Lock()
	var sets, rels [][]graph.Value
	for asn, seq := range ws.lastSeen {
		sets = append(sets, []graph.Value{asn, seq})
	}
	for seq, ab := range ws.open {
		rels = append(rels, []graph.Value{ab[0], ab[1], seq})
	}
	ws.mu.Unlock()
	for _, check := range []struct {
		query string
		want  [][]graph.Value
	}{{verifySets, sets}, {verifyRels, rels}} {
		want, err := canonicalRows(check.want, false)
		if err != nil {
			return err
		}
		r, err := c.Query(ctx, check.query, nil)
		if err != nil {
			return err
		}
		if !want.matches(r.Rows) {
			return fmt.Errorf("read-your-writes: %q returned %d rows, want %d matching the acknowledged writes",
				check.query, len(r.Rows), len(check.want))
		}
	}
	return nil
}

// closedLoop runs each worker's operation stream until the deadline:
// each client sends its next request only after the previous answer.
func closedLoop(ctx context.Context, workers []*worker, gens []*opGen, deadline time.Time) [][]sample {
	out := make([][]sample, len(workers))
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				out[i] = append(out[i], workers[i].do(ctx, gens[i].next()))
			}
		}()
	}
	wg.Wait()
	return out
}

// openLoop sends the writer's pool at a fixed rate from start until the
// deadline. Each write is timed from when it was due, so a stall also
// charges the writes queued behind it; late records how far behind the
// schedule the writer sent it.
func openLoop(ctx context.Context, w *worker, n int, rate float64, start, deadline time.Time) []sample {
	interval := time.Duration(float64(time.Second) / rate)
	var out []sample
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.After(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		s := w.do(ctx, op{opWrite, i})
		s.late = sent.Sub(due)
		s.lat += s.late
		out = append(out, s)
	}
	return out
}
