package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chatiyp/internal/api"
	"chatiyp/internal/core"
	"chatiyp/internal/cypher"
	"chatiyp/internal/iyp"
	"chatiyp/internal/llm"
	"chatiyp/internal/metrics"
)

// postWith builds and serves one POST with explicit headers.
func postWith(t *testing.T, h http.Handler, path, body, contentType, accept string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeEnvelope(t *testing.T, body []byte) api.ErrorDetail {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("non-envelope error body: %s", body)
	}
	return env.Err
}

func TestV1AskEndToEnd(t *testing.T) {
	s, w := newTestServer(t)
	q := fmt.Sprintf("What is the name of AS%d?", w.ASes[0].ASN)
	rec := postJSON(t, s.Handler(), "/v1/ask", api.AskRequest{Question: q})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
	}
	var resp api.AskResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Answer, w.ASes[0].Name) {
		t.Errorf("answer %q missing %q", resp.Answer, w.ASes[0].Name)
	}
	if len(resp.Trace) == 0 {
		t.Error("trace missing")
	}
}

func TestV1CypherJSONMode(t *testing.T) {
	s, w := newTestServer(t)
	rec := postJSON(t, s.Handler(), "/v1/cypher", api.CypherRequest{
		Query:  "MATCH (a:AS {asn: $asn}) RETURN a.name",
		Params: map[string]any{"asn": w.ASes[0].ASN},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
	}
	var resp api.CypherResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0] != w.ASes[0].Name {
		t.Errorf("rows = %v", resp.Rows)
	}
	if resp.NextCursor != "" {
		t.Errorf("non-paginated response carries a cursor: %q", resp.NextCursor)
	}
}

// TestV1ErrorEnvelopeMatrix is the full error-shape contract: for each
// failure class, the route answers the documented status and stable
// code in the uniform envelope.
func TestV1ErrorEnvelopeMatrix(t *testing.T) {
	drainSrv := newCustomServer(t, nil)
	if err := drainSrv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	tinyBody := newCustomServer(t, func(c *Config) { c.MaxBodyBytes = 64 })
	shortTimeout := newCustomServer(t, func(c *Config) {
		c.CypherTimeout = 20 * time.Millisecond
		c.AskTimeout = 20 * time.Millisecond
	})
	overloaded := newCustomServer(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.MaxQueue = -1
		c.RetryAfter = 2 * time.Second
		c.CypherTimeout = 5 * time.Second
	})
	// Hold overloaded's only slot with a slow query until the cases have
	// run; canceling its context then frees the slot at once instead of
	// waiting out the 5s CypherTimeout.
	holdCtx, releaseHold := context.WithCancel(context.Background())
	defer releaseHold()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		req := httptest.NewRequest(http.MethodPost, "/v1/cypher",
			strings.NewReader(`{"query": "`+slowCrossJoin+`"}`)).WithContext(holdCtx)
		req.Header.Set("Content-Type", "application/json")
		overloaded.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	waitFor(t, func() bool { return overloaded.reg.Gauge("server.inflight").Value() == 1 })

	plain := newCustomServer(t, nil)
	canceledReq := func(path, body string) *http.Request {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx)
		req.Header.Set("Content-Type", "application/json")
		return req
	}

	cases := []struct {
		name string
		srv  *Server
		// request
		method, path, body, contentType string
		ctxCanceled                     bool
		// expectations
		wantStatus int
		wantCode   string
		retryAfter bool
	}{
		{
			name: "parse error", srv: plain,
			method: "POST", path: "/v1/cypher", body: `{"query": "NOT CYPHER"}`, contentType: "application/json",
			wantStatus: http.StatusBadRequest, wantCode: api.CodeParseError,
		},
		{
			name: "exec error", srv: plain,
			method: "POST", path: "/v1/cypher", body: `{"query": "MATCH (a:AS {asn: $nope}) RETURN a"}`, contentType: "application/json",
			wantStatus: http.StatusUnprocessableEntity, wantCode: api.CodeExecError,
		},
		{
			name: "timeout", srv: shortTimeout,
			method: "POST", path: "/v1/cypher", body: `{"query": "` + slowCrossJoin + `"}`, contentType: "application/json",
			wantStatus: http.StatusGatewayTimeout, wantCode: api.CodeTimeout,
		},
		{
			name: "canceled (client gone)", srv: plain,
			method: "POST", path: "/v1/cypher", body: `{"query": "MATCH (c:Country) RETURN count(c)"}`, contentType: "application/json",
			ctxCanceled: true,
			wantStatus:  api.StatusClientClosedRequest, wantCode: api.CodeCanceled,
		},
		{
			name: "overloaded", srv: overloaded,
			method: "POST", path: "/v1/cypher", body: `{"query": "MATCH (c:Country) RETURN count(c)"}`, contentType: "application/json",
			wantStatus: http.StatusTooManyRequests, wantCode: api.CodeOverloaded, retryAfter: true,
		},
		{
			name: "draining", srv: drainSrv,
			method: "POST", path: "/v1/ask", body: `{"question": "What is the name of AS1?"}`, contentType: "application/json",
			wantStatus: http.StatusServiceUnavailable, wantCode: api.CodeUnavailable, retryAfter: true,
		},
		{
			name: "body too large", srv: tinyBody,
			method: "POST", path: "/v1/cypher", body: `{"query": "` + strings.Repeat("x", 200) + `"}`, contentType: "application/json",
			wantStatus: http.StatusRequestEntityTooLarge, wantCode: api.CodeBodyTooLarge,
		},
		{
			name: "unknown path", srv: plain,
			method: "POST", path: "/v1/cypherr", body: `{}`, contentType: "application/json",
			wantStatus: http.StatusNotFound, wantCode: api.CodeNotFound,
		},
		{
			name: "unsupported media type", srv: plain,
			method: "POST", path: "/v1/cypher", body: `query=x`, contentType: "application/x-www-form-urlencoded",
			wantStatus: http.StatusUnsupportedMediaType, wantCode: api.CodeUnsupportedMedia,
		},
		{
			name: "bad request", srv: plain,
			method: "POST", path: "/v1/ask", body: `{"question": ""}`, contentType: "application/json",
			wantStatus: http.StatusBadRequest, wantCode: api.CodeBadRequest,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var req *http.Request
			if tc.ctxCanceled {
				req = canceledReq(tc.path, tc.body)
			} else {
				req = httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
				req.Header.Set("Content-Type", tc.contentType)
			}
			rec := httptest.NewRecorder()
			tc.srv.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d body = %s, want %d", rec.Code, rec.Body.String(), tc.wantStatus)
			}
			detail := decodeEnvelope(t, rec.Body.Bytes())
			if detail.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", detail.Code, tc.wantCode)
			}
			if detail.Message == "" {
				t.Error("envelope message empty")
			}
			if detail.RequestID == "" {
				t.Error("envelope missing request_id")
			}
			if tc.retryAfter {
				if rec.Header().Get("Retry-After") == "" {
					t.Error("missing Retry-After header")
				}
				if detail.RetryAfter < 1 {
					t.Errorf("envelope retry_after = %d", detail.RetryAfter)
				}
			}

		})
	}
	releaseHold()
	<-slowDone
}

func TestV1NotAcceptable(t *testing.T) {
	s, _ := newTestServer(t)
	rec := postWith(t, s.Handler(), "/v1/cypher", `{"query": "RETURN 1"}`, "application/json", "text/html")
	if rec.Code != http.StatusNotAcceptable {
		t.Fatalf("status = %d, want 406", rec.Code)
	}
	if detail := decodeEnvelope(t, rec.Body.Bytes()); detail.Code != api.CodeNotAcceptable {
		t.Errorf("code = %q", detail.Code)
	}
	// Wildcards and JSON keep working.
	for _, accept := range []string{"", "*/*", "application/*", "application/json", "application/json; charset=utf-8"} {
		rec := postWith(t, s.Handler(), "/v1/cypher", `{"query": "RETURN 1"}`, "application/json", accept)
		if rec.Code != http.StatusOK {
			t.Errorf("Accept %q: status = %d", accept, rec.Code)
		}
	}
}

// TestV1NegotiateQValues: a q=0 entry explicitly refuses that media
// type (RFC 9110 §12.4.2) — it must not count as an opt-in.
func TestV1NegotiateQValues(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	cases := []struct {
		accept     string
		wantStatus int
		wantCT     string
	}{
		{"application/x-ndjson;q=0, application/json", http.StatusOK, "application/json"},
		{"application/x-ndjson;q=0.5", http.StatusOK, api.MediaNDJSON},
		{"application/x-ndjson; q=0 , */*", http.StatusOK, "application/json"},
		{"application/json;q=0", http.StatusNotAcceptable, ""},
		{"*/*;q=0", http.StatusNotAcceptable, ""},
	}
	for _, tc := range cases {
		rec := postWith(t, h, "/v1/cypher", `{"query": "RETURN 1"}`, "application/json", tc.accept)
		if rec.Code != tc.wantStatus {
			t.Errorf("Accept %q: status = %d, want %d", tc.accept, rec.Code, tc.wantStatus)
			continue
		}
		if tc.wantCT != "" && rec.Header().Get("Content-Type") != tc.wantCT {
			t.Errorf("Accept %q: Content-Type = %q, want %q", tc.accept, rec.Header().Get("Content-Type"), tc.wantCT)
		}
		if tc.wantStatus == http.StatusNotAcceptable {
			if detail := decodeEnvelope(t, rec.Body.Bytes()); detail.Code != api.CodeNotAcceptable {
				t.Errorf("Accept %q: code = %q", tc.accept, detail.Code)
			}
		}
	}
}

// TestV1JSONOnlyEndpointsNegotiate: /v1/ask/batch and /v1/explain only
// produce JSON, so an Accept header that admits only NDJSON gets the
// same 406 contract as the streaming-capable endpoints instead of a
// body the client refused.
func TestV1JSONOnlyEndpointsNegotiate(t *testing.T) {
	s, w := newTestServer(t)
	h := s.Handler()
	for _, path := range []string{"/v1/ask/batch", "/v1/explain"} {
		rec := postWith(t, h, path, `{}`, "application/json", api.MediaNDJSON)
		if rec.Code != http.StatusNotAcceptable {
			t.Errorf("%s: status = %d, want 406", path, rec.Code)
			continue
		}
		if detail := decodeEnvelope(t, rec.Body.Bytes()); detail.Code != api.CodeNotAcceptable {
			t.Errorf("%s: code = %q", path, detail.Code)
		}
	}
	body := fmt.Sprintf(`{"query": "MATCH (a:AS {asn: %d}) RETURN a.asn"}`, w.ASes[0].ASN)
	for _, accept := range []string{"", "*/*", "application/json"} {
		rec := postWith(t, h, "/v1/explain", body, "application/json", accept)
		if rec.Code != http.StatusOK {
			t.Errorf("explain with Accept %q: status = %d", accept, rec.Code)
		}
	}
}

// deadlineRecorder augments the recorder with a SetWriteDeadline the
// handlers reach through http.ResponseController, standing in for the
// real connection so deadline hygiene is observable.
type deadlineRecorder struct {
	*httptest.ResponseRecorder
	deadlines []time.Time
}

func (d *deadlineRecorder) SetWriteDeadline(t time.Time) error {
	d.deadlines = append(d.deadlines, t)
	return nil
}

// TestStreamClearsWriteDeadline pins the contract behind
// ndjsonWriter.close: a streaming handler that installs a connection
// write deadline must clear it when the stream ends. Older Go serve
// loops only reset write deadlines between keep-alive requests when
// Server.WriteTimeout was positive, so a leaked deadline broke every
// later response on the reused connection once it passed.
func TestStreamClearsWriteDeadline(t *testing.T) {
	s, w := newTestServer(t)
	cases := []struct{ path, body string }{
		{"/v1/cypher", `{"query": "RETURN 1"}`},
		{"/v1/ask", fmt.Sprintf(`{"question": "What is the name of AS%d?"}`, w.ASes[0].ASN)},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", api.MediaNDJSON)
		rec := &deadlineRecorder{ResponseRecorder: httptest.NewRecorder()}
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d body = %s", tc.path, rec.Code, rec.Body.String())
		}
		if len(rec.deadlines) < 2 || rec.deadlines[0].IsZero() {
			t.Fatalf("%s: SetWriteDeadline calls = %v, want a real deadline then a clear", tc.path, rec.deadlines)
		}
		if last := rec.deadlines[len(rec.deadlines)-1]; !last.IsZero() {
			t.Errorf("%s: stream left the write deadline set: %v", tc.path, last)
		}
	}
}

// TestStreamDeadlineDoesNotLeakToNextRequest drives the same contract
// end-to-end over a real keep-alive connection: after a streamed
// response whose write deadline has since passed, the next request on
// the reused connection must still succeed. (On current Go the serve
// loop also clears the deadline between requests, so this alone cannot
// catch a handler regression — TestStreamClearsWriteDeadline does —
// but it keeps the full client-visible path honest.) POSTs are not
// transparently retried on a fresh connection, so a leak would surface
// as a client-side error here.
func TestStreamDeadlineDoesNotLeakToNextRequest(t *testing.T) {
	s := newCustomServer(t, func(c *Config) { c.CypherTimeout = 250 * time.Millisecond })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(accept string) (*http.Response, error) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/cypher", strings.NewReader(`{"query": "RETURN 1"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		return ts.Client().Do(req)
	}

	// A short NDJSON stream whose write deadline (now+CypherTimeout)
	// outlives the response. Fully draining the body returns the
	// connection to the keep-alive pool.
	resp, err := post(api.MediaNDJSON)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Let the streamed request's deadline pass, then reuse the
	// connection.
	time.Sleep(400 * time.Millisecond)
	resp2, err := post("")
	if err != nil {
		t.Fatalf("second request on reused connection: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request status = %d", resp2.StatusCode)
	}
	if _, err := io.ReadAll(resp2.Body); err != nil {
		t.Fatalf("reading second response: %v", err)
	}
}

func TestCatchAllRouting(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	// The index is still served at exactly "/".
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ChatIYP") {
		t.Errorf("index: %d", rec.Code)
	}
	// Typo'd paths, and the removed pre-versioning routes, 404
	// with the envelope instead of serving the index.
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/api/askk"}, {http.MethodGet, "/v1/nope"}, {http.MethodGet, "/index.html"},
		{http.MethodGet, "/apiask"}, {http.MethodPost, "/api/ask"}, {http.MethodPost, "/api/cypher"},
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(`{"question": "q", "query": "RETURN 1"}`))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s: status = %d, want 404", tc.method, tc.path, rec.Code)
			continue
		}
		if detail := decodeEnvelope(t, rec.Body.Bytes()); detail.Code != api.CodeNotFound {
			t.Errorf("%s %s: code = %q", tc.method, tc.path, detail.Code)
		}
	}
}

// pipeResponseWriter adapts an io.Pipe into an http.ResponseWriter:
// every Write blocks until the test side reads it, which makes
// streaming incrementality provable — the handler cannot run ahead of
// the reader, so if the reader gets the first row while the handler is
// still alive, bytes genuinely left the handler before the result set
// was drained.
type pipeResponseWriter struct {
	h  http.Header
	pw *io.PipeWriter
}

func (p *pipeResponseWriter) Header() http.Header         { return p.h }
func (p *pipeResponseWriter) WriteHeader(int)             {}
func (p *pipeResponseWriter) Write(b []byte) (int, error) { return p.pw.Write(b) }

// TestV1CypherNDJSONStreamsIncrementally proves the streaming
// acceptance criterion: the first row's bytes are written before the
// full result set is drained. The handler writes through a synchronous
// pipe; the test reads the header and first row while the handler is
// demonstrably still mid-stream, then drains the rest and checks the
// trailer.
func TestV1CypherNDJSONStreamsIncrementally(t *testing.T) {
	const totalRows = 50_000
	s := newCustomServer(t, func(c *Config) { c.CypherRowLimit = totalRows + 1 })
	pr, pw := io.Pipe()
	w := &pipeResponseWriter{h: make(http.Header), pw: pw}
	body := fmt.Sprintf(`{"query": "UNWIND range(1, %d) AS x RETURN x"}`, totalRows)
	req := httptest.NewRequest(http.MethodPost, "/v1/cypher", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(w, req)
		pw.Close()
	}()

	sc := bufio.NewScanner(pr)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("no header record")
	}
	var header api.StreamRecord
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil || header.Type != api.RecordHeader {
		t.Fatalf("header = %s (err %v)", sc.Bytes(), err)
	}
	if len(header.Columns) != 1 || header.Columns[0] != "x" {
		t.Fatalf("columns = %v", header.Columns)
	}
	if !sc.Scan() {
		t.Fatal("no first row record")
	}
	var first api.StreamRecord
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil || first.Type != api.RecordRow {
		t.Fatalf("first record = %s (err %v)", sc.Bytes(), err)
	}
	// The proof: we hold the first row while the handler is still
	// running — it cannot have buffered 50k rows past the synchronous
	// pipe.
	select {
	case <-done:
		t.Fatal("handler finished before the first row was consumed; response was not streamed")
	default:
	}
	rows := 1
	var trailer api.StreamRecord
	for sc.Scan() {
		var rec api.StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad record: %s", sc.Bytes())
		}
		switch rec.Type {
		case api.RecordRow:
			rows++
		case api.RecordTrailer:
			trailer = rec
		}
	}
	<-done
	if rows != totalRows {
		t.Errorf("rows = %d, want %d", rows, totalRows)
	}
	if trailer.Type != api.RecordTrailer || trailer.Rows != totalRows || trailer.Truncated {
		t.Errorf("trailer = %+v", trailer)
	}
	if trailer.Stats == nil || trailer.Stats.Changed() {
		t.Errorf("trailer stats = %+v", trailer.Stats)
	}
}

func TestV1CypherNDJSONTruncation(t *testing.T) {
	s := newCustomServer(t, func(c *Config) { c.CypherRowLimit = 5 })
	rec := postWith(t, s.Handler(), "/v1/cypher",
		`{"query": "UNWIND range(1, 100) AS x RETURN x"}`, "application/json", "application/x-ndjson")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Content-Type"); got != api.MediaNDJSON {
		t.Errorf("Content-Type = %q", got)
	}
	var rows int
	var trailer *api.StreamRecord
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		var r api.StreamRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		switch r.Type {
		case api.RecordRow:
			rows++
		case api.RecordTrailer:
			rec := r
			trailer = &rec
		}
	}
	if rows != 5 {
		t.Errorf("rows = %d, want 5", rows)
	}
	if trailer == nil || !trailer.Truncated || trailer.Rows != 5 {
		t.Errorf("trailer = %+v", trailer)
	}
}

// TestV1CypherNDJSONWriteErrorIsEnveloped pins the write contract of
// the NDJSON transport: a write query applies its writes before the
// response commits, so a failing write answers a clean 422 exec_error
// envelope, never a 200 with an error trailer.
func TestV1CypherNDJSONWriteErrorIsEnveloped(t *testing.T) {
	s, _ := newTestServer(t)
	rec := postWith(t, s.Handler(), "/v1/cypher",
		`{"query": "CREATE (a)-[:R]-(b)"}`, "application/json", "application/x-ndjson")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d body = %s, want 422", rec.Code, rec.Body.String())
	}
	if env := decodeEnvelope(t, rec.Body.Bytes()); env.Code != api.CodeExecError {
		t.Fatalf("envelope = %+v, want code %s", env, api.CodeExecError)
	}
}

// TestV1CypherNDJSONWriteStats checks a successful NDJSON write query
// streams its rows and reports the write stats in the trailer.
func TestV1CypherNDJSONWriteStats(t *testing.T) {
	s, _ := newTestServer(t)
	rec := postWith(t, s.Handler(), "/v1/cypher",
		`{"query": "UNWIND range(1, 3) AS i CREATE (n:NDJSONWrite {i: i}) RETURN n.i"}`,
		"application/json", "application/x-ndjson")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
	}
	var rows int
	var trailer *api.StreamRecord
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		var r api.StreamRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		switch r.Type {
		case api.RecordRow:
			rows++
		case api.RecordTrailer:
			rec := r
			trailer = &rec
		}
	}
	if rows != 3 {
		t.Errorf("rows = %d, want 3", rows)
	}
	want := api.WriteStats{NodesCreated: 3, PropertiesSet: 3, LabelsAdded: 3}
	if trailer == nil || trailer.Error != nil || trailer.Stats == nil || *trailer.Stats != want {
		t.Fatalf("trailer = %+v, want stats %+v", trailer, want)
	}
}

// TestV1CypherNDJSONMidStreamError checks a failure after the 200 is
// committed arrives as a trailer error record rather than a truncated
// or silently-complete stream.
func TestV1CypherNDJSONMidStreamError(t *testing.T) {
	s := newCustomServer(t, func(c *Config) { c.CypherTimeout = 30 * time.Millisecond })
	rec := postWith(t, s.Handler(), "/v1/cypher",
		`{"query": "`+slowCrossJoin+`"}`, "application/json", "application/x-ndjson")
	if rec.Code != http.StatusOK {
		// The deadline may fire before the first byte, in which case the
		// clean enveloped 504 is also correct.
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("status = %d", rec.Code)
		}
		return
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var last api.StreamRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != api.RecordTrailer || last.Error == nil || last.Error.Code != api.CodeTimeout {
		t.Fatalf("trailer = %+v", last)
	}
}

func TestV1CypherPagination(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	query := "MATCH (a:AS) RETURN a.asn ORDER BY a.asn"

	// Reference: the whole result unpaginated.
	rec := postJSON(t, h, "/v1/cypher", api.CypherRequest{Query: query})
	var full api.CypherResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) < 10 {
		t.Fatalf("fixture too small: %d rows", len(full.Rows))
	}

	// Page through with page_size 7 and reassemble.
	var pages int
	var collected [][]any
	cursor := ""
	for {
		rec := postJSON(t, h, "/v1/cypher", api.CypherRequest{Query: query, PageSize: 7, Cursor: cursor})
		if rec.Code != http.StatusOK {
			t.Fatalf("page %d: status %d: %s", pages, rec.Code, rec.Body.String())
		}
		var page struct {
			Rows       [][]any `json:"rows"`
			NextCursor string  `json:"next_cursor"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		pages++
		collected = append(collected, page.Rows...)
		if page.NextCursor == "" {
			break
		}
		if len(page.Rows) != 7 {
			t.Fatalf("non-final page has %d rows", len(page.Rows))
		}
		cursor = page.NextCursor
	}
	if len(collected) != len(full.Rows) {
		t.Fatalf("pagination lost rows: %d vs %d", len(collected), len(full.Rows))
	}
	if pages < 2 {
		t.Fatalf("pages = %d, want multi-page", pages)
	}

	// A cursor minted for one query cannot drive another.
	rec = postJSON(t, h, "/v1/cypher", api.CypherRequest{Query: query + " LIMIT 9", Cursor: cursor, PageSize: 7})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("mismatched cursor: status = %d", rec.Code)
	}
	if detail := decodeEnvelope(t, rec.Body.Bytes()); detail.Code != api.CodeBadCursor {
		t.Errorf("code = %q", detail.Code)
	}

	// Garbage cursors are rejected.
	rec = postJSON(t, h, "/v1/cypher", api.CypherRequest{Query: query, Cursor: "garbage", PageSize: 7})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage cursor: status = %d", rec.Code)
	}

	// A write invalidates outstanding cursors: stale_cursor, 410.
	first := postJSON(t, h, "/v1/cypher", api.CypherRequest{Query: query, PageSize: 7})
	var firstPage api.CypherResponse
	if err := json.Unmarshal(first.Body.Bytes(), &firstPage); err != nil {
		t.Fatal(err)
	}
	if firstPage.NextCursor == "" {
		t.Fatal("no cursor to invalidate")
	}
	if rec := postJSON(t, h, "/v1/cypher", api.CypherRequest{Query: "CREATE (x:Scratch {name: 'bump'})"}); rec.Code != http.StatusOK {
		t.Fatalf("write failed: %s", rec.Body.String())
	}
	rec = postJSON(t, h, "/v1/cypher", api.CypherRequest{Query: query, Cursor: firstPage.NextCursor, PageSize: 7})
	if rec.Code != http.StatusGone {
		t.Fatalf("stale cursor: status = %d body = %s", rec.Code, rec.Body.String())
	}
	if detail := decodeEnvelope(t, rec.Body.Bytes()); detail.Code != api.CodeStaleCursor {
		t.Errorf("code = %q", detail.Code)
	}
}

// TestV1PaginationRejectsWrites: pagination re-executes the query for
// every page, so a write query must be rejected before anything runs —
// otherwise each page request (and each restart after the write's own
// version bump staled the cursor) would apply the writes again.
func TestV1PaginationRejectsWrites(t *testing.T) {
	s, _ := newTestServer(t)
	before := s.cfg.Pipeline.Graph().Version()
	for _, q := range []string{
		"CREATE (x:Scratch {name: 'paged'})",
		"MATCH (a:AS) CREATE (l:Log {asn: a.asn}) RETURN a.asn",
	} {
		rec := postJSON(t, s.Handler(), "/v1/cypher", api.CypherRequest{Query: q, PageSize: 5})
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%q: status = %d body = %s, want 400", q, rec.Code, rec.Body.String())
			continue
		}
		if detail := decodeEnvelope(t, rec.Body.Bytes()); detail.Code != api.CodeBadRequest {
			t.Errorf("%q: code = %q", q, detail.Code)
		}
	}
	if after := s.cfg.Pipeline.Graph().Version(); after != before {
		t.Errorf("graph version moved %d -> %d: a rejected paginated write still executed", before, after)
	}
	// The same write without pagination still works.
	if rec := postJSON(t, s.Handler(), "/v1/cypher", api.CypherRequest{Query: "CREATE (x:Scratch {name: 'plain'})"}); rec.Code != http.StatusOK {
		t.Errorf("unpaginated write: status = %d body = %s", rec.Code, rec.Body.String())
	}
}

// TestV1PaginationBoundedByServerRowCap: the CypherRowLimit cap
// applies to paginated results exactly as to the other transports —
// pages window into the first CypherRowLimit rows, the final page
// reports truncated, and no cursor is minted past the cap.
func TestV1PaginationBoundedByServerRowCap(t *testing.T) {
	s := newCustomServer(t, func(c *Config) { c.CypherRowLimit = 10 })
	var rows int
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 10 {
			t.Fatal("pagination did not terminate under the row cap")
		}
		rec := postJSON(t, s.Handler(), "/v1/cypher", api.CypherRequest{
			Query: "UNWIND range(1, 100) AS x RETURN x", PageSize: 4, Cursor: cursor,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("page %d: status = %d body = %s", pages, rec.Code, rec.Body.String())
		}
		var page api.CypherResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		rows += len(page.Rows)
		if page.NextCursor == "" {
			if !page.Truncated {
				t.Error("final page under the cap not marked truncated")
			}
			break
		}
		cursor = page.NextCursor
	}
	if rows != 10 {
		t.Errorf("paged rows = %d, want the 10-row cap", rows)
	}
}

// TestV1PaginationSurfacesEngineTruncation: a pipeline-level row cap
// (Config.ExecOptions.RowLimit) that ends a paginated walk early must
// mark the final page truncated, not present it as the complete
// result.
func TestV1PaginationSurfacesEngineTruncation(t *testing.T) {
	g, _, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{
		Graph:       g,
		Model:       llm.NewSim(llm.DefaultSimConfig(core.BuildLexicon(g))),
		Metrics:     metrics.NewRegistry(),
		ExecOptions: cypher.Options{RowLimit: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, s.Handler(), "/v1/cypher", api.CypherRequest{
		Query: "MATCH (a:AS) RETURN a.asn ORDER BY a.asn", PageSize: 10,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var page api.CypherResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Rows) != 5 || !page.Truncated || page.NextCursor != "" {
		t.Fatalf("rows=%d truncated=%v next=%q, want 5/true/empty",
			len(page.Rows), page.Truncated, page.NextCursor)
	}
}

func TestV1AskBatch(t *testing.T) {
	s, w := newTestServer(t)
	questions := []string{
		fmt.Sprintf("What is the name of AS%d?", w.ASes[0].ASN),
		fmt.Sprintf("What is the name of AS%d?", w.ASes[1].ASN),
		fmt.Sprintf("What is the name of AS%d?", w.ASes[2].ASN),
	}
	rec := postJSON(t, s.Handler(), "/v1/ask/batch", api.AskBatchRequest{Questions: questions, Workers: 2})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %s", rec.Code, rec.Body.String())
	}
	var resp api.AskBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	for i, res := range resp.Results {
		if res.Question != questions[i] {
			t.Errorf("result %d out of order: %q", i, res.Question)
		}
		if res.Error != nil {
			t.Errorf("result %d failed: %+v", i, res.Error)
			continue
		}
		if !strings.Contains(res.Answer.Answer, w.ASes[i].Name) {
			t.Errorf("result %d answer %q missing %q", i, res.Answer.Answer, w.ASes[i].Name)
		}
	}

	// Validation.
	for _, body := range []any{
		api.AskBatchRequest{},
		api.AskBatchRequest{Questions: []string{""}},
		api.AskBatchRequest{Questions: make([]string, 100)},
	} {
		rec := postJSON(t, s.Handler(), "/v1/ask/batch", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("batch %+v: status = %d, want 400", body, rec.Code)
		}
	}
}

func TestV1AskNDJSON(t *testing.T) {
	s, w := newTestServer(t)
	body := fmt.Sprintf(`{"question": "What is the name of AS%d?"}`, w.ASes[0].ASN)
	rec := postWith(t, s.Handler(), "/v1/ask", body, "application/json", "application/x-ndjson")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream = %q", rec.Body.String())
	}
	var trailer api.StreamRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatal(err)
	}
	if trailer.Type != api.RecordTrailer || trailer.Ask == nil {
		t.Fatalf("trailer = %+v", trailer)
	}
	if !strings.Contains(trailer.Ask.Answer, w.ASes[0].Name) {
		t.Errorf("answer = %q", trailer.Ask.Answer)
	}
	if trailer.Ask.Rows != nil {
		t.Error("trailer duplicates rows already streamed")
	}
}

func TestV1ExplainEndpoint(t *testing.T) {
	s, w := newTestServer(t)
	rec := postJSON(t, s.Handler(), "/v1/explain", api.CypherRequest{
		Query: fmt.Sprintf("MATCH (a:AS {asn: %d}) RETURN a.asn", w.ASes[0].ASN),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp api.ExplainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Plan, "property index (AS, asn)") {
		t.Errorf("plan = %q", resp.Plan)
	}
	rec = postJSON(t, s.Handler(), "/v1/explain", api.CypherRequest{Query: "BROKEN"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("broken query status = %d", rec.Code)
	}
	if detail := decodeEnvelope(t, rec.Body.Bytes()); detail.Code != api.CodeParseError {
		t.Errorf("code = %q", detail.Code)
	}
}

func TestPerRouteMetrics(t *testing.T) {
	s := newCustomServer(t, nil)
	h := s.Handler()
	postWith(t, h, "/v1/cypher", `{"query": "RETURN 1"}`, "application/json", "")
	postWith(t, h, "/v1/explain", `{"query": "RETURN 1"}`, "application/json", "")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))

	snap := s.reg.Snapshot()
	for _, name := range []string{
		"server.requests{route=POST /v1/cypher,status=200}",
		"server.requests{route=POST /v1/explain,status=200}",
		"server.requests{route=/,status=404}",
		"server.latency{route=POST /v1/cypher}.count",
		"server.latency{route=POST /v1/cypher}.sum_us",
		"server.latency{route=POST /v1/cypher}.max_us",
	} {
		if snap[name] < 1 {
			t.Errorf("%s = %d, want >= 1 (snapshot: %v)", name, snap[name], snap)
		}
	}
}

func TestBenchmarkStyleStreamVsJSON(t *testing.T) {
	// Sanity companion to BenchmarkStreamHTTP (client package): the
	// NDJSON body is well-formed line JSON for a non-trivial result.
	s, _ := newTestServer(t)
	rec := postWith(t, s.Handler(), "/v1/cypher",
		`{"query": "UNWIND range(1, 500) AS x RETURN x, x * 2"}`, "application/json", "application/x-ndjson")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 502 { // header + 500 rows + trailer
		t.Fatalf("lines = %d", len(lines))
	}
	var bad int
	for _, l := range lines {
		if !json.Valid([]byte(l)) {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d invalid NDJSON lines", bad)
	}
}
