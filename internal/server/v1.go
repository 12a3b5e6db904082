package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"chatiyp/internal/api"
	"chatiyp/internal/core"
	"chatiyp/internal/cypher"
	"chatiyp/internal/graph"
	"chatiyp/internal/resilience"
)

// This file implements the ask, batch, cypher and explain handlers:
// content negotiation (JSON vs streaming NDJSON), cursor pagination,
// and the mapping of execution failures onto the error envelope.

// streamFlushInterval is how many NDJSON row records may buffer
// between explicit flushes. The header and first row always flush
// immediately (first-byte latency is the point of the streaming
// transport); after that, flushing every row would pay one syscall per
// row on large results.
const streamFlushInterval = 64

// batchWorkersCap bounds the per-batch worker pool a /v1/ask/batch
// request may ask for: the batch holds one scheduler slot, so its
// internal concurrency must stay modest.
const batchWorkersCap = 8

// acceptable parses an Accept header into the set of media ranges the
// client will take. q-values are honored to the extent negotiation
// needs them: q=0 is an explicit refusal (RFC 9110 §12.4.2) and drops
// the entry from the set; any other q means acceptable.
func acceptable(accept string) map[string]bool {
	set := map[string]bool{}
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		refused := false
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			for _, param := range strings.Split(mt[i+1:], ";") {
				k, v, ok := strings.Cut(strings.TrimSpace(param), "=")
				if !ok || !strings.EqualFold(strings.TrimSpace(k), "q") {
					continue
				}
				if q, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil && q == 0 {
					refused = true
				}
			}
			mt = strings.TrimSpace(mt[:i])
		}
		if !refused {
			set[strings.ToLower(mt)] = true
		}
	}
	return set
}

// acceptsJSON reports whether a parsed Accept set admits a JSON body.
func acceptsJSON(acc map[string]bool) bool {
	return acc[api.MediaJSON] || acc["application/*"] || acc["*/*"] || acc["text/json"]
}

// negotiate picks the response encoding for a request from its
// Accept header: NDJSON when application/x-ndjson is listed with a
// non-zero q (an explicit opt-in always wins), JSON for json,
// application/*, */* or an absent header, and failure — 406 with the
// envelope — when the client accepts neither.
func (s *Server) negotiate(w http.ResponseWriter, r *http.Request) (string, bool) {
	accept := r.Header.Get("Accept")
	if strings.TrimSpace(accept) == "" {
		return api.MediaJSON, true
	}
	acc := acceptable(accept)
	switch {
	case acc[api.MediaNDJSON]:
		return api.MediaNDJSON, true
	case acceptsJSON(acc):
		return api.MediaJSON, true
	}
	s.httpError(w, r, http.StatusNotAcceptable, api.CodeNotAcceptable,
		fmt.Sprintf("no acceptable representation: this endpoint produces %s and %s", api.MediaJSON, api.MediaNDJSON), 0)
	return "", false
}

// negotiateJSON guards the JSON-only endpoints (/v1/ask/batch,
// /v1/explain): their sole representation is application/json, so an
// Accept header that refuses it — e.g. one listing only
// application/x-ndjson — answers 406 instead of a body the client said
// it would not take, keeping the 406 contract consistent across the
// surface.
func (s *Server) negotiateJSON(w http.ResponseWriter, r *http.Request) bool {
	accept := r.Header.Get("Accept")
	if strings.TrimSpace(accept) == "" || acceptsJSON(acceptable(accept)) {
		return true
	}
	s.httpError(w, r, http.StatusNotAcceptable, api.CodeNotAcceptable,
		fmt.Sprintf("no acceptable representation: this endpoint produces %s only", api.MediaJSON), 0)
	return false
}

// writeExecError maps an execution failure onto the envelope:
// deadline expiry is 504/timeout, cancellation 499/canceled, Cypher
// syntax errors 400/parse_error, fail-fast model-layer rejections
// (breaker open, bulkhead full) 503/unavailable + Retry-After, and
// anything else the caller's fallback code and status (exec_error 422
// for Cypher, internal 500 for ask).
func (s *Server) writeExecError(w http.ResponseWriter, r *http.Request, err error, timeout time.Duration, fallbackCode string, fallbackStatus int) {
	status, code, msg, retry := s.classifyExecError(err, timeout, fallbackCode, fallbackStatus)
	s.httpError(w, r, status, code, msg, retry)
}

// classifyExecError maps an execution failure to (status, code,
// message, retry-after seconds) and bumps the matching server counter.
func (s *Server) classifyExecError(err error, timeout time.Duration, fallbackCode string, fallbackStatus int) (int, string, string, int) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.reg.Counter("server.deadline_exceeded").Inc()
		return http.StatusGatewayTimeout, api.CodeTimeout,
			fmt.Sprintf("execution exceeded the %s deadline", timeout), 0
	case errors.Is(err, cypher.ErrCanceled), errors.Is(err, context.Canceled):
		s.reg.Counter("server.exec_canceled").Inc()
		return api.StatusClientClosedRequest, api.CodeCanceled, "execution canceled: " + err.Error(), 0
	case resilience.IsUnavailable(err):
		// The model layer rejected fast (circuit open or bulkhead
		// saturated) and degradation could not absorb it: a clean 503
		// with backoff, not a 500.
		s.reg.Counter("server.llm_unavailable").Inc()
		return http.StatusServiceUnavailable, api.CodeUnavailable,
			"LLM backend unavailable: " + err.Error(), s.retrySecs()
	}
	var syntaxErr *cypher.SyntaxError
	if errors.As(err, &syntaxErr) {
		return http.StatusBadRequest, api.CodeParseError, err.Error(), 0
	}
	return fallbackStatus, fallbackCode, err.Error(), 0
}

// wireStats converts engine write statistics to the wire shape.
func wireStats(s cypher.WriteStats) api.WriteStats {
	return api.WriteStats{
		NodesCreated:         s.NodesCreated,
		NodesDeleted:         s.NodesDeleted,
		RelationshipsCreated: s.RelationshipsCreated,
		RelationshipsDeleted: s.RelationshipsDeleted,
		PropertiesSet:        s.PropertiesSet,
		LabelsAdded:          s.LabelsAdded,
		LabelsRemoved:        s.LabelsRemoved,
	}
}

// wireAnswer converts a pipeline answer to the wire shape.
func wireAnswer(ans *core.Answer) *api.AskResponse {
	resp := &api.AskResponse{
		Question:       ans.Question,
		Answer:         ans.Text,
		Cypher:         ans.Cypher,
		CypherError:    ans.CypherError,
		Columns:        ans.Columns,
		Rows:           ans.Rows,
		Fallback:       ans.UsedVectorFallback,
		CacheHit:       ans.CacheHit,
		Degraded:       ans.Degraded,
		DegradedReason: ans.DegradedReason,
		DurationMS:     float64(ans.Duration.Microseconds()) / 1000,
	}
	for _, c := range ans.Context {
		resp.Context = append(resp.Context, api.ContextRecord{Source: c.Source, Text: c.Text, Score: c.Score})
	}
	for _, t := range ans.Trace {
		resp.Trace = append(resp.Trace, api.TraceEntry{
			Stage: t.Stage, Detail: t.Detail, Err: t.Err,
			DurationMS: float64(t.Duration.Microseconds()) / 1000,
		})
	}
	return resp
}

// handleAsk is POST /v1/ask: the full RAG pipeline, answering JSON
// by default and NDJSON (header, result rows, trailer carrying the
// answer) when negotiated.
func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	mode, ok := s.negotiate(w, r)
	if !ok {
		return
	}
	var req api.AskRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	q := strings.TrimSpace(req.Question)
	if q == "" {
		s.httpError(w, r, http.StatusBadRequest, api.CodeBadRequest, "question is required", 0)
		return
	}
	if len(q) > s.cfg.MaxQuestionLen {
		s.httpError(w, r, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Sprintf("question exceeds %d bytes", s.cfg.MaxQuestionLen), 0)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.AskTimeout)
	defer cancel()
	release, ok := s.admit(ctx, w, r, s.cfg.AskTimeout)
	if !ok {
		return
	}
	defer release()
	ans, err := s.cfg.Pipeline.Ask(ctx, q)
	if err != nil {
		s.writeExecError(w, r, err, s.cfg.AskTimeout, api.CodeInternal, http.StatusInternalServerError)
		return
	}
	resp := wireAnswer(ans)
	if mode == api.MediaJSON {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// NDJSON: the pipeline has already materialized the answer, so
	// this is pure framing — but the framing is identical to
	// /v1/cypher's, so one client row-reader serves both endpoints.
	rows, cols := resp.Rows, resp.Columns
	resp.Rows, resp.Columns = nil, nil
	st := s.startStream(w, cols, time.Now().Add(s.cfg.AskTimeout))
	defer st.close()
	for _, row := range rows {
		if !st.row(row) {
			return
		}
	}
	st.trailer(api.StreamRecord{Ask: resp})
}

// handleAskBatch is POST /v1/ask/batch: core.Pipeline.AskBatch over
// the wire. The batch occupies one scheduler slot and runs its
// questions on a small internal worker pool, answering one result per
// question in input order (per-question failures carry their own
// ErrorDetail; the batch itself still answers 200).
func (s *Server) handleAskBatch(w http.ResponseWriter, r *http.Request) {
	if !s.negotiateJSON(w, r) {
		return
	}
	var req api.AskBatchRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Questions) == 0 {
		s.httpError(w, r, http.StatusBadRequest, api.CodeBadRequest, "questions is required", 0)
		return
	}
	if len(req.Questions) > s.cfg.MaxBatch {
		s.httpError(w, r, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Sprintf("batch exceeds %d questions", s.cfg.MaxBatch), 0)
		return
	}
	for i, q := range req.Questions {
		q = strings.TrimSpace(q)
		if q == "" {
			s.httpError(w, r, http.StatusBadRequest, api.CodeBadRequest,
				fmt.Sprintf("questions[%d] is empty", i), 0)
			return
		}
		if len(q) > s.cfg.MaxQuestionLen {
			s.httpError(w, r, http.StatusBadRequest, api.CodeBadRequest,
				fmt.Sprintf("questions[%d] exceeds %d bytes", i, s.cfg.MaxQuestionLen), 0)
			return
		}
		req.Questions[i] = q
	}
	workers := req.Workers
	switch {
	case workers <= 0:
		workers = 4
	case workers > batchWorkersCap:
		workers = batchWorkersCap
	}
	// The whole batch shares one AskTimeout budget: a batch is one
	// admission unit, and letting it scale its deadline with its length
	// would let clients buy unbounded slot time by batching.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.AskTimeout)
	defer cancel()
	release, ok := s.admit(ctx, w, r, s.cfg.AskTimeout)
	if !ok {
		return
	}
	defer release()
	out := s.cfg.Pipeline.AskBatch(ctx, req.Questions, workers)
	resp := api.AskBatchResponse{Results: make([]api.AskBatchResult, len(out))}
	for i, ba := range out {
		res := api.AskBatchResult{Question: ba.Question}
		switch {
		case ba.Err != nil:
			_, code, msg, retry := s.classifyExecError(ba.Err, s.cfg.AskTimeout, api.CodeInternal, http.StatusInternalServerError)
			res.Error = &api.ErrorDetail{Code: code, Message: msg, RetryAfter: retry, RequestID: requestID(r)}
		default:
			res.Answer = wireAnswer(ba.Answer)
		}
		resp.Results[i] = res
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCypher is POST /v1/cypher: raw Cypher with three transports.
// NDJSON streams rows off the pull-iterator pipeline as the scan
// produces them; JSON without pagination materializes one body under
// the server row cap (today's behavior); JSON with cursor/page_size
// pages through the result with an opaque cursor validated against the
// graph version.
func (s *Server) handleCypher(w http.ResponseWriter, r *http.Request) {
	mode, ok := s.negotiate(w, r)
	if !ok {
		return
	}
	req, ok := s.decodeCypherRequest(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.CypherTimeout)
	defer cancel()
	release, ok := s.admit(ctx, w, r, s.cfg.CypherTimeout)
	if !ok {
		return
	}
	defer release()
	switch {
	case mode == api.MediaNDJSON:
		s.streamCypher(ctx, w, r, req)
	case req.Cursor != "" || req.PageSize > 0:
		s.pageCypher(ctx, w, r, req)
	default:
		res, err := s.cfg.Pipeline.QueryLimitedContext(ctx, req.Query, req.Params, s.serverRowLimit())
		if err != nil {
			s.writeExecError(w, r, err, s.cfg.CypherTimeout, api.CodeExecError, http.StatusUnprocessableEntity)
			return
		}
		writeJSON(w, http.StatusOK, api.CypherResponse{
			Columns: res.Columns, Rows: res.Rows, Stats: wireStats(res.Stats), Truncated: res.Truncated,
		})
	}
}

// streamCypher runs the NDJSON transport: plan-time failures still
// answer a clean enveloped status, and from the first byte on, rows go
// out as the operator pipeline yields them — first-byte latency does
// not scale with result size. A failure after the 200 is committed
// arrives as the trailer's error record.
func (s *Server) streamCypher(ctx context.Context, w http.ResponseWriter, r *http.Request, req *api.CypherRequest) {
	started := time.Now()
	st, err := s.cfg.Pipeline.QueryStreamContext(ctx, req.Query, req.Params, s.serverRowLimit())
	if err != nil {
		s.writeExecError(w, r, err, s.cfg.CypherTimeout, api.CodeExecError, http.StatusUnprocessableEntity)
		return
	}
	defer st.Close()
	deadline, _ := ctx.Deadline()
	out := s.startStream(w, st.Columns(), deadline)
	defer out.close()
	for {
		row, ok, err := st.Next()
		if err != nil {
			_, code, msg, _ := s.classifyExecError(err, s.cfg.CypherTimeout, api.CodeExecError, http.StatusUnprocessableEntity)
			out.trailer(api.StreamRecord{
				Error:      &api.ErrorDetail{Code: code, Message: msg, RequestID: requestID(r)},
				DurationMS: float64(time.Since(started).Microseconds()) / 1000,
			})
			return
		}
		if !ok {
			break
		}
		if !out.row(row) {
			return // client gone; Close flushes the row counters
		}
	}
	stats := wireStats(st.Stats())
	out.trailer(api.StreamRecord{
		Truncated:  st.Truncated(),
		Stats:      &stats,
		DurationMS: float64(time.Since(started).Microseconds()) / 1000,
	})
}

// pageCypher serves one JSON page of a cursor-paginated result. The
// cursor binds (query, params) by hash and the graph by version:
// replaying it against different text answers bad_cursor, and any
// write since the first page answers stale_cursor (410) — offsets into
// a shifted result set would silently skip or duplicate rows.
func (s *Server) pageCypher(ctx context.Context, w http.ResponseWriter, r *http.Request, req *api.CypherRequest) {
	// Pagination re-executes the query for every page, so write queries
	// are rejected up front: each page request (and each "restart from
	// the first page" after the write itself bumps the graph version)
	// would apply the writes again. This also keeps every paginated
	// execution on the streaming path, whose pull model bounds the
	// per-page work.
	parsed, err := cypher.Parse(req.Query)
	if err != nil {
		s.writeExecError(w, r, err, s.cfg.CypherTimeout, api.CodeExecError, http.StatusUnprocessableEntity)
		return
	}
	if !parsed.ReadOnly() {
		s.httpError(w, r, http.StatusBadRequest, api.CodeBadRequest,
			"cursor pagination supports read-only queries; run write queries without cursor/page_size", 0)
		return
	}
	pageSize := req.PageSize
	switch {
	case pageSize <= 0:
		pageSize = s.cfg.DefaultPageSize
	case pageSize > s.cfg.MaxPageSize:
		pageSize = s.cfg.MaxPageSize
	}
	hash := api.HashQuery(req.Query, req.Params)
	version := s.cfg.Pipeline.Graph().Version()
	offset := 0
	if req.Cursor != "" {
		cur, err := api.DecodeCursor(req.Cursor)
		if err != nil {
			s.httpError(w, r, http.StatusBadRequest, api.CodeBadCursor, "malformed cursor", 0)
			return
		}
		if cur.QueryHash != hash {
			s.httpError(w, r, http.StatusBadRequest, api.CodeBadCursor,
				"cursor was issued for a different query", 0)
			return
		}
		if cur.Version != version {
			s.httpError(w, r, http.StatusGone, api.CodeStaleCursor,
				"the graph changed since this cursor was issued; restart from the first page", 0)
			return
		}
		offset = cur.Offset
	}
	// The pull model bounds the work: the scan stops after
	// offset+pageSize+1 rows (the +1 probes for another page) no matter
	// how large the full result would be. DecodeCursor caps Offset at
	// api.MaxCursorOffset, so a forged cursor cannot overflow this bound
	// into a negative (never-entered) loop. The server row cap applies
	// to the underlying result exactly as in the other transports: a
	// page walk windows into the first CypherRowLimit rows and the
	// final page reports truncated — without the cap, a plan that falls
	// off the streaming path would materialize the entire result
	// uncapped on every page request.
	st, err := s.cfg.Pipeline.QueryStreamContext(ctx, req.Query, req.Params, s.serverRowLimit())
	if err != nil {
		s.writeExecError(w, r, err, s.cfg.CypherTimeout, api.CodeExecError, http.StatusUnprocessableEntity)
		return
	}
	defer st.Close()
	rows := [][]graph.Value{}
	next := ""
	for pulled := 0; pulled < offset+pageSize+1; pulled++ {
		row, ok, err := st.Next()
		if err != nil {
			s.writeExecError(w, r, err, s.cfg.CypherTimeout, api.CodeExecError, http.StatusUnprocessableEntity)
			return
		}
		if !ok {
			break
		}
		if pulled < offset {
			continue
		}
		if len(rows) == pageSize {
			next = api.EncodeCursor(api.Cursor{QueryHash: hash, Version: version, Offset: offset + pageSize})
			break
		}
		rows = append(rows, row)
	}
	writeJSON(w, http.StatusOK, api.CypherResponse{
		Columns: st.Columns(), Rows: rows, Stats: wireStats(st.Stats()),
		// A pipeline-level row cap (Config.ExecOptions.RowLimit) can end
		// the walk before the query's natural end; without this flag the
		// final page would present a truncated result as complete.
		Truncated:  st.Truncated(),
		NextCursor: next,
	})
}

// handleExplain is POST /v1/explain: the access plan without
// execution.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if !s.negotiateJSON(w, r) {
		return
	}
	req, ok := s.decodeCypherRequest(w, r)
	if !ok {
		return
	}
	plan, err := cypher.Explain(s.cfg.Pipeline.Graph(), req.Query, s.cfg.Pipeline.ExecOptions())
	if err != nil {
		var syntaxErr *cypher.SyntaxError
		code := api.CodeExecError
		if errors.As(err, &syntaxErr) {
			code = api.CodeParseError
		}
		s.httpError(w, r, http.StatusBadRequest, code, err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, api.ExplainResponse{Plan: plan})
}

// ndjsonWriter frames one NDJSON response: header first, then rows,
// then exactly one trailer. It flushes the header, the first row, and
// every streamFlushInterval-th row after that, so the first result
// byte reaches the client while the scan is still running without
// paying a flush per row on large results.
type ndjsonWriter struct {
	w     http.ResponseWriter
	rc    *http.ResponseController
	enc   *json.Encoder
	count int
	dead  bool
}

// startStream commits the 200, writes the header record, and returns
// the row/trailer writer. deadline bounds the whole response write: a
// client that opens a stream and stops reading would otherwise block
// the handler inside Write once the socket buffer fills — past any
// execution deadline, since the context only interrupts Next between
// writes — and hold its scheduler slot forever. Callers must defer
// close() so the deadline does not leak onto the next request of a
// keep-alive connection.
func (s *Server) startStream(w http.ResponseWriter, cols []string, deadline time.Time) *ndjsonWriter {
	w.Header().Set("Content-Type", api.MediaNDJSON)
	// Tell buffering reverse proxies not to defeat the streaming.
	w.Header().Set("X-Accel-Buffering", "no")
	rc := http.NewResponseController(w)
	if !deadline.IsZero() {
		// Best effort: recorders/pipes in tests don't support write
		// deadlines, and that's fine — real connections do.
		_ = rc.SetWriteDeadline(deadline)
	}
	w.WriteHeader(http.StatusOK)
	out := &ndjsonWriter{w: w, rc: rc, enc: json.NewEncoder(w)}
	if err := out.enc.Encode(api.StreamRecord{Type: api.RecordHeader, Columns: cols}); err != nil {
		out.dead = true
		return out
	}
	_ = out.rc.Flush()
	return out
}

// close clears the connection write deadline startStream installed, so
// it cannot outlive the response. Current Go's serve loop also clears
// the deadline after every request, but older releases only did so
// when Server.WriteTimeout was positive — there, the next request on a
// reused keep-alive connection inherited the stale deadline and, once
// it passed, every later write on that connection failed (an exceeded
// deadline cannot be extended). Clearing it here keeps the handler
// correct independent of the serve loop's internals.
func (o *ndjsonWriter) close() {
	_ = o.rc.SetWriteDeadline(time.Time{})
}

// row writes one row record; false means the client is gone and the
// caller should stop producing.
func (o *ndjsonWriter) row(row []graph.Value) bool {
	if o.dead {
		return false
	}
	if err := o.enc.Encode(api.StreamRecord{Type: api.RecordRow, Row: row}); err != nil {
		o.dead = true
		return false
	}
	o.count++
	if o.count == 1 || o.count%streamFlushInterval == 0 {
		_ = o.rc.Flush()
	}
	return true
}

// trailer writes the final record (Type and the row count are filled
// in) and flushes.
func (o *ndjsonWriter) trailer(rec api.StreamRecord) {
	if o.dead {
		return
	}
	rec.Type = api.RecordTrailer
	rec.Rows = o.count
	_ = o.enc.Encode(rec)
	_ = o.rc.Flush()
}
