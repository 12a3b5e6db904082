package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"chatiyp/internal/agent"
	"chatiyp/internal/api"
	"chatiyp/internal/graph"
)

// This file adapts internal/agent onto POST /v1/tools: one JSON-RPC
// 2.0 request per POST, answered as a single JSON body or — when the
// client negotiates application/x-ndjson on a tools/call — as a stream
// of JSON-RPC notifications (stream/header, stream/row) followed by
// the final response object on the last line.
//
// Error layering: body/transport problems (bad JSON, overload,
// shutdown) and session lifecycle/budget failures answer an HTTP
// status with the uniform envelope, so generic clients and the SDK's
// retry machinery work unchanged; everything at the tool/method level
// answers HTTP 200 with a JSON-RPC error whose data carries the same
// stable ErrorDetail.

// handleTools is POST /v1/tools.
func (s *Server) handleTools(w http.ResponseWriter, r *http.Request) {
	mode, ok := s.negotiate(w, r)
	if !ok {
		return
	}
	var req api.ToolRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.JSONRPC != api.JSONRPCVersion {
		s.writeRPCError(w, mode, req.ID, &api.RPCError{
			Code:    api.RPCInvalidRequest,
			Message: fmt.Sprintf("jsonrpc must be %q", api.JSONRPCVersion),
			Data:    &api.ErrorDetail{Code: api.CodeBadRequest, Message: "unsupported JSON-RPC version", RequestID: requestID(r)},
		})
		return
	}
	switch req.Method {
	case api.MethodToolsList:
		s.writeRPCResult(w, mode, req.ID, api.ToolsListResult{Tools: s.agent.Tools()})
	case api.MethodSessionCreate:
		var p api.SessionCreateParams
		if !s.decodeRPCParams(w, mode, req.ID, req.Params, &p, r) {
			return
		}
		s.writeRPCResult(w, mode, req.ID, s.agent.CreateSession(p.TTLSeconds))
	case api.MethodSessionGet:
		var p api.SessionGetParams
		if !s.decodeRPCParams(w, mode, req.ID, req.Params, &p, r) {
			return
		}
		info, err := s.agent.SessionInfo(p.SessionID)
		if err != nil {
			s.writeToolFailure(w, r, mode, req.ID, err, nil)
			return
		}
		s.writeRPCResult(w, mode, req.ID, info)
	case api.MethodSessionDelete:
		var p api.SessionDeleteParams
		if !s.decodeRPCParams(w, mode, req.ID, req.Params, &p, r) {
			return
		}
		if err := s.agent.DeleteSession(p.SessionID); err != nil {
			s.writeToolFailure(w, r, mode, req.ID, err, nil)
			return
		}
		s.writeRPCResult(w, mode, req.ID, map[string]bool{"deleted": true})
	case api.MethodToolsCall:
		s.handleToolCall(w, r, mode, req)
	default:
		s.writeRPCError(w, mode, req.ID, &api.RPCError{
			Code:    api.RPCMethodNotFound,
			Message: fmt.Sprintf("unknown method %q", req.Method),
			Data:    &api.ErrorDetail{Code: api.CodeNotFound, Message: "unknown method " + req.Method, RequestID: requestID(r)},
		})
	}
}

// handleToolCall runs one tools/call under the shared scheduler (a
// tool call is an expensive request like /v1/ask and /v1/cypher; the
// per-session budgets the agent enforces layer on top of, not instead
// of, global admission).
func (s *Server) handleToolCall(w http.ResponseWriter, r *http.Request, mode string, req api.ToolRequest) {
	var p api.ToolCallParams
	if !s.decodeRPCParams(w, mode, req.ID, req.Params, &p, r) {
		return
	}
	if p.Name == "" {
		s.writeRPCError(w, mode, req.ID, &api.RPCError{
			Code:    api.RPCInvalidParams,
			Message: "params.name is required",
			Data:    &api.ErrorDetail{Code: api.CodeBadRequest, Message: "params.name is required", RequestID: requestID(r)},
		})
		return
	}
	timeout := s.cfg.ToolTimeout
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	release, ok := s.admit(ctx, w, r, timeout)
	if !ok {
		return
	}
	defer release()

	if mode != api.MediaNDJSON {
		res, err := s.agent.Call(ctx, p)
		if err != nil {
			s.writeToolFailure(w, r, mode, req.ID, err, nil)
			return
		}
		s.writeRPCResult(w, mode, req.ID, res)
		return
	}

	deadline, _ := ctx.Deadline()
	sink := &rpcStream{w: w, rc: http.NewResponseController(w), deadline: deadline}
	defer sink.close()
	res, err := s.agent.CallStream(ctx, p, sink)
	if err != nil {
		s.writeToolFailure(w, r, mode, req.ID, err, sink)
		return
	}
	raw, merr := json.Marshal(res)
	if merr != nil {
		s.writeToolFailure(w, r, mode, req.ID, merr, sink)
		return
	}
	sink.finish(api.ToolResponse{JSONRPC: api.JSONRPCVersion, ID: req.ID, Result: raw})
}

// decodeRPCParams unmarshals method params strictly; a failure answers
// an in-band invalid-params error and reports false.
func (s *Server) decodeRPCParams(w http.ResponseWriter, mode string, id, raw json.RawMessage, v any, r *http.Request) bool {
	if len(raw) == 0 {
		return true
	}
	if err := json.Unmarshal(raw, v); err != nil {
		s.writeRPCError(w, mode, id, &api.RPCError{
			Code:    api.RPCInvalidParams,
			Message: "invalid params: " + err.Error(),
			Data:    &api.ErrorDetail{Code: api.CodeBadRequest, Message: "invalid params: " + err.Error(), RequestID: requestID(r)},
		})
		return false
	}
	return true
}

// writeToolFailure maps a failed agent operation onto the wire.
// Session lifecycle and budget failures answer HTTP statuses (404
// unknown, 410 expired, 429 + Retry-After for budgets); every other
// failure is an in-band JSON-RPC error. When a stream already
// committed its 200 (sink started), the error always goes in-band as
// the stream's final line.
func (s *Server) writeToolFailure(w http.ResponseWriter, r *http.Request, mode string, id json.RawMessage, err error, sink *rpcStream) {
	streaming := sink != nil && sink.started
	var ae *agent.Error
	if errors.As(err, &ae) {
		if !streaming {
			switch ae.Code {
			case api.CodeSessionNotFound:
				s.httpError(w, r, http.StatusNotFound, ae.Code, ae.Message, 0)
				return
			case api.CodeSessionExpired:
				s.httpError(w, r, http.StatusGone, ae.Code, ae.Message, 0)
				return
			case api.CodeSessionBudget:
				retry := 0
				if ae.RetryAfter > 0 {
					retry = int(math.Ceil(ae.RetryAfter.Seconds()))
					if retry < 1 {
						retry = 1
					}
				}
				s.reg.Counter("agent.session_rejects").Inc()
				s.httpError(w, r, http.StatusTooManyRequests, ae.Code, ae.Message, retry)
				return
			}
		}
		rpcCode := ae.RPC
		if rpcCode == 0 {
			rpcCode = api.RPCToolError
		}
		rpcErr := &api.RPCError{
			Code:    rpcCode,
			Message: ae.Message,
			Data: &api.ErrorDetail{
				Code: ae.Code, Message: ae.Message,
				RetryAfter: int(math.Ceil(ae.RetryAfter.Seconds())),
				RequestID:  requestID(r),
			},
		}
		if streaming {
			sink.finish(api.ToolResponse{JSONRPC: api.JSONRPCVersion, ID: id, Error: rpcErr})
			return
		}
		s.writeRPCError(w, mode, id, rpcErr)
		return
	}
	rpcErr := &api.RPCError{
		Code:    api.RPCInternalError,
		Message: err.Error(),
		Data:    &api.ErrorDetail{Code: api.CodeInternal, Message: err.Error(), RequestID: requestID(r)},
	}
	if streaming {
		sink.finish(api.ToolResponse{JSONRPC: api.JSONRPCVersion, ID: id, Error: rpcErr})
		return
	}
	s.writeRPCError(w, mode, id, rpcErr)
}

// writeRPCResult writes a successful single-object JSON-RPC response.
// In NDJSON mode the one response object is the stream's only line, so
// non-streaming methods stay consistent under either negotiation.
func (s *Server) writeRPCResult(w http.ResponseWriter, mode string, id json.RawMessage, result any) {
	raw, err := json.Marshal(result)
	if err != nil {
		s.writeRPCError(w, mode, id, &api.RPCError{Code: api.RPCInternalError, Message: err.Error()})
		return
	}
	s.writeRPCResponse(w, mode, api.ToolResponse{JSONRPC: api.JSONRPCVersion, ID: id, Result: raw})
}

// writeRPCError writes an in-band JSON-RPC error (HTTP 200).
func (s *Server) writeRPCError(w http.ResponseWriter, mode string, id json.RawMessage, rpcErr *api.RPCError) {
	s.writeRPCResponse(w, mode, api.ToolResponse{JSONRPC: api.JSONRPCVersion, ID: id, Error: rpcErr})
}

func (s *Server) writeRPCResponse(w http.ResponseWriter, mode string, resp api.ToolResponse) {
	ct := api.MediaJSON
	if mode == api.MediaNDJSON {
		ct = api.MediaNDJSON
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(resp)
}

// rpcStream frames a streaming tools/call response: notifications for
// the header and each row, the final ToolResponse on the last line.
// The 200 commits lazily at the first write, so failures before any
// row can still answer a clean HTTP status. Flushing follows the
// ndjsonWriter policy: header and first row immediately, then every
// streamFlushInterval rows.
type rpcStream struct {
	w        http.ResponseWriter
	rc       *http.ResponseController
	enc      *json.Encoder
	deadline time.Time
	started  bool
	dead     bool
	count    int
}

func (o *rpcStream) start() {
	if o.started {
		return
	}
	o.started = true
	o.w.Header().Set("Content-Type", api.MediaNDJSON)
	o.w.Header().Set("X-Accel-Buffering", "no")
	if !o.deadline.IsZero() {
		_ = o.rc.SetWriteDeadline(o.deadline)
	}
	o.w.WriteHeader(http.StatusOK)
	o.enc = json.NewEncoder(o.w)
}

func (o *rpcStream) Header(cols []string) bool {
	o.start()
	if o.dead {
		return false
	}
	if cols == nil {
		cols = []string{}
	}
	err := o.enc.Encode(api.ToolStreamNotification{
		JSONRPC: api.JSONRPCVersion, Method: api.MethodStreamHeader,
		Params: api.ToolStreamParams{Columns: cols},
	})
	if err != nil {
		o.dead = true
		return false
	}
	_ = o.rc.Flush()
	return true
}

func (o *rpcStream) Row(row []graph.Value) bool {
	if o.dead {
		return false
	}
	err := o.enc.Encode(api.ToolStreamNotification{
		JSONRPC: api.JSONRPCVersion, Method: api.MethodStreamRow,
		Params: api.ToolStreamParams{Row: row},
	})
	if err != nil {
		o.dead = true
		return false
	}
	o.count++
	if o.count == 1 || o.count%streamFlushInterval == 0 {
		_ = o.rc.Flush()
	}
	return true
}

// finish writes the final response line (committing the 200 first if
// nothing streamed) and flushes.
func (o *rpcStream) finish(resp api.ToolResponse) {
	o.start()
	if o.dead {
		return
	}
	_ = o.enc.Encode(resp)
	_ = o.rc.Flush()
}

// close clears the stream's write deadline (see ndjsonWriter.close).
func (o *rpcStream) close() {
	if o.started {
		_ = o.rc.SetWriteDeadline(time.Time{})
	}
}
