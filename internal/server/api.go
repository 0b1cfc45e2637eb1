package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"distjoin"
	"distjoin/internal/qtrace"
)

// The v1 wire surface: request and response documents, the JSON error
// envelope, and one handler per route. Handlers translate between HTTP and
// the lifecycle verbs (createCursor, lease/draw/release, retire); none of
// them touches an engine directly.

// httpError is a JSON-rendered error with its HTTP status.
type httpError struct {
	Status int
	Msg    string
	Retry  bool // adds Retry-After: 1
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

func writeErr(w http.ResponseWriter, e *httpError) {
	w.Header().Set("Content-Type", "application/json")
	if e.Retry {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(e.Status)
	json.NewEncoder(w).Encode(errorBody{Error: e.Msg, Status: e.Status})
}

func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(doc)
}

func badRequest(msg string) *httpError {
	return &httpError{Status: http.StatusBadRequest, Msg: msg}
}

// QueryRequest is the POST /v1/query body. Zero-valued fields inherit the
// server's BaseOptions template, so a minimal request is just
// {"kind":"join","index1":"a","index2":"b"}.
type QueryRequest struct {
	// Kind selects the operation: join, semijoin, knn, clustering.
	Kind   string `json:"kind"`
	Index1 string `json:"index1"`
	Index2 string `json:"index2"`
	// K is the neighbours-per-object count of a knn cursor (default 1).
	K int `json:"k,omitempty"`
	// Filter names the semi-join filtering strategy: outside, inside1,
	// inside2, local, globalnodes, globalall (default globalall).
	Filter string `json:"filter,omitempty"`
	// MaxPairs bounds the result (STOP AFTER, §2.2.4 estimation).
	MaxPairs int `json:"max_pairs,omitempty"`
	// MinDist / MaxDist restrict the reported distance range.
	MinDist float64 `json:"min_dist,omitempty"`
	MaxDist float64 `json:"max_dist,omitempty"`
	// Metric: euclidean (default), manhattan, chessboard.
	Metric string `json:"metric,omitempty"`
	// Queue: memory or hybrid.
	Queue string `json:"queue,omitempty"`
	// HybridDT is the hybrid queue's distance increment (0: adaptive).
	HybridDT float64 `json:"hybrid_dt,omitempty"`
	// Traversal: even (default), basic, simultaneous.
	Traversal string `json:"traversal,omitempty"`
	// OmitEqualIDs drops identity pairs (self joins).
	OmitEqualIDs bool `json:"omit_equal_ids,omitempty"`
}

// CreateResponse answers a successful POST /v1/query.
type CreateResponse struct {
	Cursor    string `json:"cursor"`
	QueryID   string `json:"query_id"`
	Kind      string `json:"kind"`
	Index1    string `json:"index1"`
	Index2    string `json:"index2"`
	ExpiresAt string `json:"expires_at"`
	// TraceParent is the W3C context of the cursor's query span — a child
	// of the traceparent the request carried, or a fresh trace root. Echoed
	// in the traceparent response header too, of this response and of
	// every pull, so the whole session answers in one trace.
	TraceParent string `json:"traceparent,omitempty"`
}

// PairJSON is one result pair on the wire.
type PairJSON struct {
	Obj1 uint64  `json:"obj1"`
	Obj2 uint64  `json:"obj2"`
	Dist float64 `json:"dist"`
}

// NextResponse answers GET /v1/cursor/{id}/next.
type NextResponse struct {
	Cursor   string     `json:"cursor"`
	Pairs    []PairJSON `json:"pairs"`
	Done     bool       `json:"done"`
	Reported int64      `json:"reported"`
	// ExpiresAt is the renewed idle deadline after this pull.
	ExpiresAt string `json:"expires_at"`
	// Truncated names why the pull returned fewer than k pairs without
	// being done ("pull timeout" or "client disconnected"). The cursor is
	// still open: pull again to resume from the exact pair after the last
	// one delivered.
	Truncated string `json:"truncated,omitempty"`
}

// streamTrailer is the final NDJSON line of a stream pull.
type streamTrailer struct {
	Done     bool   `json:"done"`
	Reported int64  `json:"reported"`
	Error    string `json:"error,omitempty"`
	// Truncated mirrors NextResponse.Truncated: the stream stopped short of
	// k for a soft reason and the cursor remains resumable.
	Truncated string `json:"truncated,omitempty"`
}

// InfoResponse answers GET /v1/cursor/{id}.
type InfoResponse struct {
	Cursor    string `json:"cursor"`
	QueryID   string `json:"query_id"`
	Kind      string `json:"kind"`
	Index1    string `json:"index1"`
	Index2    string `json:"index2"`
	State     string `json:"state"`
	Reported  int64  `json:"reported"`
	CreatedAt string `json:"created_at"`
	ExpiresAt string `json:"expires_at"`
	Error     string `json:"error,omitempty"`
}

func wireTime(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }

// recoverMiddleware converts a handler panic into a JSON 500 instead of
// the net/http default (kill the connection, dump the goroutine stack).
// The pull path additionally latches the panicking cursor as failed before
// re-panicking into this middleware, so its query trace lands
// error-annotated; see pull.
func recoverMiddleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				writeErr(w, &httpError{
					Status: http.StatusInternalServerError,
					Msg:    fmt.Sprintf("internal error: %v", p),
				})
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// inboundContext extracts the W3C trace context of a request. Per the spec
// tracestate is only meaningful alongside a valid traceparent.
func inboundContext(r *http.Request) qtrace.SpanContext {
	sc, ok := qtrace.ParseTraceParent(r.Header.Get("traceparent"))
	if !ok {
		return qtrace.SpanContext{}
	}
	sc.State = r.Header.Get("tracestate")
	return sc
}

// echoTrace stamps the response with the cursor's query span context and
// query id, so clients (and the request log) can correlate the HTTP
// exchange with the query trace at /debug/queries/<id>.
func echoTrace(w http.ResponseWriter, sc qtrace.SpanContext, queryID string) {
	if tp := sc.TraceParent(); tp != "" {
		w.Header().Set("Traceparent", tp)
		if sc.State != "" {
			w.Header().Set("Tracestate", sc.State)
		}
	}
	if queryID != "" {
		w.Header().Set("X-Distjoin-Query", queryID)
	}
}

// handleQuery serves POST /v1/query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, &httpError{Status: http.StatusMethodNotAllowed, Msg: "POST only"})
		return
	}
	c, e := s.createCursor(r)
	if e != nil {
		writeErr(w, e)
		return
	}
	echoTrace(w, c.sc, c.id)
	writeJSON(w, http.StatusCreated, CreateResponse{
		Cursor:      c.id,
		QueryID:     c.id, // the cursor id doubles as the query id
		Kind:        c.kind,
		Index1:      c.index1,
		Index2:      c.index2,
		ExpiresAt:   wireTime(c.created.Add(s.cfg.TTL)),
		TraceParent: c.sc.TraceParent(),
	})
}

// handleCursor routes /v1/cursor/{id}[/next|/stream].
func (s *Server) handleCursor(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/cursor/")
	id, verb, _ := strings.Cut(rest, "/")
	if id == "" {
		writeErr(w, badRequest("missing cursor id"))
		return
	}
	switch {
	case verb == "" && r.Method == http.MethodGet:
		s.handleInfo(w, id)
	case verb == "" && r.Method == http.MethodDelete:
		s.handleDelete(w, id)
	case verb == "next" && r.Method == http.MethodGet:
		s.handlePull(w, r, id, false)
	case verb == "stream" && r.Method == http.MethodGet:
		s.handlePull(w, r, id, true)
	default:
		writeErr(w, &httpError{Status: http.StatusMethodNotAllowed, Msg: "unsupported cursor operation"})
	}
}

// positiveParam reads an optional positive integer query parameter.
func positiveParam(q url.Values, name string, def int) (int, *httpError) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, badRequest(name + " must be a positive integer")
	}
	return n, nil
}

// handlePull serves one pull, either as a single JSON document or as an
// NDJSON stream: one pair per line, flushed in blocks, then a trailer line
// with done and reported. An engine error mid-stream appears in the trailer
// (headers are long gone); a next response is all or nothing.
func (s *Server) handlePull(w http.ResponseWriter, r *http.Request, id string, stream bool) {
	q := r.URL.Query()
	k, e := positiveParam(q, "k", 1)
	if e != nil {
		writeErr(w, e)
		return
	}
	k = min(k, s.cfg.MaxBatch)
	// Soft per-pull deadline: the request context (canceled on client
	// disconnect) plus an optional timeout — per-request timeout_ms, else
	// Config.PullTimeout. Expiry truncates this one response; the cursor
	// stays open.
	ms, e := positiveParam(q, "timeout_ms", 0)
	if e != nil {
		writeErr(w, e)
		return
	}
	timeout := s.cfg.PullTimeout
	if ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	rctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(rctx, timeout)
		defer cancel()
	}
	c, e := s.lease(id)
	if e != nil {
		writeErr(w, e)
		return
	}
	echoTrace(w, c.sc, c.id)

	// The pull's answer is encoded into scratch memory reused across pulls
	// (the encoder writes what json.Encoder.Encode would; see encode.go).
	sc := pullScratches.Get().(*pullScratch)
	defer pullScratches.Put(sc)
	if stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		written := 0
		res := s.pull(c, k, rctx, true, func(p PairJSON) {
			var ok bool
			if sc.buf, ok = appendPairLine(sc.buf[:0], p); ok {
				w.Write(sc.buf)
			}
			if written++; flusher != nil && written%64 == 0 {
				flusher.Flush()
			}
		})
		tr := streamTrailer{Done: res.done, Reported: res.reported, Truncated: res.truncated}
		if res.err != nil {
			tr.Error = res.err.Error()
		}
		sc.buf = appendTrailer(sc.buf[:0], &tr)
		w.Write(sc.buf)
		if flusher != nil {
			flusher.Flush()
		}
		return
	}
	sc.pairs = sc.pairs[:0]
	res := s.pull(c, k, rctx, false, func(p PairJSON) { sc.pairs = append(sc.pairs, p) })
	if res.err != nil {
		status := http.StatusInternalServerError
		if errors.Is(res.err, distjoin.ErrCanceled) {
			// A hard cancellation (DELETE, TTL, wall budget, drain) made the
			// cursor terminal; Gone matches what every later pull will say.
			status = http.StatusGone
		}
		writeErr(w, &httpError{Status: status, Msg: "cursor " + id + " failed: " + res.err.Error()})
		return
	}
	var ok bool
	sc.buf, ok = appendNext(sc.buf[:0], &NextResponse{
		Cursor:    c.id,
		Pairs:     sc.pairs,
		Done:      res.done,
		Reported:  res.reported,
		ExpiresAt: wireTime(res.expires),
		Truncated: res.truncated,
	})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if ok {
		w.Write(sc.buf)
	}
}

// pull draws up to k pairs under the caller's lease and releases it, also
// when the engine panics: the panic is latched as the cursor's terminal
// error — the engine closes in release, so the query trace lands
// error-annotated instead of the cursor idling as if still healthy — before
// it travels on to recoverMiddleware's 500. Pairs a failed next pull drew
// are never delivered, so unless streamed they are not counted as reported.
func (s *Server) pull(c *cursor, k int, rctx context.Context, streamed bool, emit func(PairJSON)) (res pullResult) {
	defer func() {
		p := recover()
		if p != nil {
			res.err = fmt.Errorf("internal panic: %v", p)
		}
		if res.err != nil && !streamed {
			res.n = 0
		}
		s.release(c, &res)
		if p != nil {
			panic(p)
		}
	}()
	draw(c, k, rctx, emit, &res)
	return res
}

// handleInfo serves cursor status.
func (s *Server) handleInfo(w http.ResponseWriter, id string) {
	c, e := s.table.lookup(id)
	if e != nil {
		writeErr(w, e)
		return
	}
	echoTrace(w, c.sc, c.id)
	c.mu.Lock()
	resp := InfoResponse{
		Cursor:    c.id,
		QueryID:   c.id,
		Kind:      c.kind,
		Index1:    c.index1,
		Index2:    c.index2,
		State:     c.state.String(),
		Reported:  c.reported,
		CreatedAt: wireTime(c.created),
		ExpiresAt: wireTime(c.deadline),
	}
	if c.err != nil {
		resp.Error = c.err.Error()
	}
	gone, reason := c.state == cursorGone, c.retiring // evicted between lookup and here
	c.mu.Unlock()
	if gone {
		writeErr(w, goneError(id, reason))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDelete closes a cursor explicitly. retire hard-cancels first, so a
// pull in flight surfaces ErrCanceled promptly and DELETE never waits a
// long stream out — only for the holder to hand the engine back.
func (s *Server) handleDelete(w http.ResponseWriter, id string) {
	c, e := s.table.lookup(id)
	if e != nil {
		writeErr(w, e)
		return
	}
	echoTrace(w, c.sc, c.id)
	s.retire(c, errCursorDeleted)
	<-c.gone
	if c.closeErr != nil {
		writeErr(w, &httpError{Status: http.StatusInternalServerError, Msg: c.closeErr.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleIndexes lists the registry.
func (s *Server) handleIndexes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, &httpError{Status: http.StatusMethodNotAllowed, Msg: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Registry.List())
}
