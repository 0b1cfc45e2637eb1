// Package server is the network query service of the incremental distance
// join: an HTTP/JSON API (with NDJSON streaming) that exposes Join /
// SemiJoin / kNN / Clustering over named, registry-shared indexes as
// resumable cursors — the paper's incrementality ("pull the next closest
// pair on demand") lifted to a served system.
//
//	POST   /v1/query             create a cursor over a named index pair
//	GET    /v1/cursor/{id}/next  pull the next k pairs in distance order
//	GET    /v1/cursor/{id}/stream NDJSON-stream the next k pairs
//	GET    /v1/cursor/{id}       cursor status
//	DELETE /v1/cursor/{id}       close the cursor
//	GET    /v1/indexes           list registered indexes
//	GET    /healthz              liveness
//
// Cursors survive client pauses: the underlying incremental iterator stays
// open in a bounded cursor table and is reclaimed by TTL eviction, explicit
// DELETE, or server shutdown. Admission control rejects work the server
// cannot hold — a full cursor table, a saturated in-flight pull semaphore,
// or an exhausted queue-memory budget all answer 429 — so overload degrades
// into fast refusals instead of queue collapse. Every cursor runs under a
// per-query trace (internal/qtrace): its cursor id doubles as the query id,
// so /debug/queries/{id} serves the span tree and resource accounting of a
// finished cursor, and slow or failed cursors land in the slow-query log
// and flight recorder exactly like in-process runs.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distjoin"
	"distjoin/internal/obs"
	"distjoin/internal/otlpexport"
	"distjoin/internal/qtrace"
)

// Defaults for Config's zero fields.
const (
	DefaultMaxCursors   = 64
	DefaultMaxInflight  = 32
	DefaultMemBudget    = 256 << 20 // total queue-memory budget: 256 MiB
	DefaultCursorBudget = 4 << 20   // per-cursor reservation: 4 MiB
	DefaultMaxBatch     = 10_000
	DefaultTTL          = 2 * time.Minute
)

// Config configures a Server. The zero value serves an empty registry with
// the defaults above.
type Config struct {
	// Registry supplies the named indexes; NewServer creates an empty one
	// when nil.
	Registry *Registry
	// MaxCursors bounds the cursor table — the number of concurrently open
	// engine iterators. Creation beyond it answers 429.
	MaxCursors int
	// MaxInflight bounds concurrently executing pulls (next/stream) plus
	// cursor creations across all cursors. Excess requests answer 429
	// immediately rather than queueing.
	MaxInflight int
	// MemBudget is the total queue-memory budget in bytes shared by all
	// cursors: each cursor reserves its share at creation (the client's
	// queue_budget, default DefaultCursorBudget) and releases it on close.
	// This is the admission-control ledger over the engines' priority-queue
	// memory and the hybrid queue's share of the pager pool; a reservation
	// that would overdraw it answers 429.
	MemBudget int64
	// DefaultCursorBudget is the per-cursor reservation when the client
	// does not send queue_budget.
	DefaultCursorBudget int64
	// MaxBatch caps the k of one pull.
	MaxBatch int
	// TTL is how long an idle cursor survives between pulls. Every pull
	// extends the deadline.
	TTL time.Duration
	// SweepInterval is the janitor period (default TTL/4, at least 10ms).
	SweepInterval time.Duration
	// MaxCursorWall is the per-cursor total wall budget: a cursor older
	// than this is hard-canceled — its engine context expires, a live
	// pull surfaces ErrCanceled mid-work, and the cursor goes terminal
	// (410). It bounds the lifetime of any single query regardless of how
	// diligently a client keeps pulling. 0 disables the budget.
	MaxCursorWall time.Duration
	// PullTimeout is the default soft deadline of one next/stream pull
	// (overridable per request with ?timeout_ms=N). When it expires the
	// pull returns the pairs drawn so far — the cursor stays open and
	// resumable; only the one HTTP response is truncated. 0 disables the
	// default (a request-level timeout_ms still applies).
	PullTimeout time.Duration
	// Tracer receives per-cursor query traces; cursor ids double as query
	// ids. May be nil (no tracing).
	Tracer *distjoin.QueryTracer
	// Obs receives engine events and histograms from every cursor. May be
	// nil.
	Obs *distjoin.Recorder
	// Stats aggregates the work counters of every cursor — folded in at
	// every engine step, not only at close — plus the node I/O of the
	// registry's R*-tree buffer pools. May be nil.
	Stats *distjoin.Stats
	// Logger receives one structured line per finished HTTP request,
	// carrying endpoint, status, duration, and the trace/query identity of
	// the cursor it touched. May be nil (no request logging).
	Logger *slog.Logger
	// RED records per-endpoint request rate, error classes, and duration
	// histograms plus the pull-latency SLO burn rate; mount it on /metrics
	// via obs.HandlerTraced extras. May be nil.
	RED *obs.RED
	// Exporter receives one OTLP server span per pull, linked to the
	// cursor's query span, so multi-pull sessions stitch into one
	// distributed trace (wire the same exporter as the tracer's OnComplete
	// to ship the engine span trees too). May be nil (no span export).
	Exporter *otlpexport.Exporter
	// BaseOptions is the join-options template every cursor starts from;
	// request fields override it. This is where operators (and tests)
	// inject a QueueStore factory, RetryIO policy, profiling spans, or a
	// default queue configuration.
	BaseOptions distjoin.Options
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = NewRegistry()
	}
	if c.MaxCursors <= 0 {
		c.MaxCursors = DefaultMaxCursors
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.MemBudget <= 0 {
		c.MemBudget = DefaultMemBudget
	}
	if c.DefaultCursorBudget <= 0 {
		c.DefaultCursorBudget = DefaultCursorBudget
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.TTL <= 0 {
		c.TTL = DefaultTTL
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.TTL / 4
	}
	if c.SweepInterval < 10*time.Millisecond {
		c.SweepInterval = 10 * time.Millisecond
	}
	return c
}

// Server is the query service: registry + cursor table + admission control
// behind an http.Handler. Create with NewServer, mount Handler (or use
// Start), and Close to reclaim every open cursor.
type Server struct {
	cfg      Config
	table    *cursorTable
	inflight chan struct{}
	seq      atomic.Uint64
	closed   atomic.Bool
	draining atomic.Bool
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in the panic-recovery middleware

	budgetMu   sync.Mutex
	budgetUsed int64

	janitorStop chan struct{}
	janitorDone chan struct{}

	// now is the clock, swappable in TTL tests.
	now func() time.Time
}

// NewServer creates a Server and starts its TTL janitor.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.Obs != nil || cfg.Stats != nil {
		// Node I/O happens in the registry's shared buffer pools, not in any
		// one cursor's engine: route it into the server-wide views.
		cfg.Registry.SetObserver(cfg.Obs, cfg.Stats)
	}
	s := &Server{
		cfg:         cfg,
		table:       newCursorTable(cfg.MaxCursors),
		inflight:    make(chan struct{}, cfg.MaxInflight),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
		now:         time.Now,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/cursor/", s.handleCursor)
	s.mux.HandleFunc("/v1/indexes", s.handleIndexes)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	// Liveness vs readiness: /healthz answers ok for as long as the
	// process serves HTTP at all, while /readyz flips to 503 the moment a
	// drain begins, so load balancers stop routing new queries to an
	// instance that is shutting down (its existing cursors still answer).
	s.mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() || s.closed.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
	})
	// observe outside recover: a handler panic becomes recoverMiddleware's
	// 500, which the RED metrics and request log then see as a server error.
	s.handler = s.observeMiddleware(recoverMiddleware(s.mux))
	go s.janitor()
	return s
}

// recoverMiddleware converts a handler panic into a JSON 500 instead of
// the net/http default (kill the connection, dump the goroutine stack).
// The pull path additionally latches the panicking cursor as failed before
// re-panicking into this middleware, so its query trace lands
// error-annotated; see handleNext.
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

// Handler returns the service's HTTP handler, for mounting alongside
// /metrics and /debug/queries in a caller-owned mux.
func (s *Server) Handler() http.Handler { return s.handler }

// Registry returns the server's index registry.
func (s *Server) Registry() *Registry { return s.cfg.Registry }

// OpenCursors returns the number of live cursors (diagnostic).
func (s *Server) OpenCursors() int { return s.table.len() }

// BudgetUsed returns the reserved queue-memory bytes (diagnostic).
func (s *Server) BudgetUsed() int64 {
	s.budgetMu.Lock()
	defer s.budgetMu.Unlock()
	return s.budgetUsed
}

// Close stops the janitor and closes every open cursor, waiting out
// in-flight pulls so every engine iterator is released exactly once. It
// does not close the registry (the caller owns it via Config).
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.janitorStop)
	<-s.janitorDone
	var first error
	for _, c := range s.table.snapshot() {
		// Lock order op → st: waits for an in-flight pull to finish, then
		// closes the engine under st.
		c.op.Lock()
		c.st.Lock()
		err := c.closeEngine()
		c.st.Unlock()
		c.op.Unlock()
		s.finishCursor(c, "server shutting down")
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// janitor periodically evicts cursors whose TTL has lapsed.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.sweep(s.now())
		}
	}
}

// sweep evicts every cursor past its deadline. A cursor mid-pull is only
// doomed: the pull in progress completes normally and the release path
// finishes the eviction, so an engine is never closed under a reader.
func (s *Server) sweep(now time.Time) {
	for _, c := range s.table.snapshot() {
		c.st.Lock()
		expired := now.After(c.deadline)
		if !expired {
			c.st.Unlock()
			continue
		}
		if c.op.TryLock() {
			c.closeEngine()
			c.st.Unlock()
			c.op.Unlock()
			s.finishCursor(c, "cursor expired (TTL)")
		} else {
			c.doomed = true
			c.st.Unlock()
			// The cursor is mid-pull: interrupt the live engine so the pull
			// surfaces ErrCanceled promptly instead of streaming until k; the
			// release path (endPull) then completes the eviction.
			c.hardCancel(errCursorExpired)
		}
	}
}

// beginDrain flips readiness to 503 and hard-cancels every live cursor, so
// in-flight pulls surface ErrCanceled promptly and new queries are refused
// while existing clients can still observe their cursors' terminal state.
func (s *Server) beginDrain() {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	for _, c := range s.table.snapshot() {
		c.hardCancel(errCursorDrained)
	}
}

// finishCursor removes a cursor whose engine is already closed from the
// table and releases its budget reservation. Idempotent per cursor id
// (table.remove no-ops on a second call), but the budget must be released
// exactly once: the caller patterns guarantee single release because every
// path to finishCursor first won the engine-close race under st.
func (s *Server) finishCursor(c *cursor, reason string) {
	s.table.remove(c.id, reason)
	c.st.Lock()
	released := c.budget
	c.budget = 0
	c.st.Unlock()
	if released > 0 {
		s.releaseBudget(released)
	}
}

// reserveBudget takes bytes from the shared queue-memory budget; it
// reports false when the reservation would overdraw it.
func (s *Server) reserveBudget(bytes int64) bool {
	s.budgetMu.Lock()
	defer s.budgetMu.Unlock()
	if s.budgetUsed+bytes > s.cfg.MemBudget {
		return false
	}
	s.budgetUsed += bytes
	return true
}

func (s *Server) releaseBudget(bytes int64) {
	s.budgetMu.Lock()
	s.budgetUsed -= bytes
	s.budgetMu.Unlock()
}

// acquire takes an in-flight slot, answering 429 when the semaphore is
// saturated (no queueing: overload must fail fast, not pile up).
func (s *Server) acquire() *httpError {
	select {
	case s.inflight <- struct{}{}:
		return nil
	default:
		return &httpError{
			Status: http.StatusTooManyRequests,
			Msg:    "server is at its in-flight request limit; retry shortly",
			Retry:  true,
		}
	}
}

func (s *Server) release() { <-s.inflight }

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
	// Parallelism >1 runs the partitioned parallel path per cursor.
	Parallelism int `json:"parallelism,omitempty"`
	// OmitEqualIDs drops identity pairs (self joins).
	OmitEqualIDs bool `json:"omit_equal_ids,omitempty"`
	// QueueBudget is the cursor's queue-memory reservation in bytes
	// (default Config.DefaultCursorBudget); admission is denied when the
	// shared budget cannot cover it.
	QueueBudget int64 `json:"queue_budget,omitempty"`
}

// CreateResponse answers a successful POST /v1/query.
type CreateResponse struct {
	Cursor      string `json:"cursor"`
	QueryID     string `json:"query_id"`
	Kind        string `json:"kind"`
	Index1      string `json:"index1"`
	Index2      string `json:"index2"`
	ExpiresAt   string `json:"expires_at"`
	BudgetBytes int64  `json:"budget_bytes"`
	// TraceParent is the W3C context of the cursor's query span — a child
	// of the traceparent the request carried, or a fresh trace root. Echoed
	// in the traceparent response header too; clients that keep sending
	// their own context on pulls stitch the whole session into one trace.
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

// handleQuery serves POST /v1/query: admission, engine construction, cursor
// registration.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, &httpError{Status: http.StatusMethodNotAllowed, Msg: "POST only"})
		return
	}
	if s.closed.Load() || s.draining.Load() {
		writeErr(w, &httpError{Status: http.StatusServiceUnavailable, Msg: "server is shutting down"})
		return
	}
	if e := s.acquire(); e != nil {
		writeErr(w, e)
		return
	}
	defer s.release()

	var req QueryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, badRequest("invalid request body: "+err.Error()))
		return
	}
	c, e := s.createCursor(&req, inboundContext(r))
	if e != nil {
		writeErr(w, e)
		return
	}
	c.st.Lock()
	expires := c.deadline
	c.st.Unlock()
	echoTrace(w, c.sc, c.queryID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(CreateResponse{
		Cursor:      c.id,
		QueryID:     c.queryID,
		Kind:        c.kind,
		Index1:      c.index1,
		Index2:      c.index2,
		ExpiresAt:   expires.UTC().Format(time.RFC3339Nano),
		BudgetBytes: c.budget,
		TraceParent: c.sc.TraceParent(),
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

// echoTrace stamps the response with the span context the server minted
// for this request plus the cursor's query id, so clients (and the request
// log) can correlate the HTTP exchange with the exported trace.
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

// createCursor runs admission and opens the engine iterator. parent is the
// client's inbound trace context (zero when the request carried none): the
// cursor's query trace becomes its child span, so the whole cursor session
// lands in the client's distributed trace.
func (s *Server) createCursor(req *QueryRequest, parent qtrace.SpanContext) (*cursor, *httpError) {
	si1, err := s.cfg.Registry.Get(req.Index1)
	if err != nil {
		return nil, &httpError{Status: http.StatusNotFound, Msg: err.Error()}
	}
	si2, err := s.cfg.Registry.Get(req.Index2)
	if err != nil {
		return nil, &httpError{Status: http.StatusNotFound, Msg: err.Error()}
	}
	budget := req.QueueBudget
	if budget < 0 {
		return nil, badRequest("queue_budget must be non-negative")
	}
	if budget == 0 {
		budget = s.cfg.DefaultCursorBudget
	}
	if !s.reserveBudget(budget) {
		return nil, &httpError{
			Status: http.StatusTooManyRequests,
			Msg:    "queue-memory budget exhausted; retry after a cursor closes or expires",
			Retry:  true,
		}
	}
	id := fmt.Sprintf("c%07d", s.seq.Add(1))
	opts, e := s.buildOptions(req, id)
	if e != nil {
		s.releaseBudget(budget)
		return nil, e
	}
	// Per-cursor engine context: every hard cancellation (DELETE, TTL doom,
	// wall budget, drain) flows through it into the engine, which surfaces
	// a sticky ErrCanceled carrying the cause — even mid-pull.
	base, cancelCause := context.WithCancelCause(context.Background())
	ctx := base
	stopWall := context.CancelFunc(func() {})
	if s.cfg.MaxCursorWall > 0 {
		ctx, stopWall = context.WithDeadlineCause(base, s.now().Add(s.cfg.MaxCursorWall), errCursorWallOver)
	}
	cancel := func(cause error) {
		cancelCause(cause)
		stopWall()
	}
	opts.Context = ctx
	// Register the trace identity before the engine begins: Begin adopts it,
	// making the engine's span tree a child of the client's span (or a fresh
	// trace root). Nil-safe — an untraced server still propagates context.
	sc := opts.Tracer.PreBegin(id, parent)
	next, closeFn, abortFn, err := openIterator(req, si1, si2, opts)
	if err != nil {
		opts.Tracer.Unlink(id)
		cancel(nil)
		s.releaseBudget(budget)
		// Engine construction errors are almost always invalid client
		// options, except a dead queue-store backend, which is ours.
		if errors.Is(err, distjoin.ErrQueueStore) {
			return nil, &httpError{Status: http.StatusInternalServerError, Msg: err.Error()}
		}
		return nil, badRequest(err.Error())
	}
	now := s.now()
	c := &cursor{
		id:      id,
		kind:    normKind(req.Kind),
		index1:  req.Index1,
		index2:  req.Index2,
		queryID: id,
		budget:  budget,
		created: now,
		next:    next,
		close:   closeFn,
		abort:   abortFn,
		ctx:     ctx,
		cancel:  cancel,
		sc:      sc,
		client:  parent,
	}
	c.deadline = now.Add(s.cfg.TTL)
	if e := s.table.insert(c); e != nil {
		// Bounded table: close the just-opened engine and refuse.
		c.st.Lock()
		c.closeEngine()
		c.st.Unlock()
		s.releaseBudget(budget)
		return nil, e
	}
	return c, nil
}

// normKind canonicalizes the operation name.
func normKind(kind string) string {
	k := strings.ToLower(strings.TrimSpace(kind))
	if k == "" {
		k = "join"
	}
	return k
}

// buildOptions derives the cursor's join options: the server's BaseOptions
// template, overridden by the request's non-zero fields, wired to the
// server's tracer, recorder and counters.
func (s *Server) buildOptions(req *QueryRequest, queryID string) (distjoin.Options, *httpError) {
	opts := s.cfg.BaseOptions
	if req.MaxPairs < 0 {
		return opts, badRequest("max_pairs must be non-negative")
	}
	opts.MaxPairs = req.MaxPairs
	opts.MinDist = req.MinDist
	opts.MaxDist = req.MaxDist
	if req.MaxDist == 0 {
		opts.MaxDist = math.Inf(1)
	}
	opts.OmitEqualIDs = opts.OmitEqualIDs || req.OmitEqualIDs
	switch strings.ToLower(req.Metric) {
	case "":
	case "euclidean":
		opts.Metric = distjoin.Euclidean
	case "manhattan":
		opts.Metric = distjoin.Manhattan
	case "chessboard":
		opts.Metric = distjoin.Chessboard
	default:
		return opts, badRequest("unknown metric " + strconv.Quote(req.Metric))
	}
	switch strings.ToLower(req.Queue) {
	case "":
	case "memory":
		opts.Queue = distjoin.QueueMemory
	case "hybrid":
		opts.Queue = distjoin.QueueHybrid
	default:
		return opts, badRequest("unknown queue " + strconv.Quote(req.Queue))
	}
	if req.HybridDT != 0 {
		opts.HybridDT = req.HybridDT
	}
	switch strings.ToLower(req.Traversal) {
	case "":
	case "even":
		opts.Traversal = distjoin.TraverseEven
	case "basic":
		opts.Traversal = distjoin.TraverseBasic
	case "simultaneous":
		opts.Traversal = distjoin.TraverseSimultaneous
	default:
		return opts, badRequest("unknown traversal " + strconv.Quote(req.Traversal))
	}
	if req.Parallelism != 0 {
		opts.Parallelism = req.Parallelism
	}
	if s.cfg.Obs != nil && opts.Obs == nil {
		opts.Obs = s.cfg.Obs
	}
	if s.cfg.Tracer != nil && opts.Tracer == nil {
		opts.Tracer = s.cfg.Tracer
	}
	if opts.Tracer != nil && opts.QueryID == "" {
		// Cursor id doubles as query id — and as the key the createCursor
		// PreBegin registration is consumed under.
		opts.QueryID = queryID
	}
	if opts.Counters == nil {
		// Every cursor's engines fold straight into the server-wide view;
		// a cursor's own numbers are its query trace's resources.
		opts.Counters = s.cfg.Stats
	}
	return opts, nil
}

// parseFilter maps the wire name to the §4.2.1 filtering ladder.
func parseFilter(name string) (distjoin.SemiFilter, error) {
	switch strings.ToLower(name) {
	case "", "globalall":
		return distjoin.FilterGlobalAll, nil
	case "outside":
		return distjoin.FilterOutside, nil
	case "inside1":
		return distjoin.FilterInside1, nil
	case "inside2":
		return distjoin.FilterInside2, nil
	case "local":
		return distjoin.FilterLocal, nil
	case "globalnodes":
		return distjoin.FilterGlobalNodes, nil
	}
	return 0, fmt.Errorf("unknown filter %q", name)
}

// openIterator starts the engine for the requested operation over the two
// registry indexes.
func openIterator(req *QueryRequest, si1, si2 distjoin.SpatialIndex, opts distjoin.Options) (func() (distjoin.Pair, bool, error), func() error, func(error) error, error) {
	switch normKind(req.Kind) {
	case "join":
		j, err := distjoin.DistanceJoinIndexes(si1, si2, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return j.Next, j.Close, j.Abort, nil
	case "semijoin":
		f, err := parseFilter(req.Filter)
		if err != nil {
			return nil, nil, nil, err
		}
		sj, err := distjoin.DistanceSemiJoinIndexes(si1, si2, f, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return sj.Next, sj.Close, sj.Abort, nil
	case "knn":
		f, err := parseFilter(req.Filter)
		if err != nil {
			return nil, nil, nil, err
		}
		k := req.K
		if k == 0 {
			k = 1
		}
		sj, err := distjoin.KNearestJoinIndexes(si1, si2, k, f, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return sj.Next, sj.Close, sj.Abort, nil
	case "clustering":
		f, err := parseFilter(req.Filter)
		if err != nil {
			return nil, nil, nil, err
		}
		sj, err := distjoin.ClusteringJoinIndexes(si1, si2, f, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return sj.Next, sj.Close, sj.Abort, nil
	}
	return nil, nil, nil, fmt.Errorf("unknown kind %q (want join, semijoin, knn or clustering)", req.Kind)
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
		s.handleNext(w, r, id, false)
	case verb == "stream" && r.Method == http.MethodGet:
		s.handleNext(w, r, id, true)
	default:
		writeErr(w, &httpError{Status: http.StatusMethodNotAllowed, Msg: "unsupported cursor operation"})
	}
}

// beginPull admits one pull on a cursor: in-flight slot, lookup, op lock,
// terminal-state checks. On success the caller owns c.op and must call
// endPull.
func (s *Server) beginPull(id string) (*cursor, *httpError) {
	if e := s.acquire(); e != nil {
		return nil, e
	}
	c, e := s.table.lookup(id)
	if e != nil {
		s.release()
		return nil, e
	}
	if !c.op.TryLock() {
		s.release()
		return nil, &httpError{Status: http.StatusConflict, Msg: errCursorBusy.Error(), Retry: true}
	}
	c.st.Lock()
	if c.state == cursorFailed {
		msg := "cursor " + id + " failed: " + c.err.Error()
		c.st.Unlock()
		c.op.Unlock()
		s.release()
		return nil, &httpError{Status: http.StatusGone, Msg: msg}
	}
	// Extend the TTL at pull start so a long stream is not doomed under
	// the janitor mid-pull more often than necessary.
	c.deadline = s.now().Add(s.cfg.TTL)
	c.st.Unlock()
	return c, nil
}

// endPull releases the op lock and completes a doomed cursor's eviction.
func (s *Server) endPull(c *cursor) {
	c.st.Lock()
	doomed := c.doomed
	if doomed {
		c.closeEngine()
	}
	// Renew the idle deadline as the pull releases the cursor.
	c.deadline = s.now().Add(s.cfg.TTL)
	c.st.Unlock()
	c.op.Unlock()
	if doomed {
		s.finishCursor(c, "cursor expired (TTL)")
	}
	s.release()
}

// pull draws up to k pairs from the cursor's iterator. Terminal outcomes
// (exhaustion, engine error) close the engine in place — landing the query
// trace — and latch the cursor state. rctx is the pull's soft deadline
// (request context + timeout): when it expires the pull stops between Next
// calls and returns the pairs drawn so far with a truncation reason — the
// cursor itself stays open and resumable. Caller holds c.op.
func (s *Server) pull(c *cursor, k int, rctx context.Context) ([]PairJSON, bool, string, error) {
	c.st.Lock()
	exhausted := c.state == cursorDone
	c.st.Unlock()
	if exhausted {
		// The engine was already closed on exhaustion; the cursor idles in
		// its done state until the TTL or a DELETE reclaims it.
		return []PairJSON{}, true, "", nil
	}
	pairs := make([]PairJSON, 0, k)
	for len(pairs) < k {
		if rctx != nil && rctx.Err() != nil {
			return pairs, false, softStopReason(rctx), nil
		}
		p, ok, err := c.next()
		if err != nil {
			c.st.Lock()
			c.state = cursorFailed
			c.err = err
			c.closeEngine()
			c.st.Unlock()
			return pairs, false, "", err
		}
		if !ok {
			c.st.Lock()
			c.state = cursorDone
			c.closeEngine()
			c.st.Unlock()
			return pairs, true, "", nil
		}
		pairs = append(pairs, PairJSON{Obj1: uint64(p.Obj1), Obj2: uint64(p.Obj2), Dist: p.Dist})
	}
	c.st.Lock()
	done := c.state == cursorDone
	c.st.Unlock()
	return pairs, done, "", nil
}

// softStopReason names why a pull stopped early. Soft stops never touch the
// cursor's engine context — only the one HTTP response is cut short.
func softStopReason(rctx context.Context) string {
	if errors.Is(rctx.Err(), context.DeadlineExceeded) {
		return "pull timeout"
	}
	return "client disconnected"
}

// handleNext serves one pull, either as a single JSON document or as an
// NDJSON stream (one pair per line, then a terminator line with done and
// reported — chunked transfer, flushed in blocks).
func (s *Server) handleNext(w http.ResponseWriter, r *http.Request, id string, stream bool) {
	k := 1
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, badRequest("k must be a positive integer"))
			return
		}
		k = n
	}
	if k > s.cfg.MaxBatch {
		k = s.cfg.MaxBatch
	}
	// Soft per-pull deadline: the request context (canceled on client
	// disconnect) plus an optional timeout — per-request timeout_ms, else
	// Config.PullTimeout. Expiry truncates this one response; the cursor
	// stays open.
	timeout := s.cfg.PullTimeout
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, badRequest("timeout_ms must be a positive integer"))
			return
		}
		timeout = time.Duration(n) * time.Millisecond
	}
	rctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(rctx, timeout)
		defer cancel()
	}
	c, e := s.beginPull(id)
	if e != nil {
		writeErr(w, e)
		return
	}
	defer s.endPull(c)
	// Latch a handler panic as the cursor's terminal error before endPull
	// releases it and the re-panic reaches recoverMiddleware's 500: the
	// engine closes here, so the query trace lands error-annotated in the
	// flight recorder instead of the cursor idling as if still healthy.
	defer func() {
		if p := recover(); p != nil {
			c.st.Lock()
			if c.state == cursorOpen {
				c.state = cursorFailed
				c.err = fmt.Errorf("internal panic: %v", p)
				c.closeEngine()
			}
			c.st.Unlock()
			panic(p)
		}
	}()

	// Pull span identity up front: the response headers carry it (echoed
	// before any body byte), the span itself is exported once the pull's
	// outcome is known.
	pullStart := time.Now()
	psc, parentSpan := s.pullSpanStart(r, c)
	echoTrace(w, psc, c.queryID)

	if stream {
		n, done, truncated, err := s.streamPairs(w, rctx, c, k)
		s.finishPullSpan(c, psc, parentSpan, pullStart, "cursor stream", k, n, done, truncated, err)
		return
	}
	pairs, done, truncated, err := s.pull(c, k, rctx)
	s.finishPullSpan(c, psc, parentSpan, pullStart, "cursor next", k, int64(len(pairs)), done, truncated, err)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, distjoin.ErrCanceled) {
			// A hard cancellation (DELETE, TTL, wall budget, drain) made the
			// cursor terminal; Gone matches what every later pull will say.
			status = http.StatusGone
		}
		writeErr(w, &httpError{
			Status: status,
			Msg:    "cursor " + id + " failed: " + err.Error(),
		})
		return
	}
	c.st.Lock()
	c.reported += int64(len(pairs))
	reported := c.reported
	expires := s.now().Add(s.cfg.TTL)
	c.st.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(NextResponse{
		Cursor:    c.id,
		Pairs:     pairs,
		Done:      done,
		Reported:  reported,
		ExpiresAt: expires.UTC().Format(time.RFC3339Nano),
		Truncated: truncated,
	})
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

// streamPairs writes up to k pairs as NDJSON. Each line is one PairJSON;
// the last line is a streamTrailer. An engine error mid-stream appears in
// the trailer (headers are long gone), and the cursor is terminal. A soft
// stop (rctx expired: client gone or pull timeout) ends the stream between
// Next calls with the reason in the trailer, cursor still open. The return
// values describe the pull's outcome for its exported span.
func (s *Server) streamPairs(w http.ResponseWriter, rctx context.Context, c *cursor, k int) (int64, bool, string, error) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var n int64
	var pullErr error
	var truncated string
	c.st.Lock()
	done := c.state == cursorDone
	c.st.Unlock()
	for i := 0; !done && i < k; i++ {
		if rctx != nil && rctx.Err() != nil {
			truncated = softStopReason(rctx)
			break
		}
		p, ok, err := c.next()
		if err != nil {
			pullErr = err
			c.st.Lock()
			c.state = cursorFailed
			c.err = err
			c.closeEngine()
			c.st.Unlock()
			break
		}
		if !ok {
			done = true
			c.st.Lock()
			c.state = cursorDone
			c.closeEngine()
			c.st.Unlock()
			break
		}
		enc.Encode(PairJSON{Obj1: uint64(p.Obj1), Obj2: uint64(p.Obj2), Dist: p.Dist})
		n++
		if flusher != nil && n%64 == 0 {
			flusher.Flush()
		}
	}
	c.st.Lock()
	c.reported += n
	reported := c.reported
	c.st.Unlock()
	tr := streamTrailer{Done: done, Reported: reported, Truncated: truncated}
	if pullErr != nil {
		tr.Error = pullErr.Error()
	}
	enc.Encode(tr)
	if flusher != nil {
		flusher.Flush()
	}
	return n, done, truncated, pullErr
}

// handleInfo serves cursor status.
func (s *Server) handleInfo(w http.ResponseWriter, id string) {
	c, e := s.table.lookup(id)
	if e != nil {
		writeErr(w, e)
		return
	}
	echoTrace(w, c.sc, c.queryID)
	c.st.Lock()
	state := "open"
	switch c.state {
	case cursorDone:
		state = "done"
	case cursorFailed:
		state = "failed"
	}
	resp := InfoResponse{
		Cursor:    c.id,
		QueryID:   c.queryID,
		Kind:      c.kind,
		Index1:    c.index1,
		Index2:    c.index2,
		State:     state,
		Reported:  c.reported,
		CreatedAt: c.created.UTC().Format(time.RFC3339Nano),
		ExpiresAt: c.deadline.UTC().Format(time.RFC3339Nano),
	}
	if c.err != nil {
		resp.Error = c.err.Error()
	}
	c.st.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleDelete closes a cursor explicitly. It waits out an in-flight pull
// (op.Lock) so the engine is never closed under a reader.
func (s *Server) handleDelete(w http.ResponseWriter, id string) {
	c, e := s.table.lookup(id)
	if e != nil {
		writeErr(w, e)
		return
	}
	echoTrace(w, c.sc, c.queryID)
	// Hard-cancel before taking op: an in-flight pull surfaces ErrCanceled
	// promptly, so DELETE never waits out a long stream to finish.
	c.hardCancel(errCursorDeleted)
	c.op.Lock()
	c.st.Lock()
	err := c.closeEngine()
	c.st.Unlock()
	c.op.Unlock()
	s.finishCursor(c, "cursor deleted by client")
	if err != nil {
		writeErr(w, &httpError{Status: http.StatusInternalServerError, Msg: err.Error()})
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
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.cfg.Registry.List())
}

// Running is a live HTTP listener serving a Server (and any extra handlers
// mounted beside it); Start returns one, distjoind and the in-process
// load-test harness both use it.
type Running struct {
	srv    *Server
	ln     net.Listener
	hs     *http.Server
	served chan struct{}
	closed atomic.Bool
}

// Start binds addr (":0" for an ephemeral port) and serves the query
// service in a background goroutine. mount, when non-nil, may add extra
// routes (metrics, debug) to the mux before serving.
func Start(addr string, cfg Config, mount func(mux *http.ServeMux)) (*Running, error) {
	srv := NewServer(cfg)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if mount != nil {
		mount(mux)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	run := &Running{srv: srv, ln: ln, hs: hs, served: make(chan struct{})}
	go func() {
		defer close(run.served)
		hs.Serve(ln)
	}()
	return run, nil
}

// Addr returns the bound address.
func (r *Running) Addr() string { return r.ln.Addr().String() }

// Server returns the underlying query service.
func (r *Running) Server() *Server { return r.srv }

// Shutdown drains the service within the given window: readiness flips to
// 503, every live cursor is hard-canceled (an in-flight pull surfaces
// ErrCanceled), and the listener stays up through the window so clients
// observe their cursors' terminal 410s instead of connection resets. Once
// in-flight pulls drain (or the window lapses) the HTTP server stops and
// every remaining cursor is closed. Idempotent with Close; distjoind calls
// this from its SIGTERM handler.
func (r *Running) Shutdown(drain time.Duration) error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	deadline := time.Now().Add(drain)
	r.srv.beginDrain()
	// Grace poll: in-flight pulls are already canceled and unwind quickly;
	// give their responses (and any follow-up 410 probes) the window.
	for time.Now().Before(deadline) && len(r.srv.inflight) > 0 {
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	err := r.hs.Shutdown(ctx)
	cancel()
	// Force-close whatever outlived the window (idle keep-alives are closed
	// by Shutdown itself; this catches wedged streams).
	r.hs.Close()
	<-r.served
	if cerr := r.srv.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, http.ErrServerClosed) || errors.Is(err, context.DeadlineExceeded) {
		err = nil
	}
	return err
}

// Close stops the listener, waits for the serve goroutine, and closes the
// query service (every open cursor). Idempotent.
func (r *Running) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := r.hs.Close()
	<-r.served
	if cerr := r.srv.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}
