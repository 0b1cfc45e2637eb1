// Package server is the network query service of the incremental distance
// join: an HTTP/JSON API (with NDJSON streaming) that exposes the join,
// semi-join, kNN and clustering join over named, registry-shared indexes as
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
//	GET    /readyz               readiness (503 once draining)
//
// Cursors survive client pauses: the underlying incremental iterator stays
// open in a bounded cursor table and is reclaimed by TTL eviction, explicit
// DELETE, or server shutdown (lifecycle.go has the one ownership rule that
// keeps this honest). Admission control refuses work the server cannot
// hold, before doing any of it — a full cursor table or a saturated
// in-flight semaphore answers 429 — so overload degrades into fast refusals
// instead of queue collapse. Every cursor runs under a per-query trace
// (internal/qtrace): its cursor id doubles as the query id, so
// /debug/queries/{id} serves the span tree, resource accounting and pull
// tally of a finished cursor, and slow or failed cursors land in the
// slow-query log and flight recorder exactly like in-process runs.
//
// The package is four files along the seams of that design: api.go (wire
// types and handlers), lifecycle.go (cursor, lease/release/retire, table,
// janitor), options.go (request → engine options) and this one (Config,
// Server, listener), beside registry.go and obs.go.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"distjoin"
	"distjoin/internal/obs"
)

// Defaults for Config's zero fields.
const (
	DefaultMaxCursors  = 64
	DefaultMaxInflight = 32
	DefaultMaxBatch    = 10_000
	DefaultTTL         = 2 * time.Minute
)

// Config configures a Server. The zero value serves an empty registry with
// the defaults above.
type Config struct {
	// Registry supplies the named indexes; NewServer creates an empty one
	// when nil.
	Registry *Registry
	// MaxCursors bounds the cursor table — the number of concurrently open
	// engine iterators, each holding its priority queue. Creation beyond it
	// answers 429 before any engine is opened.
	MaxCursors int
	// MaxInflight bounds concurrently executing pulls (next/stream) plus
	// cursor creations across all cursors. Excess requests answer 429
	// immediately rather than queueing.
	MaxInflight int
	// MaxBatch caps the k of one pull.
	MaxBatch int
	// TTL is how long an idle cursor survives between pulls. Every pull
	// extends the deadline; the janitor sweeps every TTL/4 (at least 10ms).
	TTL time.Duration
	// MaxCursorWall is the per-cursor total wall budget: a cursor older
	// than this is hard-canceled — its engine context ends, a live pull
	// surfaces ErrCanceled mid-work, and the cursor goes terminal (410). It
	// bounds the lifetime of any single query regardless of how diligently
	// a client keeps pulling. 0 disables the budget.
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
	// Obs is the server's one counts view: every cursor's engines fold their
	// work counts into it at every step, not only at close, and the
	// registry's R*-tree buffer pools add their node I/O; it also keeps the
	// histograms and gauges of every cursor. May be nil.
	Obs *distjoin.Recorder
	// Logger receives one structured line per finished HTTP request,
	// carrying endpoint, status, duration, and the trace/query identity of
	// the cursor it touched; a successful next or stream pull logs at
	// debug level. May be nil (no request logging).
	Logger *slog.Logger
	// RED records per-endpoint request rate, error classes, and duration
	// histograms plus the count of pulls that miss the latency SLO; mount it
	// on /metrics via obs.HandlerTraced extras. May be nil.
	RED *obs.RED
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
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.TTL <= 0 {
		c.TTL = DefaultTTL
	}
	return c
}

// Server is the query service: registry + cursor table + admission control
// behind an http.Handler. Create with NewServer, mount Handler (or use
// Start), and Close to reclaim every open cursor.
type Server struct {
	cfg      Config
	table    *cursorTable
	inflight chan struct{} // counting semaphore: pulls and creates in progress
	seq      atomic.Uint64
	handler  http.Handler // the routes behind the observe and panic-recovery middleware

	closing     sync.Once
	janitorStop chan struct{}
	janitorDone chan struct{}

	// now and after are the clock and the one-shot timer (returning its
	// stop), injected by tests that drive TTL and wall-budget expiry by hand.
	now   func() time.Time
	after func(time.Duration, func()) (stop func() bool)
}

// NewServer creates a Server and starts its TTL janitor.
func NewServer(cfg Config) *Server {
	return newServer(cfg, time.Now, func(d time.Duration, f func()) func() bool {
		return time.AfterFunc(d, f).Stop
	})
}

func newServer(cfg Config, now func() time.Time, after func(time.Duration, func()) func() bool) *Server {
	cfg = cfg.withDefaults()
	if cfg.Obs != nil {
		// Node I/O happens in the registry's shared buffer pools, not in any
		// one cursor's engine: route it into the server-wide view.
		cfg.Registry.SetObserver(cfg.Obs)
	}
	s := &Server{
		cfg:         cfg,
		table:       newCursorTable(cfg.MaxCursors),
		inflight:    make(chan struct{}, cfg.MaxInflight),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
		now:         now,
		after:       after,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/cursor/", s.handleCursor)
	mux.HandleFunc("/v1/indexes", s.handleIndexes)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	// Liveness vs readiness: /healthz answers ok for as long as the
	// process serves HTTP at all, while /readyz flips to 503 the moment a
	// drain begins, so load balancers stop routing new queries to an
	// instance that is shutting down (its existing cursors still answer).
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if _, refusing := s.table.load(); refusing {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
	})
	// observe outside recover: a handler panic becomes recoverMiddleware's
	// 500, which the RED metrics and request log then see as a server error.
	s.handler = s.observeMiddleware(recoverMiddleware(mux))
	go s.janitor()
	return s
}

// Handler returns the service's HTTP handler, for mounting alongside
// /metrics and /debug/queries in a caller-owned mux.
func (s *Server) Handler() http.Handler { return s.handler }

// OpenCursors returns the number of live cursors (diagnostic).
func (s *Server) OpenCursors() int {
	open, _ := s.table.load()
	return open
}

// acquire takes an in-flight slot, answering 429 when the semaphore is
// saturated (no queueing: overload must fail fast, not pile up). The holder
// gives it back with <-s.inflight.
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

// createCursor serves one POST /v1/query. Admission comes before work: the
// table slot is reserved — or refused — before the body is read or anything
// is opened, under the lock drain and Close stop admission with.
func (s *Server) createCursor(r *http.Request) (*cursor, *httpError) {
	if e := s.table.reserve(); e != nil {
		return nil, e
	}
	c, e := s.openCursor(r)
	if published := s.table.publish(c); c != nil && !published {
		// The server stopped taking work while the engine opened; nothing
		// else will ever close it.
		s.retire(c, errCursorDrained)
		return nil, errRefusing
	}
	return c, e
}

// openCursor reads the request and opens its engine iterator. The client's
// inbound trace context, when the request carried one, parents the cursor's
// query trace, so the whole cursor session lands in the client's
// distributed trace.
func (s *Server) openCursor(r *http.Request) (*cursor, *httpError) {
	if e := s.acquire(); e != nil {
		return nil, e
	}
	defer func() { <-s.inflight }()
	var req QueryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		return nil, badRequest("invalid request body: " + err.Error())
	}
	si1, err := s.cfg.Registry.Get(req.Index1)
	if err != nil {
		return nil, &httpError{Status: http.StatusNotFound, Msg: err.Error()}
	}
	si2, err := s.cfg.Registry.Get(req.Index2)
	if err != nil {
		return nil, &httpError{Status: http.StatusNotFound, Msg: err.Error()}
	}
	id := fmt.Sprintf("c%07d", s.seq.Add(1))
	opts, e := s.buildOptions(&req, id)
	if e != nil {
		return nil, e
	}
	// Per-cursor engine context: every hard cancellation (DELETE, TTL, wall
	// budget, drain, Close) flows through it into the engine, which surfaces
	// a sticky ErrCanceled carrying the cause — even mid-pull.
	ctx, cancel := context.WithCancelCause(context.Background())
	opts.Context = ctx
	// Register the trace identity before the engine begins: Begin adopts it,
	// making the engine's span tree a child of the client's span (or a fresh
	// trace root). Nil-safe — an untraced server still propagates context.
	sc := opts.Tracer.PreBegin(id, inboundContext(r))
	it, err := openIterator(&req, si1, si2, opts)
	if err != nil {
		opts.Tracer.Unlink(id)
		cancel(nil)
		// Engine construction errors are almost always invalid client
		// options, except a dead queue-store backend, which is ours.
		if errors.Is(err, distjoin.ErrQueueStore) {
			return nil, &httpError{Status: http.StatusInternalServerError, Msg: err.Error()}
		}
		return nil, badRequest(err.Error())
	}
	now := s.now()
	c := &cursor{
		id:       id,
		kind:     normKind(req.Kind),
		index1:   req.Index1,
		index2:   req.Index2,
		created:  now,
		sc:       sc,
		tracer:   opts.Tracer,
		it:       it,
		cancel:   cancel,
		gone:     make(chan struct{}),
		deadline: now.Add(s.cfg.TTL),
	}
	if s.cfg.MaxCursorWall > 0 {
		stop := s.after(s.cfg.MaxCursorWall, func() { cancel(errCursorWallOver) })
		c.cancel = func(cause error) {
			cancel(cause)
			stop()
		}
	}
	return c, nil
}

// beginDrain stops admission — readiness flips to 503 — and hard-cancels
// every live cursor, so in-flight pulls surface ErrCanceled promptly and
// new queries are refused while existing clients can still observe their
// cursors' terminal state.
func (s *Server) beginDrain() {
	for _, c := range s.table.refuse() {
		c.cancel(errCursorDrained)
	}
}

// Close stops the janitor and retires every open cursor: all are
// hard-canceled first, so a pull in flight ends within an engine step
// rather than being waited out, then Close waits until every engine
// iterator has been released. It does not close the registry (the caller
// owns it via Config). Idempotent.
func (s *Server) Close() error {
	var first error
	s.closing.Do(func() {
		close(s.janitorStop)
		<-s.janitorDone
		cursors := s.table.refuse()
		for _, c := range cursors {
			s.retire(c, errCursorDrained)
		}
		for _, c := range cursors {
			<-c.gone
			if first == nil {
				first = c.closeErr
			}
		}
	})
	return first
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
// routes (metrics, debug) beside the service's before serving.
func Start(addr string, cfg Config, mount func(srv *Server, mux *http.ServeMux)) (*Running, error) {
	srv := NewServer(cfg)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if mount != nil {
		mount(srv, mux)
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
