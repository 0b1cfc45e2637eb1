package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"distjoin"
	"distjoin/internal/faultstore"
	"distjoin/internal/obs"
	"distjoin/internal/pager"
	"distjoin/internal/qtrace"
)

// syncBuffer is a goroutine-safe bytes.Buffer for the slog sink (handlers
// run on server goroutines).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// traceFixture is the full observability rig: fixture server wired to a
// query tracer, a RED collector, and a JSON request log.
type traceFixture struct {
	*testFixture
	tracer *distjoin.QueryTracer
	red    *obs.RED
	log    *syncBuffer
}

func newTraceFixture(t *testing.T) *traceFixture {
	t.Helper()
	tf := &traceFixture{
		tracer: distjoin.NewQueryTracer(distjoin.QueryTraceConfig{FlightSize: 8}),
		red:    obs.NewRED(),
		log:    &syncBuffer{},
	}
	tf.testFixture = newFixture(t, 120, 160, func(cfg *Config) {
		cfg.Tracer = tf.tracer
		// A template query id must not displace the cursor id, under which
		// the trace lands and its registrations are consumed.
		cfg.BaseOptions.QueryID = "template"
		cfg.RED = tf.red
		cfg.Logger = slog.New(slog.NewJSONHandler(tf.log, nil))
	})
	return tf
}

// doTraced performs one request carrying the client's trace context and
// returns status, body, and the echoed response span context.
func (tf *traceFixture) doTraced(t *testing.T, method, path, traceparent string, body any) (int, []byte, qtrace.SpanContext) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, tf.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
		req.Header.Set("tracestate", "vendor=distjoin-test")
	}
	resp, err := tf.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	echo, _ := qtrace.ParseTraceParent(resp.Header.Get("Traceparent"))
	if q := resp.Header.Get("X-Distjoin-Query"); resp.StatusCode < 300 && q == "" {
		t.Fatalf("%s %s answered without X-Distjoin-Query", method, path)
	}
	return resp.StatusCode, buf.Bytes(), echo
}

// debugTrace fetches a cursor's query trace document as /debug/queries/<id>
// serves it.
func (tf *traceFixture) debugTrace(t *testing.T, cursor string) distjoin.QueryTrace {
	t.Helper()
	rec := httptest.NewRecorder()
	distjoin.QueriesHandler("/debug/queries", tf.tracer).ServeHTTP(rec,
		httptest.NewRequest(http.MethodGet, "/debug/queries/"+cursor, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/queries/%s: status %d: %s", cursor, rec.Code, rec.Body)
	}
	var qt distjoin.QueryTrace
	if err := json.Unmarshal(rec.Body.Bytes(), &qt); err != nil {
		t.Fatal(err)
	}
	return qt
}

// create opens a cursor under the given client traceparent (none when
// empty) and returns it with the create response's echo.
func (tf *traceFixture) create(t *testing.T, traceparent string, req QueryRequest) (CreateResponse, qtrace.SpanContext) {
	t.Helper()
	code, raw, echo := tf.doTraced(t, http.MethodPost, "/v1/query", traceparent, req)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, raw)
	}
	var cr CreateResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.TraceParent != echo.TraceParent() {
		t.Fatalf("body traceparent %q != header %q", cr.TraceParent, echo.TraceParent())
	}
	return cr, echo
}

// drain pulls k at a time until the cursor is done, checking that every
// pull echoes want, and returns the number of pulls.
func (tf *traceFixture) drain(t *testing.T, cursor, traceparent string, want qtrace.SpanContext) (pulls int) {
	t.Helper()
	for done := false; !done; pulls++ {
		if pulls > 20 {
			t.Fatal("cursor never exhausted")
		}
		code, raw, echo := tf.doTraced(t, http.MethodGet, "/v1/cursor/"+cursor+"/next?k=10", traceparent, nil)
		if code != http.StatusOK {
			t.Fatalf("pull %d: status %d: %s", pulls, code, raw)
		}
		if echo.TraceParent() != want.TraceParent() {
			t.Fatalf("pull %d echoed %q, want the query span %q", pulls, echo.TraceParent(), want.TraceParent())
		}
		var nr NextResponse
		if err := json.Unmarshal(raw, &nr); err != nil {
			t.Fatal(err)
		}
		done = nr.Done
	}
	return pulls
}

// TestStitchedTraceAcrossPulls is the acceptance path of the tracing work:
// a client that sends one traceparent across a create + multi-pull session
// finds the whole session in one document at /debug/queries/<cursor>. The
// cursor's query span is a child of the client's span, every response
// answers in the client's trace, and the document counts the pulls and
// their time beside the engine's span tree — DESIGN §8.6's "client wait vs
// engine work".
func TestStitchedTraceAcrossPulls(t *testing.T) {
	tf := newTraceFixture(t)
	const clientTP = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	const clientTrace = "0af7651916cd43dd8448eb211c80319c"
	const clientSpan = "b7ad6b7169203331"

	cr, createEcho := tf.create(t, clientTP, QueryRequest{Kind: "join", Index1: "water", Index2: "roads", MaxPairs: 30})
	if createEcho.TraceID.String() != clientTrace {
		t.Fatalf("create echoed trace %s, want the client's %s", createEcho.TraceID, clientTrace)
	}
	if createEcho.SpanID.String() == clientSpan {
		t.Fatal("create echoed the client's own span id instead of the query span's")
	}
	pulls := tf.drain(t, cr.Cursor, clientTP, createEcho)

	qt := tf.debugTrace(t, cr.Cursor)
	if qt.TraceID != clientTrace || qt.ParentSpanID != clientSpan {
		t.Fatalf("query trace %s parented on %s, want the client's %s / %s", qt.TraceID, qt.ParentSpanID, clientTrace, clientSpan)
	}
	if qt.SpanID != createEcho.SpanID.String() {
		t.Fatalf("query span id %s, but create echoed %s", qt.SpanID, createEcho.SpanID)
	}
	if qt.Pulls != int64(pulls) {
		t.Fatalf("trace counts %d pulls, the client made %d", qt.Pulls, pulls)
	}
	// The engine works only inside pulls, and the pulls only inside the
	// query's life: worker ≤ pull_seconds ≤ wall_seconds.
	worker := qt.Root.Find("worker")
	if worker == nil || len(worker.Children) == 0 || len(qt.Root.Children) == 0 {
		t.Fatalf("no engine phases under the root span: %+v", qt.Root)
	}
	if qt.PullSeconds <= 0 || worker.Seconds > qt.PullSeconds || qt.PullSeconds > qt.WallSeconds {
		t.Fatalf("worker %g s, pulls %g s, wall %g s: want 0 < worker ≤ pulls ≤ wall", worker.Seconds, qt.PullSeconds, qt.WallSeconds)
	}

	// RED saw the pulls; the request log carries the trace id.
	var metrics strings.Builder
	tf.red.WritePrometheus(&metrics)
	if !strings.Contains(metrics.String(), fmt.Sprintf(`distjoin_http_requests_total{endpoint="next",code="2xx"} %d`, pulls)) {
		t.Errorf("RED exposition missing the %d pulls:\n%s", pulls, metrics.String())
	}
	logged := tf.log.String()
	if !strings.Contains(logged, clientTrace) {
		t.Errorf("request log never mentions the trace id:\n%s", logged)
	}
	if !strings.Contains(logged, cr.Cursor) {
		t.Errorf("request log never mentions the cursor id:\n%s", logged)
	}
}

// TestUntracedSessionStillExportsOneTrace: no client traceparent — the
// server mints a root, echoes it on the create and on every pull, and the
// query trace is that root, with the pulls counted.
func TestUntracedSessionStillExportsOneTrace(t *testing.T) {
	tf := newTraceFixture(t)
	cr, createEcho := tf.create(t, "", QueryRequest{Kind: "join", Index1: "water", Index2: "roads", MaxPairs: 5})
	if !createEcho.Valid() {
		t.Fatal("untraced create did not echo a fresh traceparent")
	}
	pulls := tf.drain(t, cr.Cursor, "", createEcho)
	qt := tf.debugTrace(t, cr.Cursor)
	if qt.TraceID != createEcho.TraceID.String() || qt.SpanID != createEcho.SpanID.String() || qt.ParentSpanID != "" {
		t.Fatalf("query trace %s/%s parent %q, want the minted root %s", qt.TraceID, qt.SpanID, qt.ParentSpanID, createEcho.TraceParent())
	}
	if qt.Pulls != int64(pulls) {
		t.Fatalf("trace counts %d pulls, the client made %d", qt.Pulls, pulls)
	}
}

// TestStreamPullExportsSpan: an NDJSON stream pull answers in the client's
// trace and counts as one pull, however many pairs it streams.
func TestStreamPullExportsSpan(t *testing.T) {
	tf := newTraceFixture(t)
	const clientTP = "00-11111111111111111111111111111111-2222222222222222-01"
	cr, _ := tf.create(t, clientTP, QueryRequest{Kind: "join", Index1: "water", Index2: "roads", MaxPairs: 8})
	code, _, echo := tf.doTraced(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/stream?k=100", clientTP, nil)
	if code != http.StatusOK {
		t.Fatalf("stream: %d", code)
	}
	if echo.TraceID.String() != "11111111111111111111111111111111" {
		t.Fatalf("stream echoed trace %s", echo.TraceID)
	}
	qt := tf.debugTrace(t, cr.Cursor)
	if qt.ParentSpanID != "2222222222222222" {
		t.Errorf("query trace parent %s, want the client span", qt.ParentSpanID)
	}
	if qt.Pulls != 1 || qt.Resources.Pairs != 8 {
		t.Errorf("stream of 8 pairs traced as %d pulls, %d pairs; want 1 pull, 8 pairs", qt.Pulls, qt.Resources.Pairs)
	}
}

// TestEndpointNames pins the RED label set.
func TestEndpointNames(t *testing.T) {
	cases := []struct {
		method, path, want string
	}{
		{"POST", "/v1/query", "query"},
		{"GET", "/v1/cursor/c1/next", "next"},
		{"GET", "/v1/cursor/c1/stream", "stream"},
		{"GET", "/v1/cursor/c1", "info"},
		{"DELETE", "/v1/cursor/c1", "delete"},
		{"GET", "/v1/cursor/c1/bogus", "cursor_other"},
		{"GET", "/v1/indexes", "indexes"},
		{"GET", "/healthz", "healthz"},
		{"GET", "/readyz", "readyz"},
		{"GET", "/nope", "other"},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(tc.method, tc.path, nil)
		if got := endpointName(r); got != tc.want {
			t.Errorf("%s %s → %q, want %q", tc.method, tc.path, got, tc.want)
		}
	}
}

// TestMiddlewareObservesErrors: a 404 pull lands in the RED request counts
// as a 4xx and in the log at the right status even though no cursor handler
// ran.
func TestMiddlewareObservesErrors(t *testing.T) {
	tf := newTraceFixture(t)
	code, _, _ := tf.doTraced(t, http.MethodGet, "/v1/cursor/c9999999/next", "", nil)
	if code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", code)
	}
	var b strings.Builder
	tf.red.WritePrometheus(&b)
	if !strings.Contains(b.String(), `distjoin_http_requests_total{endpoint="next",code="4xx"} 1`) {
		t.Errorf("404 not classified as a client error:\n%s", b.String())
	}
	if !strings.Contains(tf.log.String(), fmt.Sprintf(`"status":%d`, http.StatusNotFound)) {
		t.Errorf("404 missing from the request log:\n%s", tf.log.String())
	}
}

// TestRequestLogLevels pins the request log's levels. A successful next or
// stream pull logs at debug only, so a session writes no line per pull at
// the default level; a failed pull logs at info (4xx) or error (5xx);
// create, info and delete log at info. Every line carries the trace id and
// the query the request belongs to.
func TestRequestLogLevels(t *testing.T) {
	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	const traceID = "0af7651916cd43dd8448eb211c80319c"
	for _, level := range []slog.Level{slog.LevelInfo, slog.LevelDebug} {
		t.Run(level.String(), func(t *testing.T) {
			log := &syncBuffer{}
			f := newFixture(t, 120, 200, func(c *Config) {
				c.Logger = slog.New(slog.NewJSONHandler(log, &slog.HandlerOptions{Level: level}))
				// A hybrid cursor's third page write fails: its pull answers 500.
				c.BaseOptions = distjoin.Options{QueueStore: func(pageSize int) (pager.Store, error) {
					mem, err := pager.NewMemStore(pageSize)
					return faultstore.New(mem, faultstore.Config{Seed: 1, FailWriteAt: 3}), err
				}}
			})
			var cursor, faulty string
			for _, step := range []struct {
				name, method string
				path         func() string
				body         any
				status       int
				level        string  // the line's level
				into         *string // keeps the created cursor's id
			}{
				{"create", http.MethodPost, func() string { return "/v1/query" },
					QueryRequest{Kind: "join", Index1: "water", Index2: "roads"}, http.StatusCreated, "INFO", &cursor},
				{"next", http.MethodGet, func() string { return "/v1/cursor/" + cursor + "/next?k=5" }, nil, http.StatusOK, "DEBUG", nil},
				{"stream", http.MethodGet, func() string { return "/v1/cursor/" + cursor + "/stream?k=5" }, nil, http.StatusOK, "DEBUG", nil},
				{"info", http.MethodGet, func() string { return "/v1/cursor/" + cursor }, nil, http.StatusOK, "INFO", nil},
				{"next-404", http.MethodGet, func() string { return "/v1/cursor/c9999999/next?k=5" }, nil, http.StatusNotFound, "INFO", nil},
				{"stream-404", http.MethodGet, func() string { return "/v1/cursor/c9999999/stream?k=5" }, nil, http.StatusNotFound, "INFO", nil},
				{"create-hybrid", http.MethodPost, func() string { return "/v1/query" },
					QueryRequest{Kind: "join", Index1: "water", Index2: "roads", Queue: "hybrid", HybridDT: 1}, http.StatusCreated, "INFO", &faulty},
				{"next-500", http.MethodGet, func() string { return "/v1/cursor/" + faulty + "/next?k=10000" }, nil, http.StatusInternalServerError, "ERROR", nil},
				{"delete", http.MethodDelete, func() string { return "/v1/cursor/" + cursor }, nil, http.StatusNoContent, "INFO", nil},
			} {
				var rd io.Reader
				if step.body != nil {
					raw, _ := json.Marshal(step.body)
					rd = bytes.NewReader(raw)
				}
				req, err := http.NewRequest(step.method, f.ts.URL+step.path(), rd)
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("traceparent", tp)
				before := len(log.String())
				resp, err := f.ts.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				raw, _ := io.ReadAll(resp.Body) // to EOF: the line is written by then
				resp.Body.Close()
				if resp.StatusCode != step.status {
					t.Fatalf("%s: status %d, want %d: %s", step.name, resp.StatusCode, step.status, raw)
				}
				query := resp.Header.Get("X-Distjoin-Query")
				if step.into != nil {
					*step.into = query
				}
				lines := strings.TrimSpace(log.String()[before:])
				if step.level == "DEBUG" && level > slog.LevelDebug {
					if lines != "" {
						t.Errorf("%s: a successful pull logged at %v: %s", step.name, level, lines)
					}
					continue
				}
				var line struct {
					Level   string `json:"level"`
					TraceID string `json:"trace_id"`
					Query   string `json:"query"`
					Status  int    `json:"status"`
				}
				if strings.Count(lines, "\n") != 0 || json.Unmarshal([]byte(lines), &line) != nil {
					t.Fatalf("%s: want one JSON line, logged %q", step.name, lines)
				}
				if line.Level != step.level || line.Status != step.status || line.TraceID != traceID || line.Query != query {
					t.Errorf("%s: logged %+v, want level %s, status %d, trace id %s, query %q",
						step.name, line, step.level, step.status, traceID, query)
				}
			}
		})
	}
}
