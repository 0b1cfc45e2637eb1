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
	"time"

	"distjoin"
	"distjoin/internal/faultstore"
	"distjoin/internal/obs"
	"distjoin/internal/otlpexport"
	"distjoin/internal/otlptest"
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

// traceFixture is the full observability rig: fixture server wired to an
// in-process OTLP collector, a RED collector, and a JSON request log.
type traceFixture struct {
	*testFixture
	col *otlptest.Collector
	exp *otlpexport.Exporter
	red *obs.RED
	log *syncBuffer
}

func newTraceFixture(t *testing.T) *traceFixture {
	t.Helper()
	col := &otlptest.Collector{}
	cts := httptest.NewServer(col)
	t.Cleanup(cts.Close)
	exp := otlpexport.New(otlpexport.Config{Endpoint: cts.URL + "/v1/traces", Service: "distjoind-test"})
	t.Cleanup(func() { exp.Close() })
	tf := &traceFixture{col: col, exp: exp, red: obs.NewRED(), log: &syncBuffer{}}
	tf.testFixture = newFixture(t, 120, 160, func(cfg *Config) {
		// The tracer's completion hook ships every finished query's engine
		// span tree; the server ships one span per pull.
		cfg.Tracer = distjoin.NewQueryTracer(distjoin.QueryTraceConfig{
			FlightSize: 8,
			OnComplete: exp.OnComplete,
		})
		cfg.Exporter = exp
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
	return resp.StatusCode, buf.Bytes(), echo
}

// TestStitchedTraceAcrossPulls is the acceptance path of the tracing work:
// a client that sends one traceparent across a create + multi-pull session
// gets exactly one distributed trace at the collector — the cursor's query
// span (and the engine tree under it) a child of the client's span, every
// pull a sibling server span linked to the query span, nothing dropped.
func TestStitchedTraceAcrossPulls(t *testing.T) {
	tf := newTraceFixture(t)
	const clientTP = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	const clientTrace = "0af7651916cd43dd8448eb211c80319c"
	const clientSpan = "b7ad6b7169203331"

	code, raw, createEcho := tf.doTraced(t, http.MethodPost, "/v1/query", clientTP,
		QueryRequest{Kind: "join", Index1: "water", Index2: "roads", MaxPairs: 30})
	if code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, raw)
	}
	var cr CreateResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if createEcho.TraceID.String() != clientTrace {
		t.Fatalf("create echoed trace %s, want the client's %s", createEcho.TraceID, clientTrace)
	}
	if createEcho.SpanID.String() == clientSpan {
		t.Fatal("create echoed the client's own span id instead of the query span's")
	}
	if cr.TraceParent != createEcho.TraceParent() {
		t.Fatalf("body traceparent %q != header %q", cr.TraceParent, createEcho.TraceParent())
	}

	// Pull to exhaustion, every request carrying the client context.
	var pulls int
	for done := false; !done; pulls++ {
		if pulls > 20 {
			t.Fatal("cursor never exhausted")
		}
		code, raw, echo := tf.doTraced(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/next?k=10", clientTP, nil)
		if code != http.StatusOK {
			t.Fatalf("pull %d: status %d: %s", pulls, code, raw)
		}
		if echo.TraceID.String() != clientTrace {
			t.Fatalf("pull %d echoed trace %s", pulls, echo.TraceID)
		}
		var nr NextResponse
		if err := json.Unmarshal(raw, &nr); err != nil {
			t.Fatal(err)
		}
		done = nr.Done
	}

	if err := tf.exp.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := tf.exp.StatsSnapshot(); st.DroppedQueue != 0 || st.DroppedExport != 0 {
		t.Fatalf("exporter dropped spans: %+v", st)
	}
	if cs := tf.col.Stats(); cs.Rejected != 0 {
		t.Fatalf("collector rejected posts: %+v", cs)
	}

	// ONE stitched trace: everything the session produced shares the
	// client's trace id.
	byTrace := tf.col.Traces()
	spans, ok := byTrace[clientTrace]
	if !ok {
		t.Fatalf("collector has traces %v, want %s", tf.col.TraceIDs(), clientTrace)
	}
	if len(byTrace) != 1 {
		t.Fatalf("session scattered across %d traces: %v", len(byTrace), tf.col.TraceIDs())
	}

	var query *otlpexport.WireSpan
	var pullSpans []otlpexport.WireSpan
	for i := range spans {
		switch {
		case strings.HasPrefix(spans[i].Name, "query "):
			query = &spans[i]
		case spans[i].Name == "cursor next":
			pullSpans = append(pullSpans, spans[i])
		}
	}
	if query == nil {
		t.Fatalf("no query span among %d spans", len(spans))
	}
	if query.ParentSpanID != clientSpan {
		t.Fatalf("query span parent %s, want the client span %s", query.ParentSpanID, clientSpan)
	}
	if query.SpanID != createEcho.SpanID.String() {
		t.Fatalf("query span id %s, but create echoed %s", query.SpanID, createEcho.SpanID)
	}
	if len(pullSpans) != pulls {
		t.Fatalf("%d pull spans for %d pulls", len(pullSpans), pulls)
	}
	for _, ps := range pullSpans {
		if ps.ParentSpanID != clientSpan {
			t.Errorf("pull span %s parent %s, want client span", ps.SpanID, ps.ParentSpanID)
		}
		if ps.Kind != otlpexport.KindServer {
			t.Errorf("pull span kind %d, want server", ps.Kind)
		}
		if len(ps.Links) != 1 || ps.Links[0].SpanID != query.SpanID || ps.Links[0].TraceID != clientTrace {
			t.Errorf("pull span %s does not link the query span: %+v", ps.SpanID, ps.Links)
		}
	}
	// Engine phase spans nested beneath the query span.
	engineChildren := 0
	for _, sp := range spans {
		if sp.ParentSpanID == query.SpanID {
			engineChildren++
		}
	}
	if engineChildren == 0 {
		t.Error("no engine spans nested under the query span")
	}

	// RED saw the pulls; the request log carries the trace id.
	var metrics strings.Builder
	tf.red.WritePrometheus(&metrics)
	if !strings.Contains(metrics.String(), `distjoin_http_requests_total{endpoint="next",code="2xx"}`) {
		t.Errorf("RED exposition missing pull counts:\n%s", metrics.String())
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
// server mints a root, echoes it, and pulls hang off the query span with no
// redundant self-link.
func TestUntracedSessionStillExportsOneTrace(t *testing.T) {
	tf := newTraceFixture(t)
	code, raw, createEcho := tf.doTraced(t, http.MethodPost, "/v1/query", "",
		QueryRequest{Kind: "join", Index1: "water", Index2: "roads", MaxPairs: 5})
	if code != http.StatusCreated {
		t.Fatalf("create: %d: %s", code, raw)
	}
	if !createEcho.Valid() {
		t.Fatal("untraced create did not echo a fresh traceparent")
	}
	var cr CreateResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	for done := false; !done; {
		code, raw, echo := tf.doTraced(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/next?k=10", "", nil)
		if code != http.StatusOK {
			t.Fatalf("pull: %d: %s", code, raw)
		}
		if echo.TraceID != createEcho.TraceID {
			t.Fatalf("pull echoed trace %s, create minted %s", echo.TraceID, createEcho.TraceID)
		}
		var nr NextResponse
		if err := json.Unmarshal(raw, &nr); err != nil {
			t.Fatal(err)
		}
		done = nr.Done
	}
	if err := tf.exp.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	byTrace := tf.col.Traces()
	if len(byTrace) != 1 {
		t.Fatalf("untraced session produced %d traces: %v", len(byTrace), tf.col.TraceIDs())
	}
	spans := byTrace[createEcho.TraceID.String()]
	for _, sp := range spans {
		if sp.Name == "cursor next" {
			if sp.ParentSpanID != createEcho.SpanID.String() {
				t.Errorf("pull span parent %s, want the query span %s", sp.ParentSpanID, createEcho.SpanID)
			}
			if len(sp.Links) != 0 {
				t.Errorf("pull span self-links its own parent: %+v", sp.Links)
			}
		}
	}
}

// TestStreamPullExportsSpan: the NDJSON path emits the same server span,
// annotated with the streamed pair count.
func TestStreamPullExportsSpan(t *testing.T) {
	tf := newTraceFixture(t)
	const clientTP = "00-11111111111111111111111111111111-2222222222222222-01"
	code, raw, _ := tf.doTraced(t, http.MethodPost, "/v1/query", clientTP,
		QueryRequest{Kind: "join", Index1: "water", Index2: "roads", MaxPairs: 8})
	if code != http.StatusCreated {
		t.Fatalf("create: %d: %s", code, raw)
	}
	var cr CreateResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	code, _, echo := tf.doTraced(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/stream?k=100", clientTP, nil)
	if code != http.StatusOK {
		t.Fatalf("stream: %d", code)
	}
	if echo.TraceID.String() != "11111111111111111111111111111111" {
		t.Fatalf("stream echoed trace %s", echo.TraceID)
	}
	if err := tf.exp.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range tf.col.Spans() {
		if sp.Name == "cursor stream" {
			found = true
			if sp.ParentSpanID != "2222222222222222" {
				t.Errorf("stream span parent %s", sp.ParentSpanID)
			}
			if !hasAttr(sp, "distjoin.pull.pairs", "8") {
				t.Errorf("stream span pair count wrong: %+v", sp.Attributes)
			}
		}
	}
	if !found {
		t.Fatal("no stream span exported")
	}
}

func hasAttr(sp otlpexport.WireSpan, key, intVal string) bool {
	for _, kv := range sp.Attributes {
		if kv.Key == key && kv.Value.IntValue != nil && *kv.Value.IntValue == intVal {
			return true
		}
	}
	return false
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
