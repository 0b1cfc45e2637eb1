package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"distjoin/internal/qtrace"
	"distjoin/internal/stats"
)

// TestQuantileEmptyHistogram is the regression test for the empty-histogram
// quantile edge case: every quantile of a histogram with zero samples must
// report 0 — never NaN, never a bogus bucket midpoint — including through
// the snapshot. Degenerate q values must be safe on populated histograms
// too.
func TestQuantileEmptyHistogram(t *testing.T) {
	var h Histogram
	for _, q := range []float64{0.5, 0.95, 0.99, 0, -1, 2, math.NaN()} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
	snap := h.Quantiles()
	if snap.P95S != 0 || snap.P50S != 0 || snap.P99S != 0 || math.IsNaN(snap.MeanS) {
		t.Errorf("empty histogram snapshot = %+v, want all-zero", snap)
	}

	// Degenerate q on a populated histogram: non-positive and NaN report 0,
	// q > 1 clamps to the maximum observation's bucket.
	h.Observe(100 * time.Millisecond)
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Errorf("Quantile(NaN) = %v, want 0", got)
	}
	if got := h.Quantile(-0.5); got != 0 {
		t.Errorf("Quantile(-0.5) = %v, want 0", got)
	}
	if got := h.Quantile(3); got != h.Quantile(1) {
		t.Errorf("Quantile(3) = %v, want Quantile(1) = %v", got, h.Quantile(1))
	}
}

// TestServeMetricsShutdown pins the server lifecycle: Close waits for the
// serve goroutine to exit (no goroutine leak), the port is released, and a
// second Close is a no-op returning nil.
func TestServeMetricsShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := ServeMetricsTraced("127.0.0.1:0", New(Config{}), nil)
	if err != nil {
		t.Fatalf("ServeMetrics: %v", err)
	}
	addr := srv.Addr()
	// A private transport so the test owns every client goroutine: the
	// shared DefaultTransport keeps idle keep-alive connections (and
	// their read loops) alive past the request.
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
	if _, err := client.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatalf("server still serving after Close")
	}
	tr.CloseIdleConnections()
	// The serve goroutine must be gone. NumGoroutine is noisy (finished
	// request handlers unwind asynchronously), so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across ServeMetrics lifecycle: %d before, %d after", before, after)
	}
}

// traceQuery lands one completed query (one pair reported, two node reads)
// in the tracer's flight recorder.
func traceQuery(qt *qtrace.Tracer, kind, id string) {
	qt.Begin(kind, id).Finish(qtrace.Report{Counts: stats.Counters{PairsReported: 1, NodeReads: 2}}, nil)
}

func TestQueriesHandler(t *testing.T) {
	qt := qtrace.New(qtrace.Config{})
	traceQuery(qt, "join", "alpha")
	traceQuery(qt, "knn", "beta")

	h := QueriesHandler("/debug/queries", qt)
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.String()
	}

	code, body := get("/debug/queries")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/queries: status %d", code)
	}
	var all []qtrace.QueryTrace
	if err := json.Unmarshal([]byte(body), &all); err != nil {
		t.Fatalf("flight-recorder dump is not JSON: %v", err)
	}
	if len(all) != 2 || all[0].ID != "beta" || all[1].ID != "alpha" {
		t.Fatalf("dump = %v, want [beta alpha]", all)
	}

	code, body = get("/debug/queries/alpha")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/queries/alpha: status %d", code)
	}
	var one qtrace.QueryTrace
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatalf("single trace is not JSON: %v", err)
	}
	if one.ID != "alpha" || one.Kind != "join" || one.Resources.Pairs != 1 {
		t.Fatalf("trace = %+v", one)
	}

	if code, _ = get("/debug/queries/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown query id: status %d, want 404", code)
	}

	if code, _ = get("/debug/queries"); code != http.StatusOK {
		t.Fatalf("repeat dump: status %d", code)
	}
	nilCode := httptest.NewRecorder()
	QueriesHandler("/debug/queries", nil).ServeHTTP(nilCode, httptest.NewRequest(http.MethodGet, "/debug/queries", nil))
	if nilCode.Code != http.StatusNotFound {
		t.Fatalf("nil tracer handler: status %d, want 404", nilCode.Code)
	}
}

// TestPerQueryNumbersLiveInDebugQueries pins where per-query numbers are
// served. /metrics carries only the bounded distjoin_queries_active gauge —
// the nine distjoin_query_*{query=…,kind=…} families were removed (one label
// value per query id is unbounded cardinality) — and every number they
// carried (wall, coverage, pairs, node I/O, faults, peak depth, …) is read
// from the same query's /debug/queries/<id> document instead.
func TestPerQueryNumbersLiveInDebugQueries(t *testing.T) {
	qt := qtrace.New(qtrace.Config{})
	traceQuery(qt, "join", "gauged")
	live := qt.Begin("knn", "running") // stays active during the scrape

	rec := httptest.NewRecorder()
	HandlerTraced(New(Config{}), qt).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "distjoin_queries_active 1") {
		t.Errorf("/metrics missing the active-query gauge:\n%s", body)
	}
	if strings.Contains(body, "distjoin_query_") || strings.Contains(body, `query="`) {
		t.Errorf("/metrics still carries per-query labeled families:\n%s", body)
	}

	rec = httptest.NewRecorder()
	QueriesHandler("/debug/queries", qt).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/queries/gauged", nil))
	var one qtrace.QueryTrace
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatalf("/debug/queries/gauged is not JSON: %v", err)
	}
	r := one.Resources
	if one.Kind != "join" || one.WallSeconds <= 0 || r.Pairs != 1 || r.NodeIO != 2 || r.IOFaults != 0 || r.PeakQueueDepth != 0 {
		t.Errorf("/debug/queries/gauged = %+v", one)
	}
	if !strings.Contains(rec.Body.String(), `"phase_coverage"`) {
		t.Errorf("trace document lacks phase_coverage:\n%s", rec.Body.String())
	}
	live.Finish(qtrace.Report{}, nil)
}

// TestWriteMetricsNilRecorder pins that the exposition is nil-safe in the
// recorder (the repo-wide "nil is valid everywhere" convention): a tracer-only server must still serve its active-query
// gauge.
func TestWriteMetricsNilRecorder(t *testing.T) {
	qt := qtrace.New(qtrace.Config{})
	traceQuery(qt, "join", "solo")
	rec := httptest.NewRecorder()
	HandlerTraced(nil, qt).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "distjoin_queries_active 0") {
		t.Errorf("nil-recorder /metrics missing the active-query gauge:\n%s", body)
	}
	if strings.Contains(body, "distjoin_pairs_delivered_total") {
		t.Errorf("nil-recorder /metrics emitted recorder families:\n%s", body)
	}
	var none strings.Builder
	WriteMetricsTraced(&none, nil, nil) // fully nil: build info only, no panic
	if out := none.String(); !strings.Contains(out, "distjoin_build_info{") || strings.Count(out, "# HELP") != 1 {
		t.Errorf("all-nil WriteMetricsTraced wrote %q, want exactly the build-info family", out)
	}
}

// TestServeMetricsTraced wires the whole surface over a real listener:
// /metrics carries the active-query gauge and /debug/queries serves the
// flight recorder.
func TestServeMetricsTraced(t *testing.T) {
	qt := qtrace.New(qtrace.Config{})
	traceQuery(qt, "join", "served")
	srv, err := ServeMetricsTraced("127.0.0.1:0", New(Config{}), qt)
	if err != nil {
		t.Fatalf("ServeMetricsTraced: %v", err)
	}
	defer srv.Close()
	fetch := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if body := fetch("/metrics"); !strings.Contains(body, "distjoin_queries_active 0") {
		t.Errorf("/metrics missing the active-query gauge:\n%s", body)
	}
	if body := fetch("/debug/queries/served"); !strings.Contains(body, `"id": "served"`) || !strings.Contains(body, `"wall_seconds"`) {
		t.Errorf("/debug/queries/served missing trace:\n%s", body)
	}
}
