package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"distjoin/internal/stats"
)

// TestNilRecorder exercises every hook on a nil receiver: nothing may
// panic, and queries return zero values.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Emit(2.5, 10, time.Microsecond, time.Microsecond)
	if r.Counts() != nil {
		t.Error("nil.Counts() should be nil")
	}
	if s := r.Snapshot(); s != (Snapshot{}) {
		t.Error("nil.Snapshot() should be zero")
	}
}

// TestNilRecorderAllocs asserts the disabled path allocates nothing — the
// engine calls these per emitted pair.
func TestNilRecorderAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(2.0, 5, time.Microsecond, time.Microsecond)
		r.Counts().Merge(nil)
	})
	if allocs != 0 {
		t.Errorf("nil Recorder hooks allocated %v per run, want 0", allocs)
	}
}

// TestRecorderCountsAndSnapshot drives the recorder the way a meter does:
// each emitted pair hands over its pop-to-emit time and its query's
// inter-pair delay (negative for the query's first pair), and the work counts
// are folded in through Counts. The snapshot holds the two histograms; the
// gauges print what the last pair set, the delivered count prints from the
// counts.
func TestRecorderCountsAndSnapshot(t *testing.T) {
	r := New(Config{})
	r.Emit(1.0, 7, 3*time.Microsecond, -1)
	r.Emit(2.0, 6, 5*time.Microsecond, 6*time.Microsecond)
	r.Counts().Merge(&stats.Counters{PairsReported: 2})
	s := r.Snapshot()
	if s.PopToEmit.Count != 2 || s.InterPairDelay.Count != 1 {
		t.Errorf("pop-to-emit count %d, inter-pair count %d; want 2 and 1 (the first pair has no predecessor)",
			s.PopToEmit.Count, s.InterPairDelay.Count)
	}
	if r.popToEmit.Sum() != 8*time.Microsecond || r.interPair.Sum() != 6*time.Microsecond {
		t.Errorf("pop-to-emit sum %v, inter-pair sum %v; want 8µs and 6µs from the stamps alone",
			r.popToEmit.Sum(), r.interPair.Sum())
	}
	var b strings.Builder
	WriteMetricsTraced(&b, r, nil)
	for _, want := range []string{"\ndistjoin_frontier_distance 2\n", "\ndistjoin_queue_depth 6\n", "\ndistjoin_pairs_delivered_total 2\n"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %q", strings.TrimSpace(want))
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Nanosecond) // bucket of [8,16)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count=%d", h.Count())
	}
	p50 := h.Quantile(0.50)
	if p50 < 8*time.Nanosecond || p50 >= 16*time.Nanosecond {
		t.Errorf("p50=%v, want within [8ns,16ns)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 8*time.Microsecond || p99 >= 17*time.Microsecond {
		t.Errorf("p99=%v, want around 10µs", p99)
	}
	if (&Histogram{}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

// TestPoolHitRatioFromCounts: a buffer pool attached with Index.SetObserver
// adds its node I/O to the recorder's counts (stats.NodeSink fans one pool
// handle out to several views — the PoolTap wrapper this replaced is gone),
// and the hit-ratio gauge prints from them.
func TestPoolHitRatioFromCounts(t *testing.T) {
	r := New(Config{})
	inner := &stats.Counters{}
	tap := stats.NodeSink(inner, r.Counts())
	tap.AddRead(2)
	tap.AddHit(6)
	tap.AddWrite(1)
	if inner.NodeReads != 2 || inner.BufferHits != 6 || inner.NodeWrites != 1 {
		t.Errorf("inner view = %+v, want 2/6/1", inner)
	}
	var b strings.Builder
	WriteMetricsTraced(&b, r, nil)
	if !strings.Contains(b.String(), "\ndistjoin_pool_hit_ratio 0.75\n") {
		t.Errorf("exposition lacks distjoin_pool_hit_ratio 0.75:\n%s", b.String())
	}
}

func TestMetricsHandler(t *testing.T) {
	r := New(Config{})
	r.Emit(1.0, 4, 0, -1)
	r.Emit(2.0, 3, 0, 0)
	r.Counts().Merge(&stats.Counters{PairsReported: 2, Expansions: 5})
	rec := httptest.NewRecorder()
	HandlerTraced(r, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE distjoin_pairs_delivered_total counter",
		"distjoin_pairs_delivered_total 2",
		"distjoin_expansions_total 5",
		"distjoin_queue_depth 3",
		"# TYPE distjoin_inter_pair_delay_seconds histogram",
		`distjoin_pop_to_emit_seconds_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n%s", want, body)
		}
	}
}

func TestServeMetrics(t *testing.T) {
	r := New(Config{})
	r.Emit(5.0, 0, 0, -1)
	srv, err := ServeMetricsTraced("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatalf("ServeMetrics: %v", err)
	}
	defer srv.Close()
	// /debug/vars is gone: the expvar publication duplicated /metrics (and
	// held process-global state); /debug/queries is the JSON surface.
	for _, path := range []string{"/metrics", "/debug/queries"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if path == "/metrics" && (resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "distjoin_frontier_distance 5")) {
			t.Errorf("GET %s: status %d, missing frontier gauge:\n%s", path, resp.StatusCode, body)
		}
		// No tracer attached: the flight recorder answers 404, not a panic.
		if path == "/debug/queries" && resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without a tracer: status %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", srv.Addr()))
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/vars: status %d, want 404 (expvar publication removed)", resp.StatusCode)
	}
}

// TestConcurrentHooks drives all hooks from many goroutines so `go test
// -race ./internal/obs` exercises the atomics: a server's cursors share one
// recorder.
func TestConcurrentHooks(t *testing.T) {
	r := New(Config{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Emit(float64(i), i, time.Microsecond, time.Duration(i-1))
				r.Counts().Merge(&stats.Counters{PairsReported: 1})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	if n := r.Counts().Snapshot().PairsReported; n != 800 {
		t.Errorf("delivered=%d, want 800", n)
	}
	if s := r.Snapshot(); s.PopToEmit.Count != 800 || s.InterPairDelay.Count != 796 {
		t.Errorf("histogram counts %d / %d, want 800 pop-to-emit and 796 delays (4 first pairs)", s.PopToEmit.Count, s.InterPairDelay.Count)
	}
}

func TestQuantilesMethod(t *testing.T) {
	var h Histogram
	for i := 0; i < 95; i++ {
		h.Observe(10 * time.Nanosecond)
	}
	for i := 0; i < 5; i++ {
		h.Observe(10 * time.Microsecond)
	}
	q := h.Quantiles()
	if q.Count != 100 {
		t.Fatalf("count=%d", q.Count)
	}
	if q.P50S <= 0 || q.P50S >= 16e-9 {
		t.Errorf("p50=%g, want within (0,16ns)", q.P50S)
	}
	if q.P95S >= q.P99S+1e-12 && q.P95S > 16e-9 {
		t.Errorf("p95=%g exceeds p99=%g", q.P95S, q.P99S)
	}
	if q.P99S < 8e-6 {
		t.Errorf("p99=%g, want around 10µs", q.P99S)
	}
}

// TestMetricsQuantileGauges pins that /metrics prints no quantile gauges:
// they were derived from the histogram buckets printed beside them. The
// quantiles stay readable from the snapshot (-explain and ObsSnapshot).
func TestMetricsQuantileGauges(t *testing.T) {
	r := New(Config{})
	r.Emit(1.0, 4, time.Microsecond, -1)
	r.Emit(1.0, 3, time.Microsecond, time.Microsecond)
	r.Emit(2.0, 2, 2*time.Microsecond, time.Microsecond)
	rec := httptest.NewRecorder()
	HandlerTraced(r, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	if strings.Contains(body, "quantile") {
		t.Errorf("metrics output has a quantile family:\n%s", body)
	}
	for _, want := range []string{
		`distjoin_inter_pair_delay_seconds_count 2`,
		`distjoin_pop_to_emit_seconds_count 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if s := r.Snapshot(); s.InterPairDelay.Count != 2 || s.PopToEmit.P99S <= 0 {
		t.Errorf("snapshot quantiles = %+v / %+v, want 2 delays and a pop-to-emit p99", s.InterPairDelay, s.PopToEmit)
	}
}
