package obs

import (
	"bytes"
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
	r.Event(EvEngineStart, 0, 0)
	r.Event(EvEngineStop, 0, 5)
	r.Event(EvRestart, -1, 0)
	r.Expand(0, 1.5, 1)
	r.Emit(-1, 2.5, 10, time.Time{})
	r.Emit(3, 2.5, 10, time.Time{})
	r.Deliver(3.5)
	r.Spill(0, 4.5, 100, 1)
	r.Event(EvMergeStall, 1, 0)
	r.SetPartitions(4)
	if r.PartitionPairs() != nil {
		t.Error("nil.PartitionPairs() should be nil")
	}
	if r.Counts() != nil {
		t.Error("nil.Counts() should be nil")
	}
	if r.Events() != nil {
		t.Error("nil.Events() should be nil")
	}
	if s := r.Snapshot(); s.Delivered != 0 {
		t.Error("nil.Snapshot() should be zero")
	}
	if err := r.Close(); err != nil {
		t.Errorf("nil.Close() = %v", err)
	}
}

// TestNilRecorderAllocs asserts the disabled path allocates nothing — the
// engine calls these per emitted pair.
func TestNilRecorderAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Expand(-1, 1.0, 1)
		r.Emit(-1, 2.0, 5, time.Time{})
		r.Spill(-1, 3.0, 1, 1)
		r.Event(EvRetry, -1, 2)
		r.Counts().Merge(nil)
	})
	if allocs != 0 {
		t.Errorf("nil Recorder hooks allocated %v per run, want 0", allocs)
	}
}

// TestRecorderCountsAndSnapshot drives the recorder the way a meter does:
// events and histogram observations at the hooks, the work counts folded in
// through Counts — the snapshot's counter fields print from those counts.
func TestRecorderCountsAndSnapshot(t *testing.T) {
	r := New(Config{})
	r.Event(EvEngineStart, -1, 0)
	start := time.Now()
	r.Expand(-1, 0.5, 1)
	r.Emit(-1, 1.0, 7, start)
	r.Emit(-1, 2.0, 6, start)
	r.Spill(-1, 3.0, 42, 1)
	r.Event(EvRestart, -1, 0)
	r.Event(EvEngineStop, -1, 2)
	r.Counts().Merge(&stats.Counters{PairsReported: 2, Expansions: 1, QueueDiskPairs: 1, Restarts: 1})
	s := r.Snapshot()
	if s.Delivered != 2 || s.Emitted != 2 {
		t.Errorf("delivered=%d emitted=%d, want 2/2", s.Delivered, s.Emitted)
	}
	if s.Expansions != 1 || s.SpilledPairs != 1 || s.Restarts != 1 {
		t.Errorf("expands=%d spills=%d restarts=%d, want 1/1/1", s.Expansions, s.SpilledPairs, s.Restarts)
	}
	if s.EnginesStarted != 1 || s.EnginesStopped != 1 {
		t.Errorf("engines %d/%d, want 1/1", s.EnginesStarted, s.EnginesStopped)
	}
	if s.Frontier != 2.0 {
		t.Errorf("frontier=%g, want 2", s.Frontier)
	}
	if s.QueueDepth != 6 {
		t.Errorf("queueDepth=%d, want 6", s.QueueDepth)
	}
	if s.PopToEmit.Count != 2 {
		t.Errorf("popToEmit count=%d, want 2", s.PopToEmit.Count)
	}
	if s.InterPairDelay.Count != 1 {
		t.Errorf("interPair count=%d, want 1 (first pair has no predecessor)", s.InterPairDelay.Count)
	}
}

func TestPartitionPairs(t *testing.T) {
	r := New(Config{})
	r.SetPartitions(3)
	start := time.Now()
	r.Emit(0, 1.0, 1, start)
	r.Emit(2, 1.5, 1, start)
	r.Emit(2, 2.0, 1, start)
	r.Deliver(1.0)
	got := r.PartitionPairs()
	want := []int64{1, 0, 2}
	if len(got) != len(want) {
		t.Fatalf("PartitionPairs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PartitionPairs() = %v, want %v", got, want)
		}
	}
	// Partition emits must not count as deliveries.
	if s := r.Snapshot(); s.Delivered != 1 {
		t.Errorf("delivered=%d, want 1", s.Delivered)
	}
}

func TestRingWrap(t *testing.T) {
	r := New(Config{RingSize: 4})
	for i := 0; i < 10; i++ {
		r.Expand(-1, float64(i), int64(i+1))
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := float64(6 + i); ev.Dist != want {
			t.Errorf("event %d dist=%g, want %g (oldest-first after wrap)", i, ev.Dist, want)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := New(Config{Trace: &buf})
	r.Event(EvEngineStart, -1, 0)
	r.Emit(-1, 1.25, 3, time.Now())
	r.Spill(2, 7.5, 9, 1)
	r.Event(EvMergeStall, 1, 0)
	r.Event(EvEngineStop, -1, 1)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	evs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	wantTypes := []EventType{EvEngineStart, EvDeliver, EvSpill, EvMergeStall, EvEngineStop}
	for i, w := range wantTypes {
		if evs[i].Type != w {
			t.Errorf("event %d type=%s, want %s", i, evs[i].Type, w)
		}
	}
	if evs[1].Seq != 1 || evs[1].Dist != 1.25 {
		t.Errorf("deliver event = %+v, want seq=1 dist=1.25", evs[1])
	}
	if evs[2].Part != 2 || evs[2].Dist != 7.5 || evs[2].N != 9 {
		t.Errorf("spill event = %+v, want part=2 dist=7.5 n=9", evs[2])
	}
	if evs[3].Part != 1 {
		t.Errorf("stall event = %+v, want part=1", evs[3])
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{\"t_us\":1,\"ev\":\"deliver\",\"part\":-1}\nnot json\n")); err == nil {
		t.Error("want error for malformed line")
	}
	if _, err := ReadTrace(strings.NewReader("{\"t_us\":1,\"ev\":\"warp\",\"part\":-1}\n")); err == nil {
		t.Error("want error for unknown event type")
	}
}

func TestTimeToKth(t *testing.T) {
	evs := []Event{
		{T: time.Millisecond, Type: EvDeliver, Seq: 1, Dist: 0.1},
		{T: 2 * time.Millisecond, Type: EvExpand},
		{T: 3 * time.Millisecond, Type: EvDeliver, Seq: 2, Dist: 0.2},
	}
	if d, dist, ok := TimeToKth(evs, 2); !ok || d != 3*time.Millisecond || dist != 0.2 {
		t.Errorf("TimeToKth(2) = %v,%g,%v", d, dist, ok)
	}
	if _, _, ok := TimeToKth(evs, 3); ok {
		t.Error("TimeToKth(3) should miss")
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
	s := r.Snapshot()
	if s.PoolHitRatio != 0.75 || s.PoolReads != 2 || s.PoolWrites != 1 {
		t.Errorf("snapshot pool = %d reads %d writes ratio %g, want 2/1/0.75", s.PoolReads, s.PoolWrites, s.PoolHitRatio)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := New(Config{})
	r.SetPartitions(2)
	start := time.Now()
	r.Emit(0, 1.0, 4, start)
	r.Emit(1, 2.0, 3, start)
	r.Deliver(1.0)
	r.Counts().Merge(&stats.Counters{PairsReported: 2, Expansions: 5})
	rec := httptest.NewRecorder()
	HandlerTraced(r, nil, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE distjoin_pairs_delivered_total counter",
		"distjoin_pairs_delivered_total 1",
		"distjoin_pairs_emitted_total 2",
		"distjoin_expansions_total 5",
		"distjoin_queue_depth 3",
		`distjoin_partition_pairs_emitted{part="0"} 1`,
		`distjoin_partition_pairs_emitted{part="1"} 1`,
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
	r.Deliver(5.0)
	srv, err := ServeMetricsTraced("127.0.0.1:0", r, nil, nil)
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
// -race ./internal/obs` exercises the locking.
func TestConcurrentHooks(t *testing.T) {
	var buf bytes.Buffer
	r := New(Config{Trace: &buf, RingSize: 64})
	r.SetPartitions(4)
	var wg sync.WaitGroup
	for p := int32(0); p < 4; p++ {
		wg.Add(1)
		go func(p int32) {
			defer wg.Done()
			r.Event(EvEngineStart, p, 0)
			for i := 0; i < 200; i++ {
				start := time.Now()
				r.Expand(p, float64(i), int64(i+1))
				r.Emit(p, float64(i), i, start)
				if i%50 == 0 {
					r.Spill(p, float64(i), i, 1)
				}
				r.Counts().Merge(&stats.Counters{PairsReported: 1})
			}
			r.Event(EvEngineStop, p, 200)
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r.Deliver(float64(i))
			r.Event(EvMergeStall, int32(i%4), 0)
			_ = r.Snapshot()
			_ = r.Events()
		}
	}()
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s := r.Snapshot()
	if s.Emitted != 800 || s.Delivered != 200 {
		t.Errorf("emitted=%d delivered=%d, want 800/200", s.Emitted, s.Delivered)
	}
	if _, err := ReadTrace(&buf); err != nil {
		t.Errorf("concurrent trace does not parse: %v", err)
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

func TestMetricsQuantileGauges(t *testing.T) {
	r := New(Config{})
	r.Emit(-1, 1.0, 4, time.Now())
	r.Deliver(1.0)
	r.Deliver(2.0)
	rec := httptest.NewRecorder()
	HandlerTraced(r, nil, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE distjoin_inter_pair_delay_quantiles_seconds gauge",
		`distjoin_inter_pair_delay_quantiles_seconds{quantile="0.5"}`,
		`distjoin_inter_pair_delay_quantiles_seconds{quantile="0.95"}`,
		`distjoin_inter_pair_delay_quantiles_seconds{quantile="0.99"}`,
		`distjoin_pop_to_emit_quantiles_seconds{quantile="0.99"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
