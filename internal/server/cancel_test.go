package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"distjoin"
	"distjoin/internal/datagen"
)

// isLeased reports whether a pull holds the cursor's lease.
func isLeased(c *cursor) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leased
}

// waitLease polls until the cursor's lease is out (want) or back (!want).
func waitLease(t *testing.T, c *cursor, want bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for isLeased(c) != want {
		if time.Now().After(deadline) {
			t.Fatalf("cursor lease still %v after 10s", !want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClientDisconnectStopsEngineWork slams the socket partway through a
// huge NDJSON stream and asserts the server stops doing engine work on the
// abandoned response — the per-pull context died, so the pull loop exits
// between Next calls — while the cursor itself stays open and resumable.
func TestClientDisconnectStopsEngineWork(t *testing.T) {
	f := newFixture(t, 1200, 1200, func(c *Config) {
		c.MaxBatch = 10_000_000 // let one stream ask for far more than exists
	})
	cr := f.create(t, QueryRequest{Kind: "join", Index1: "water", Index2: "roads"})

	resp, err := f.ts.Client().Get(f.ts.URL + "/v1/cursor/" + cr.Cursor + "/stream?k=5000000")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 512)); err != nil {
		t.Fatalf("reading stream head: %v", err)
	}
	resp.Body.Close() // disconnect with millions of pairs still unstreamed

	c, herr := f.srv.table.lookup(cr.Cursor)
	if herr != nil {
		t.Fatalf("cursor vanished after disconnect: %v", herr.Msg)
	}
	waitLease(t, c, false)

	// The engine must be quiescent now: the server-wide counters (this is
	// the only cursor, and its engine folds into them at every step) stop
	// advancing.
	s1 := f.rec.Counts().Snapshot()
	time.Sleep(100 * time.Millisecond)
	s2 := f.rec.Counts().Snapshot()
	if s2.PairsReported != s1.PairsReported || s2.DistCalcs != s1.DistCalcs || s2.QueuePops != s1.QueuePops {
		t.Fatalf("engine still working after client disconnect: %+v then %+v", s1, s2)
	}

	// Soft stop: the cursor survived and resumes exactly where it left off.
	code, raw := f.do(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/next?k=5", nil)
	if code != http.StatusOK {
		t.Fatalf("resume after disconnect: %d: %s", code, raw)
	}
	var nr NextResponse
	if err := json.Unmarshal(raw, &nr); err != nil {
		t.Fatal(err)
	}
	if len(nr.Pairs) != 5 || nr.Done || nr.Truncated != "" {
		t.Fatalf("resume pull = %d pairs done=%v truncated=%q", len(nr.Pairs), nr.Done, nr.Truncated)
	}
}

// TestPullTimeoutTruncates covers the soft per-pull deadline, both as a
// request parameter and as the server-wide default: the pull returns the
// prefix it drew in time, names the reason, and the cursor stays resumable.
func TestPullTimeoutTruncates(t *testing.T) {
	f := newFixture(t, 1200, 1200, func(c *Config) {
		c.MaxBatch = 10_000_000
		c.PullTimeout = 25 * time.Millisecond
	})
	for _, tc := range []struct {
		name, query string
	}{
		{"request-timeout_ms", "?k=5000000&timeout_ms=25"},
		{"config-default", "?k=5000000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cr := f.create(t, QueryRequest{Kind: "join", Index1: "water", Index2: "roads"})
			code, raw := f.do(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/next"+tc.query, nil)
			if code != http.StatusOK {
				t.Fatalf("timed-out pull: %d: %s", code, raw)
			}
			var nr NextResponse
			if err := json.Unmarshal(raw, &nr); err != nil {
				t.Fatal(err)
			}
			if nr.Truncated != "pull timeout" || nr.Done {
				t.Fatalf("pull = done=%v truncated=%q, want soft timeout truncation", nr.Done, nr.Truncated)
			}
			if len(nr.Pairs) == 0 {
				t.Fatal("25ms pull delivered nothing at all")
			}
			// Resumable: the next pull continues normally.
			code, raw = f.do(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/next?k=3&timeout_ms=10000", nil)
			if code != http.StatusOK {
				t.Fatalf("resume: %d: %s", code, raw)
			}
		})
	}
}

// TestWallBudgetCancelsCursor checks the per-cursor total wall budget: a
// cursor older than MaxCursorWall is hard-canceled regardless of how
// diligently the client pulls, the pull answers 410, and the query trace
// lands error-annotated.
func TestWallBudgetCancelsCursor(t *testing.T) {
	f := newFixture(t, 300, 300, func(c *Config) {
		c.MaxCursorWall = 200 * time.Millisecond
	})
	cr := f.create(t, QueryRequest{Kind: "join", Index1: "water", Index2: "roads"})
	if code, raw := f.do(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/next?k=5", nil); code != http.StatusOK {
		t.Fatalf("pull inside the budget: %d: %s", code, raw)
	}
	time.Sleep(400 * time.Millisecond)
	code, raw := f.do(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/next?k=5", nil)
	if code != http.StatusGone {
		t.Fatalf("pull past the wall budget: %d: %s, want 410", code, raw)
	}
	if !strings.Contains(string(raw), "wall budget") {
		t.Fatalf("410 body does not name the wall budget: %s", raw)
	}
	if tr := f.tracer.Trace(cr.Cursor); tr == nil || !strings.Contains(tr.Error, "canceled") {
		t.Fatalf("trace after wall-budget cancel = %+v", tr)
	}
}

// TestDeleteInterruptsLiveStream checks that DELETE on a cursor serving a
// long stream does not wait the stream out: the hard cancel reaches the
// live engine, the stream ends with the cancellation in its trailer, and
// the DELETE completes promptly.
func TestDeleteInterruptsLiveStream(t *testing.T) {
	f := newFixture(t, 1200, 1200, func(c *Config) {
		c.MaxBatch = 10_000_000
	})
	cr := f.create(t, QueryRequest{Kind: "join", Index1: "water", Index2: "roads"})

	bodyCh := make(chan string, 1)
	go func() {
		resp, err := f.ts.Client().Get(f.ts.URL + "/v1/cursor/" + cr.Cursor + "/stream?k=5000000")
		if err != nil {
			bodyCh <- "stream error: " + err.Error()
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		bodyCh <- string(raw)
	}()

	// Wait until the stream actually holds the cursor.
	c, herr := f.srv.table.lookup(cr.Cursor)
	if herr != nil {
		t.Fatal(herr.Msg)
	}
	waitLease(t, c, true)

	t0 := time.Now()
	code, raw := f.do(t, http.MethodDelete, "/v1/cursor/"+cr.Cursor, nil)
	if code != http.StatusNoContent {
		t.Fatalf("DELETE on streaming cursor: %d: %s", code, raw)
	}
	if d := time.Since(t0); d > 10*time.Second {
		t.Fatalf("DELETE waited %v for the stream — cancel did not interrupt it", d)
	}
	body := <-bodyCh
	lines := strings.Split(strings.TrimSpace(body), "\n")
	trailer := lines[len(lines)-1]
	if !strings.Contains(trailer, "canceled") {
		t.Fatalf("stream trailer does not carry the cancellation: %s", trailer)
	}
}

// TestDrainReadiness checks the drain switch: /readyz flips to 503 and new
// queries are refused, while a live cursor's terminal state stays visible.
func TestDrainReadiness(t *testing.T) {
	f := newFixture(t, 100, 100, nil)
	if code, raw := f.do(t, http.MethodGet, "/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d: %s", code, raw)
	}
	cr := f.create(t, QueryRequest{Kind: "join", Index1: "water", Index2: "roads"})

	f.srv.beginDrain()
	if code, _ := f.do(t, http.MethodGet, "/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", code)
	}
	if code, _ := f.do(t, http.MethodPost, "/v1/query",
		QueryRequest{Kind: "join", Index1: "water", Index2: "roads"}); code != http.StatusServiceUnavailable {
		t.Fatalf("create during drain: %d, want 503", code)
	}
	// The drained cursor was hard-canceled: its next pull reports the
	// terminal state instead of hanging or streaming on.
	code, raw := f.do(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/next?k=5", nil)
	if code != http.StatusGone {
		t.Fatalf("pull on drained cursor: %d: %s, want 410", code, raw)
	}
	if !strings.Contains(string(raw), "shutting down") {
		t.Fatalf("410 body does not name the drain: %s", raw)
	}
}

// TestHandlerPanicRecovers drives a panic out of the engine mid-pull (via a
// BaseOptions hook) and asserts the panic-recovery path: the response is a
// JSON 500, the cursor is latched failed with its engine closed (the trace
// lands error-annotated), and later pulls answer 410.
func TestHandlerPanicRecovers(t *testing.T) {
	f := newFixture(t, 100, 100, func(c *Config) {
		c.BaseOptions.ExactDist = func(o1, o2 distjoin.ObjID) (float64, error) {
			panic("boom")
		}
	})
	cr := f.create(t, QueryRequest{Kind: "join", Index1: "water", Index2: "roads"})
	code, raw := f.do(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/next?k=1", nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking pull: %d: %s, want 500", code, raw)
	}
	if !strings.Contains(string(raw), "boom") {
		t.Fatalf("500 body does not carry the panic value: %s", raw)
	}
	code, raw = f.do(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/next?k=1", nil)
	if code != http.StatusGone || !strings.Contains(string(raw), "panic") {
		t.Fatalf("pull after panic: %d: %s, want 410 naming the panic", code, raw)
	}
	if tr := f.tracer.Trace(cr.Cursor); tr == nil || !strings.Contains(tr.Error, "panic") {
		t.Fatalf("trace after panic = %+v", tr)
	}
	if code, _ := f.do(t, http.MethodGet, "/healthz", nil); code != http.StatusOK {
		t.Fatal("server unhealthy after a recovered panic")
	}
}

// TestRunningShutdownDrains is the in-process version of the SIGTERM smoke:
// a live stream is interrupted by Shutdown, its trailer names the drain,
// and Shutdown returns cleanly within the window.
func TestRunningShutdownDrains(t *testing.T) {
	reg := NewRegistry()
	water := distjoin.NewIndexFromPoints(datagen.Water(7, 1200))
	roads := distjoin.NewIndexFromPoints(datagen.Roads(8, 1200))
	t.Cleanup(func() { water.Close(); roads.Close() })
	if err := reg.RegisterIndex("water", water); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterIndex("roads", roads); err != nil {
		t.Fatal(err)
	}
	running, err := Start("127.0.0.1:0", Config{Registry: reg, MaxBatch: 10_000_000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer running.Close()
	base := "http://" + running.Addr()

	resp, err := http.Post(base+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"join","index1":"water","index2":"roads"}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var cr CreateResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("create: %s: %v", raw, err)
	}

	bodyCh := make(chan string, 1)
	go func() {
		resp, err := http.Get(base + "/v1/cursor/" + cr.Cursor + "/stream?k=5000000")
		if err != nil {
			bodyCh <- "stream error: " + err.Error()
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		bodyCh <- string(raw)
	}()
	// Let the stream get going before pulling the plug.
	time.Sleep(100 * time.Millisecond)

	if err := running.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	body := <-bodyCh
	lines := strings.Split(strings.TrimSpace(body), "\n")
	trailer := lines[len(lines)-1]
	if !strings.Contains(trailer, "shutting down") {
		t.Fatalf("stream trailer does not carry the drain cancellation: %s", trailer)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still serving after Shutdown")
	}
}
