package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distjoin"
)

// TestConcurrentClients hammers one server with many concurrent sessions —
// full drains, mid-stream disconnects, abandons, and deletes — and checks
// nothing leaks. Run under -race this is the service's main concurrency
// test: the cursor table, admission semaphore, janitor, and tracer all
// contend here.
func TestConcurrentClients(t *testing.T) {
	f := newFixture(t, 120, 200, func(c *Config) {
		c.MaxCursors = 64
		c.MaxInflight = 64
		c.TTL = 50 * time.Millisecond // abandoned cursors must expire mid-test
	})

	const clients = 24
	var wg sync.WaitGroup
	var drained, disconnected, abandoned atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := QueryRequest{Kind: "join", Index1: "water", Index2: "roads", MaxPairs: 40}
			if i%3 == 1 {
				req = QueryRequest{Kind: "semijoin", Index1: "water", Index2: "roads", Filter: "inside2"}
			}
			code, raw := f.do(t, http.MethodPost, "/v1/query", req)
			if code == http.StatusTooManyRequests {
				return // admission control said no; that is a valid outcome
			}
			if code != http.StatusCreated {
				t.Errorf("client %d: create %d: %s", i, code, raw)
				return
			}
			id := jsonField(t, raw, "cursor")
			switch i % 4 {
			case 0, 1: // drain in small batches, then delete
				for pulls := 0; pulls < 50; pulls++ {
					code, raw := f.do(t, http.MethodGet, "/v1/cursor/"+id+"/next?k=7", nil)
					if code == http.StatusConflict || code == http.StatusTooManyRequests {
						continue // contention responses are fine; retry
					}
					if code == http.StatusGone {
						return // janitor beat us to an abandoned-looking cursor
					}
					if code != http.StatusOK {
						t.Errorf("client %d: next %d: %s", i, code, raw)
						return
					}
					if strings.Contains(string(raw), `"done":true`) {
						drained.Add(1)
						break
					}
				}
				f.do(t, http.MethodDelete, "/v1/cursor/"+id, nil)
			case 2: // mid-stream disconnect: read a few bytes and slam the socket
				resp, err := f.ts.Client().Get(f.ts.URL + "/v1/cursor/" + id + "/stream?k=1000000")
				if err == nil {
					buf := make([]byte, 256)
					io.ReadFull(resp.Body, buf)
					resp.Body.Close() // disconnect with the stream unfinished
				}
				disconnected.Add(1)
				f.do(t, http.MethodDelete, "/v1/cursor/"+id, nil)
			case 3: // abandon: rely on the TTL janitor to reclaim
				f.do(t, http.MethodGet, "/v1/cursor/"+id+"/next?k=3", nil)
				abandoned.Add(1)
			}
		}(i)
	}
	wg.Wait()

	// Abandoned cursors die by TTL; wait for the janitor to reap them all.
	deadline := time.Now().Add(5 * time.Second)
	for f.srv.OpenCursors() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := f.srv.OpenCursors(); n != 0 {
		t.Fatalf("%d cursors still open after TTL", n)
	}
	if active := f.tracer.Active(); active != 0 {
		t.Fatalf("%d queries still active in tracer", active)
	}
	t.Logf("drained=%d disconnected=%d abandoned=%d",
		drained.Load(), disconnected.Load(), abandoned.Load())
}

// TestTTLExpiryDuringPull drives expiry under a live pull deterministically:
// the janitor sweeps while a pull holds the lease, so it may only cancel the
// engine and name the reason — the eviction completes when the pull hands
// the lease back, never by closing the engine under its reader.
func TestTTLExpiryDuringPull(t *testing.T) {
	clk := &fakeClock{now: time.Now()}
	f := newFixtureOn(t, 100, 150, clk, func(c *Config) {
		c.TTL = time.Hour // the janitor never fires on its own; we call sweep by hand
	})
	cr := f.create(t, QueryRequest{Kind: "join", Index1: "water", Index2: "roads", MaxPairs: 30})

	// Take the lease exactly as an in-flight pull would.
	c, herr := f.srv.lease(cr.Cursor)
	if herr != nil {
		t.Fatalf("lease: %v", herr)
	}

	// Sweep far in the future: the cursor is expired but leased, so the
	// janitor may only retire it — canceled, not closed.
	clk.Advance(2 * time.Hour)
	f.srv.sweep(clk.Now())
	c.mu.Lock()
	retiring, state, engineOpen := c.retiring, c.state, c.it != nil
	c.mu.Unlock()
	if retiring != errCursorExpired.Error() || state != cursorOpen || !engineOpen {
		t.Fatalf("after sweep: retiring=%q state=%v engine open=%v, want retiring, open, engine untouched", retiring, state, engineOpen)
	}

	// Retiring also hard-canceled the engine, so the in-flight pull is
	// interrupted: it surfaces a sticky ErrCanceled naming the TTL cause
	// rather than streaming on against a dead deadline.
	var res pullResult
	draw(c, 5, context.Background(), func(PairJSON) {}, &res)
	if !errors.Is(res.err, distjoin.ErrCanceled) || res.done {
		t.Fatalf("pull on retiring cursor: %d pairs done=%v err=%v, want ErrCanceled", res.n, res.done, res.err)
	}

	// Releasing the lease completes the eviction (and frees the in-flight
	// slot lease took).
	f.srv.release(c, &res)
	if n := f.srv.OpenCursors(); n != 0 {
		t.Fatalf("retiring cursor not evicted at release: %d open", n)
	}
	c.mu.Lock()
	state, engineOpen = c.state, c.it != nil
	c.mu.Unlock()
	if state != cursorGone || engineOpen {
		t.Fatalf("after release: state=%v engine open=%v, want gone with the engine closed", state, engineOpen)
	}

	// The id now answers 410, and the trace landed error-annotated with the
	// cancellation.
	code, _ := f.do(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/next?k=1", nil)
	if code != http.StatusGone {
		t.Fatalf("evicted cursor: %d, want 410", code)
	}
	if tr := f.tracer.Trace(cr.Cursor); tr == nil || !strings.Contains(tr.Error, "canceled") {
		t.Fatalf("trace after eviction under a pull = %+v", tr)
	}
}

// TestShutdownClosesEverything opens cursors in several states (untouched,
// mid-drain), shuts the server down, and verifies every
// engine iterator was closed: goroutine count returns to baseline and the
// tracer has no active queries.
func TestShutdownClosesEverything(t *testing.T) {
	baseline := runtime.NumGoroutine()

	f := newFixture(t, 150, 250, func(c *Config) { c.MaxCursors = 16 })
	ids := make([]string, 0, 6)
	for i := 0; i < 3; i++ {
		cr := f.create(t, QueryRequest{Kind: "join", Index1: "water", Index2: "roads"})
		ids = append(ids, cr.Cursor)
	}
	for i := 0; i < 2; i++ {
		cr := f.create(t, QueryRequest{Kind: "join", Index1: "water", Index2: "roads"})
		f.next(t, cr.Cursor, 10)
		ids = append(ids, cr.Cursor)
	}
	cr := f.create(t, QueryRequest{Kind: "semijoin", Index1: "water", Index2: "roads"})
	f.next(t, cr.Cursor, 5)
	ids = append(ids, cr.Cursor)

	if err := f.srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := f.srv.OpenCursors(); n != 0 {
		t.Fatalf("%d cursors open after shutdown", n)
	}
	if active := f.tracer.Active(); active != 0 {
		t.Fatalf("%d tracer-active queries after shutdown", active)
	}
	// Every trace landed (engine Close fires the tracer completion).
	for _, id := range ids {
		if f.tracer.Trace(id) == nil {
			t.Errorf("no trace for %s after shutdown", id)
		}
	}
	f.ts.Close()

	// No goroutine may outlive the shutdown. Poll: goroutine exit is
	// asynchronous after Close returns.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 { // httptest leaves a couple idle
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
		baseline, runtime.NumGoroutine(), buf[:n])
}

// jsonField extracts a top-level string field without a full decode — handy
// inside racing goroutines.
func jsonField(t testing.TB, raw []byte, key string) string {
	t.Helper()
	marker := fmt.Sprintf("%q:", key)
	i := strings.Index(string(raw), marker)
	if i < 0 {
		t.Fatalf("no %q in %s", key, raw)
	}
	rest := string(raw)[i+len(marker):]
	j := strings.IndexByte(rest, '"')
	k := strings.IndexByte(rest[j+1:], '"')
	return rest[j+1 : j+1+k]
}
