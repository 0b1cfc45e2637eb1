package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"distjoin"
	"distjoin/internal/faultstore"
	"distjoin/internal/pager"
)

// TestFaultedCursorSurfacesError backs a hybrid-queue cursor with a
// fault-injecting page store and checks the whole failure path: the pull
// that hits the fault answers 500 with the injected error in the body, the
// cursor latches failed (every later pull answers 410 with the same
// error), the info endpoint reports the failed state, and the query trace
// lands in the flight recorder annotated with the error.
func TestFaultedCursorSurfacesError(t *testing.T) {
	f := newFixture(t, 120, 200, func(c *Config) {
		c.BaseOptions = distjoin.Options{
			QueueStore: func(pageSize int) (pager.Store, error) {
				mem, err := pager.NewMemStore(pageSize)
				if err != nil {
					return nil, err
				}
				// The third page write dies permanently — deep enough that
				// the queue has spilled, early enough to hit within one pull.
				return faultstore.New(mem, faultstore.Config{Seed: 1, FailWriteAt: 3}), nil
			},
		}
	})

	cr := f.create(t, QueryRequest{
		Kind: "join", Index1: "water", Index2: "roads",
		Queue: "hybrid", HybridDT: 1, // everything beyond distance 1 spills to disk
	})

	// Drain until the injected fault surfaces.
	var failBody errorBody
	for pulls := 0; ; pulls++ {
		if pulls > 10_000 {
			t.Fatal("fault never surfaced")
		}
		code, raw := f.do(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/next?k=50", nil)
		if code == http.StatusOK {
			continue
		}
		if code != http.StatusInternalServerError {
			t.Fatalf("faulted pull: status %d: %s", code, raw)
		}
		if err := json.Unmarshal(raw, &failBody); err != nil {
			t.Fatalf("error body: %v: %s", err, raw)
		}
		break
	}
	if !strings.Contains(failBody.Error, faultstore.ErrInjected.Error()) {
		t.Fatalf("injected error not in response body: %q", failBody.Error)
	}

	// The cursor is terminal: subsequent pulls answer 410 Gone, carrying
	// the latched error.
	code, raw := f.do(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/next?k=1", nil)
	if code != http.StatusGone {
		t.Fatalf("pull after failure: %d: %s", code, raw)
	}
	var gone errorBody
	if err := json.Unmarshal(raw, &gone); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gone.Error, faultstore.ErrInjected.Error()) {
		t.Fatalf("410 body lost the error: %q", gone.Error)
	}

	// Info still works and reports the failed state with the error.
	code, raw = f.do(t, http.MethodGet, "/v1/cursor/"+cr.Cursor, nil)
	if code != http.StatusOK {
		t.Fatalf("info: %d: %s", code, raw)
	}
	var info InfoResponse
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.State != "failed" || !strings.Contains(info.Error, faultstore.ErrInjected.Error()) {
		t.Fatalf("info = %+v", info)
	}

	// The engine was closed on failure, so the trace has landed in the
	// flight recorder, error-annotated under the cursor id.
	tr := f.tracer.Trace(cr.Cursor)
	if tr == nil {
		t.Fatal("no flight-recorder trace for failed cursor")
	}
	if tr.Error == "" || !strings.Contains(tr.Error, faultstore.ErrInjected.Error()) {
		t.Fatalf("trace error = %q, want injected fault", tr.Error)
	}

	// Deleting a failed cursor is allowed and frees its table slot.
	if code, _ := f.do(t, http.MethodDelete, "/v1/cursor/"+cr.Cursor, nil); code != http.StatusNoContent {
		t.Fatalf("delete failed cursor: %d", code)
	}
	if n := f.srv.OpenCursors(); n != 0 {
		t.Fatalf("cursor table not empty: %d", n)
	}
}

// TestFaultAtCreateTime checks a store that cannot even open: cursor
// creation fails cleanly with no table slot held.
func TestFaultAtCreateTime(t *testing.T) {
	boom := errors.New("scratch volume offline")
	f := newFixture(t, 60, 60, func(c *Config) {
		c.BaseOptions = distjoin.Options{
			QueueStore: func(pageSize int) (pager.Store, error) { return nil, boom },
		}
	})
	code, raw := f.do(t, http.MethodPost, "/v1/query", QueryRequest{
		Kind: "join", Index1: "water", Index2: "roads", Queue: "hybrid", HybridDT: 1,
	})
	if code != http.StatusInternalServerError {
		t.Fatalf("create over dead store: %d: %s", code, raw)
	}
	if !strings.Contains(string(raw), boom.Error()) {
		t.Fatalf("error lost: %s", raw)
	}
	if n := f.srv.OpenCursors(); n != 0 {
		t.Fatalf("leak after failed create: %d cursors", n)
	}
}
