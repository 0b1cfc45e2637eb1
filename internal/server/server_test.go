package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"distjoin"
	"distjoin/internal/datagen"
)

// testFixture is an HTTP test server over small water/roads indexes.
type testFixture struct {
	srv    *Server
	ts     *httptest.Server
	tracer *distjoin.QueryTracer
	rec    *distjoin.Recorder
}

// newFixture builds a server over water(nA) × roads(nB) with a tracer and
// whatever Config mutations the test needs.
func newFixture(t testing.TB, nA, nB int, mutate func(*Config)) *testFixture {
	t.Helper()
	return newFixtureOn(t, nA, nB, nil, mutate)
}

// newFixtureOn is newFixture on the lifecycle model's hand-driven clock
// (nil: the real one).
func newFixtureOn(t testing.TB, nA, nB int, clk *fakeClock, mutate func(*Config)) *testFixture {
	t.Helper()
	water := distjoin.NewIndexFromPoints(datagen.Water(7, nA))
	roads := distjoin.NewIndexFromPoints(datagen.Roads(8, nB))
	t.Cleanup(func() { water.Close(); roads.Close() })
	reg := NewRegistry()
	if err := reg.RegisterIndex("water", water); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterIndex("roads", roads); err != nil {
		t.Fatal(err)
	}
	f := &testFixture{
		tracer: distjoin.NewQueryTracer(distjoin.QueryTraceConfig{FlightSize: 64}),
		rec:    distjoin.NewRecorder(distjoin.ObsConfig{}),
	}
	cfg := Config{
		Registry: reg,
		Tracer:   f.tracer,
		Obs:      f.rec,
		TTL:      time.Minute,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	if clk != nil {
		f.srv = newModelServer(cfg, clk)
	} else {
		f.srv = NewServer(cfg)
	}
	f.ts = httptest.NewServer(f.srv.Handler())
	t.Cleanup(func() { f.ts.Close(); f.srv.Close() })
	return f
}

// do performs one request and returns status + body.
func (f *testFixture) do(t testing.TB, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, f.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// create opens a cursor and fails the test on a non-201.
func (f *testFixture) create(t testing.TB, req QueryRequest) CreateResponse {
	t.Helper()
	code, raw := f.do(t, http.MethodPost, "/v1/query", req)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, raw)
	}
	var cr CreateResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("create: %v: %s", err, raw)
	}
	return cr
}

// next pulls k pairs and fails the test on a non-200.
func (f *testFixture) next(t testing.TB, id string, k int) NextResponse {
	t.Helper()
	code, raw := f.do(t, http.MethodGet, fmt.Sprintf("/v1/cursor/%s/next?k=%d", id, k), nil)
	if code != http.StatusOK {
		t.Fatalf("next: status %d: %s", code, raw)
	}
	var nr NextResponse
	if err := json.Unmarshal(raw, &nr); err != nil {
		t.Fatalf("next: %v: %s", err, raw)
	}
	return nr
}

func TestBasicCursorSession(t *testing.T) {
	f := newFixture(t, 150, 250, nil)

	code, raw := f.do(t, http.MethodGet, "/v1/indexes", nil)
	if code != http.StatusOK {
		t.Fatalf("indexes: %d: %s", code, raw)
	}
	var infos []IndexInfo
	if err := json.Unmarshal(raw, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "roads" || infos[1].Name != "water" {
		t.Fatalf("indexes = %+v", infos)
	}
	if infos[1].Objects != 150 || infos[1].Dims != 2 {
		t.Fatalf("water info = %+v", infos[1])
	}

	cr := f.create(t, QueryRequest{Kind: "join", Index1: "water", Index2: "roads", MaxPairs: 25})
	if cr.Kind != "join" || cr.QueryID != cr.Cursor {
		t.Fatalf("create = %+v", cr)
	}

	// Pull in two batches; distances must be globally non-decreasing across
	// the batch boundary — the resumable-cursor contract.
	n1 := f.next(t, cr.Cursor, 10)
	if len(n1.Pairs) != 10 || n1.Done || n1.Reported != 10 {
		t.Fatalf("first pull = %+v", n1)
	}
	n2 := f.next(t, cr.Cursor, 100)
	if len(n2.Pairs) != 15 || !n2.Done || n2.Reported != 25 {
		t.Fatalf("second pull: %d pairs done=%v reported=%d", len(n2.Pairs), n2.Done, n2.Reported)
	}
	last := n1.Pairs[0].Dist
	for _, p := range append(n1.Pairs[1:], n2.Pairs...) {
		if p.Dist < last {
			t.Fatalf("distance order violated: %g after %g", p.Dist, last)
		}
		last = p.Dist
	}

	// Exhausted cursor: further pulls report done with no pairs.
	n3 := f.next(t, cr.Cursor, 5)
	if len(n3.Pairs) != 0 || !n3.Done || n3.Reported != 25 {
		t.Fatalf("post-exhaustion pull = %+v", n3)
	}

	// Info reflects the done state; the engine is already closed, so the
	// query trace has landed under the cursor id.
	code, raw = f.do(t, http.MethodGet, "/v1/cursor/"+cr.Cursor, nil)
	if code != http.StatusOK {
		t.Fatalf("info: %d: %s", code, raw)
	}
	var info InfoResponse
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.State != "done" || info.Reported != 25 {
		t.Fatalf("info = %+v", info)
	}
	tr := f.tracer.Trace(cr.Cursor)
	if tr == nil {
		t.Fatalf("no flight-recorder trace for %s", cr.Cursor)
	}
	if tr.Kind != "join" || tr.Error != "" || tr.Resources.Pairs != 25 {
		t.Fatalf("trace = kind %q err %q pairs %d", tr.Kind, tr.Error, tr.Resources.Pairs)
	}

	// Delete, then the id answers 410 (tombstoned), not 404.
	code, _ = f.do(t, http.MethodDelete, "/v1/cursor/"+cr.Cursor, nil)
	if code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	code, raw = f.do(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/next?k=1", nil)
	if code != http.StatusGone {
		t.Fatalf("next after delete: %d: %s", code, raw)
	}
	code, _ = f.do(t, http.MethodGet, "/v1/cursor/never-existed/next?k=1", nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown cursor: %d", code)
	}

	// The per-cursor counters were merged into the server aggregate.
	if got := f.rec.Counts().Snapshot().PairsReported; got != 25 {
		t.Fatalf("aggregated PairsReported = %d, want 25", got)
	}
}

func TestCursorKindsAndOptions(t *testing.T) {
	f := newFixture(t, 120, 200, nil)
	for _, tc := range []struct {
		name string
		req  QueryRequest
	}{
		{"semijoin", QueryRequest{Kind: "semijoin", Index1: "water", Index2: "roads", Filter: "globalall"}},
		{"knn", QueryRequest{Kind: "knn", K: 3, Index1: "water", Index2: "roads", Filter: "inside2"}},
		{"clustering", QueryRequest{Kind: "clustering", Index1: "water", Index2: "roads"}},
		{"hybrid-queue", QueryRequest{Kind: "join", Index1: "water", Index2: "roads", Queue: "hybrid", HybridDT: 500, MaxPairs: 50}},
		{"manhattan-basic", QueryRequest{Kind: "join", Index1: "water", Index2: "roads", Metric: "manhattan", Traversal: "basic", MaxPairs: 50}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cr := f.create(t, tc.req)
			nr := f.next(t, cr.Cursor, 40)
			if len(nr.Pairs) == 0 {
				t.Fatalf("no pairs for %+v", tc.req)
			}
			code, _ := f.do(t, http.MethodDelete, "/v1/cursor/"+cr.Cursor, nil)
			if code != http.StatusNoContent {
				t.Fatalf("delete: %d", code)
			}
		})
	}
}

func TestBadRequests(t *testing.T) {
	f := newFixture(t, 60, 60, nil)
	for name, tc := range map[string]struct {
		req  QueryRequest
		code int
	}{
		"unknown-index":  {QueryRequest{Kind: "join", Index1: "nope", Index2: "roads"}, http.StatusNotFound},
		"unknown-kind":   {QueryRequest{Kind: "cartesian", Index1: "water", Index2: "roads"}, http.StatusBadRequest},
		"unknown-metric": {QueryRequest{Kind: "join", Index1: "water", Index2: "roads", Metric: "cosine"}, http.StatusBadRequest},
		"unknown-queue":  {QueryRequest{Kind: "join", Index1: "water", Index2: "roads", Queue: "disk"}, http.StatusBadRequest},
		"unknown-filter": {QueryRequest{Kind: "semijoin", Index1: "water", Index2: "roads", Filter: "psychic"}, http.StatusBadRequest},
		"neg-max-pairs":  {QueryRequest{Kind: "join", Index1: "water", Index2: "roads", MaxPairs: -1}, http.StatusBadRequest},
		"bad-range":      {QueryRequest{Kind: "join", Index1: "water", Index2: "roads", MinDist: 10, MaxDist: 5}, http.StatusBadRequest},
	} {
		t.Run(name, func(t *testing.T) {
			code, raw := f.do(t, http.MethodPost, "/v1/query", tc.req)
			if code != tc.code {
				t.Fatalf("status %d, want %d: %s", code, tc.code, raw)
			}
			var eb errorBody
			if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" || eb.Status != tc.code {
				t.Fatalf("error body = %s", raw)
			}
		})
	}
	// No slot leaks from refused creations.
	if n := f.srv.OpenCursors(); n != 0 {
		t.Fatalf("cursors leaked: %d", n)
	}

	// queue_budget left the API with the unenforced ledger behind it; a
	// client that still sends it is served, the field ignored.
	resp, err := f.ts.Client().Post(f.ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"kind":"join","index1":"water","index2":"roads","queue_budget":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create with a legacy queue_budget: %d, want 201", resp.StatusCode)
	}
}

func TestAdmissionControl(t *testing.T) {
	hook, stores := &engineHook{}, &storeRig{}
	f := newFixture(t, 40, 60, func(c *Config) { // the point sets modelOptions' hook knows
		c.MaxCursors = 2
		c.MaxInflight = 1
		c.BaseOptions = modelOptions(hook, stores)
	})
	req := QueryRequest{Kind: "join", Index1: "water", Index2: "roads"}
	c1 := f.create(t, req)
	c2 := f.create(t, req)

	// Third cursor: table is full → 429 with Retry-After, refused before any
	// engine work: no queue store opened, no query begun, no trace pushed
	// into the bounded flight recorder.
	traces, active := len(f.tracer.Traces()), f.tracer.Active()
	hybrid := req
	hybrid.Queue, hybrid.HybridDT = "hybrid", 500
	code, raw := f.do(t, http.MethodPost, "/v1/query", hybrid)
	if code != http.StatusTooManyRequests {
		t.Fatalf("table-full create: %d: %s", code, raw)
	}
	if calls, _, _ := stores.counts(); calls != 0 || len(f.tracer.Traces()) != traces || f.tracer.Active() != active {
		t.Fatalf("table-full 429 did engine work: %d queue stores opened, flight recorder %d → %d, active queries %d → %d",
			calls, traces, len(f.tracer.Traces()), active, f.tracer.Active())
	}

	// In-flight limit: while one pull holds the only slot, creates and pulls
	// on other cursors are refused at once rather than queued.
	hook.arm(hookBlock)
	pulled := make(chan int, 1)
	go func() {
		code, _ := f.do(t, http.MethodGet, "/v1/cursor/"+c2.Cursor+"/next?k=5", nil)
		pulled <- code
	}()
	<-hook.hit
	if code, raw := f.do(t, http.MethodGet, "/v1/cursor/"+c1.Cursor+"/next?k=1", nil); code != http.StatusTooManyRequests {
		t.Fatalf("pull beyond the in-flight limit: %d: %s", code, raw)
	}
	if code, raw := f.do(t, http.MethodPost, "/v1/query", req); code != http.StatusTooManyRequests {
		t.Fatalf("create beyond the in-flight limit: %d: %s", code, raw)
	}
	hook.release()
	if code := <-pulled; code != http.StatusOK {
		t.Fatalf("the admitted pull: %d", code)
	}

	// Free a slot and the table admits again.
	if code, _ := f.do(t, http.MethodDelete, "/v1/cursor/"+c1.Cursor, nil); code != http.StatusNoContent {
		t.Fatal("delete failed")
	}
	f.create(t, req)

	// A draining server refuses before engine work too.
	f.srv.beginDrain()
	if code, raw := f.do(t, http.MethodPost, "/v1/query", hybrid); code != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: %d: %s", code, raw)
	}
	if calls, _, _ := stores.counts(); calls != 0 {
		t.Fatalf("refused creates opened %d queue stores", calls)
	}
}

// TestCreateRacingCloseIsRefused catches a create inside engine construction
// (the queue-store factory blocks), closes the server under it, and lets it
// go. An engine opened under a closed server is never swept and never
// closed, so the create must answer 503 and leave nothing behind.
func TestCreateRacingCloseIsRefused(t *testing.T) {
	stores := &storeRig{}
	stores.block, stores.hit, stores.open = true, make(chan struct{}), make(chan struct{})
	f := newFixture(t, 60, 60, func(c *Config) { c.BaseOptions.QueueStore = stores.factory })
	created := make(chan int, 1)
	go func() {
		code, _ := f.do(t, http.MethodPost, "/v1/query",
			QueryRequest{Kind: "join", Index1: "water", Index2: "roads", Queue: "hybrid", HybridDT: 500})
		created <- code
	}()
	<-stores.hit
	if err := f.srv.Close(); err != nil {
		t.Fatal(err)
	}
	close(stores.open)
	if code := <-created; code != http.StatusServiceUnavailable {
		t.Errorf("create racing Close: %d, want 503", code)
	}
	if n, active := f.srv.OpenCursors(), f.tracer.Active(); n != 0 || active != 0 {
		t.Errorf("after Close: %d cursors in the table, %d queries active", n, active)
	}
	if _, opened, closed := stores.counts(); opened != closed {
		t.Errorf("%d queue stores opened, %d closed", opened, closed)
	}
}

func TestStreamNDJSON(t *testing.T) {
	f := newFixture(t, 150, 250, nil)
	cr := f.create(t, QueryRequest{Kind: "join", Index1: "water", Index2: "roads", MaxPairs: 30})

	resp, err := f.ts.Client().Get(f.ts.URL + "/v1/cursor/" + cr.Cursor + "/stream?k=20")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var pairs []PairJSON
	var trailer *streamTrailer
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if trailer != nil {
			t.Fatalf("line after trailer: %s", line)
		}
		if strings.Contains(line, `"done"`) {
			trailer = &streamTrailer{}
			if err := json.Unmarshal([]byte(line), trailer); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var p PairJSON
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("bad pair line %q: %v", line, err)
		}
		pairs = append(pairs, p)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 20 || trailer == nil || trailer.Done || trailer.Reported != 20 {
		t.Fatalf("stream: %d pairs, trailer %+v", len(pairs), trailer)
	}

	// The remaining 10 pairs resume over the plain next endpoint — the two
	// transports share one cursor position.
	nr := f.next(t, cr.Cursor, 100)
	if len(nr.Pairs) != 10 || !nr.Done {
		t.Fatalf("resume after stream: %d pairs done=%v", len(nr.Pairs), nr.Done)
	}
	if nr.Pairs[0].Dist < pairs[len(pairs)-1].Dist {
		t.Fatal("stream→next boundary violated distance order")
	}
}

// TestResponsesMatchSchema validates every response shape against the
// checked-in API schema — the same file the CI distjoind smoke step uses.
func TestResponsesMatchSchema(t *testing.T) {
	schema := loadAPISchema(t)
	f := newFixture(t, 100, 150, nil)

	cr := f.create(t, QueryRequest{Kind: "join", Index1: "water", Index2: "roads", MaxPairs: 8})
	checkAPIDoc(t, schema, "create_response", mustMarshal(t, cr))

	code, raw := f.do(t, http.MethodGet, "/v1/cursor/"+cr.Cursor+"/next?k=5", nil)
	if code != http.StatusOK {
		t.Fatalf("next: %d", code)
	}
	checkAPIDoc(t, schema, "next_response", raw)

	code, raw = f.do(t, http.MethodGet, "/v1/cursor/"+cr.Cursor, nil)
	if code != http.StatusOK {
		t.Fatalf("info: %d", code)
	}
	checkAPIDoc(t, schema, "info_response", raw)

	code, raw = f.do(t, http.MethodGet, "/v1/indexes", nil)
	if code != http.StatusOK {
		t.Fatalf("indexes: %d", code)
	}
	checkAPIDoc(t, schema, "index_list", raw)

	code, raw = f.do(t, http.MethodGet, "/v1/cursor/ghost/next", nil)
	if code != http.StatusNotFound {
		t.Fatalf("ghost: %d", code)
	}
	checkAPIDoc(t, schema, "error", raw)
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func loadAPISchema(t testing.TB) map[string]any {
	t.Helper()
	raw, err := os.ReadFile("testdata/cursorapi.schema.json")
	if err != nil {
		t.Fatal(err)
	}
	var schema map[string]any
	if err := json.Unmarshal(raw, &schema); err != nil {
		t.Fatalf("schema is not valid JSON: %v", err)
	}
	return schema
}

// checkAPIDoc validates raw against one named definition with the same
// dependency-free draft-07 subset the qtrace schema test uses.
func checkAPIDoc(t *testing.T, schema map[string]any, def string, raw []byte) {
	t.Helper()
	defs, ok := schema["definitions"].(map[string]any)
	if !ok {
		t.Fatal("schema has no definitions")
	}
	sub, ok := defs[def].(map[string]any)
	if !ok {
		t.Fatalf("schema has no definition %q", def)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: invalid JSON: %v", def, err)
	}
	if err := validateAPI(schema, sub, doc, "$"); err != nil {
		t.Errorf("%s violates schema: %v\n%s", def, err, raw)
	}
}

func validateAPI(root, schema map[string]any, doc any, path string) error {
	if ref, ok := schema["$ref"].(string); ok {
		name := ref[strings.LastIndex(ref, "/")+1:]
		target, ok := root["definitions"].(map[string]any)[name].(map[string]any)
		if !ok {
			return fmt.Errorf("%s: unresolvable $ref %q", path, ref)
		}
		return validateAPI(root, target, doc, path)
	}
	if typ, ok := schema["type"].(string); ok {
		okType := false
		switch typ {
		case "object":
			_, okType = doc.(map[string]any)
		case "array":
			_, okType = doc.([]any)
		case "string":
			_, okType = doc.(string)
		case "boolean":
			_, okType = doc.(bool)
		case "number":
			_, okType = doc.(float64)
		case "integer":
			fv, isNum := doc.(float64)
			okType = isNum && fv == float64(int64(fv))
		}
		if !okType {
			return fmt.Errorf("%s: want %s, got %T (%v)", path, typ, doc, doc)
		}
	}
	if enum, ok := schema["enum"].([]any); ok {
		found := false
		for _, v := range enum {
			if v == doc {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("%s: %v not in enum %v", path, doc, enum)
		}
	}
	if obj, ok := doc.(map[string]any); ok {
		if req, ok := schema["required"].([]any); ok {
			for _, r := range req {
				if _, present := obj[r.(string)]; !present {
					return fmt.Errorf("%s: missing required %q", path, r)
				}
			}
		}
		if props, ok := schema["properties"].(map[string]any); ok {
			for name, sub := range props {
				if v, present := obj[name]; present {
					if err := validateAPI(root, sub.(map[string]any), v, path+"."+name); err != nil {
						return err
					}
				}
			}
		}
	}
	if arr, ok := doc.([]any); ok {
		if items, ok := schema["items"].(map[string]any); ok {
			for i, v := range arr {
				if err := validateAPI(root, items, v, fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
