package qtrace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"distjoin/internal/profile"
	"distjoin/internal/stats"
)

// syntheticReport is the closing report of an engine that planned for
// 1 ms, reported 10 pairs after one distance computation, read one node and
// hit the pool four times, expanded for 3 ms, popped for 1 ms and spilled
// for 2 ms (1 ms of it a physical write).
func syntheticReport() Report {
	r := Report{PlanNS: int64(time.Millisecond)}
	r.Counts = stats.Counters{PairsReported: 10, DistCalcs: 1, MaxQueueSize: 7, NodeReads: 1, BufferHits: 4}
	r.Tally.NS[profile.PhaseExpand], r.Tally.Counts[profile.PhaseExpand] = int64(3*time.Millisecond), 1
	r.Tally.NS[profile.PhasePop], r.Tally.Counts[profile.PhasePop] = int64(time.Millisecond), 1
	r.Tally.NS[profile.PhaseSpill], r.Tally.Counts[profile.PhaseSpill] = int64(2*time.Millisecond), 1
	r.Tally.IOWriteNS, r.Tally.IOWrites = int64(time.Millisecond), 1
	return r
}

// runQuery drives one synthetic query through the lifecycle the join layer
// uses: Begin, then Finish with the engine's closing report.
func runQuery(t *Tracer, kind, id string, err error) *QueryTrace {
	return t.Begin(kind, id).Finish(syntheticReport(), err)
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	q := tr.Begin("join", "x")
	if q != nil {
		t.Fatalf("nil tracer Begin = %v, want nil", q)
	}
	if qt := q.Finish(syntheticReport(), nil); qt != nil {
		t.Fatalf("nil query Finish = %v, want nil", qt)
	}
	if tr.Active() != 0 || tr.Traces() != nil || tr.Trace("x") != nil || tr.Close() != nil {
		t.Fatalf("nil tracer accessors must be zero-valued no-ops")
	}
}

// TestDisabledZeroAllocs pins the nil-tracer contract on the tracing layer:
// with no tracer attached, the whole per-query bracket set performs zero
// allocations.
func TestDisabledZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		tr.Begin("join", "").Finish(Report{}, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %v per run, want 0", allocs)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	tr := New(Config{FlightSize: 3})
	for i := 0; i < 5; i++ {
		runQuery(tr, "join", fmt.Sprintf("id%d", i), nil)
	}
	traces := tr.Traces()
	if len(traces) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(traces))
	}
	// Newest first, and only the last FlightSize survive.
	for i, want := range []string{"id4", "id3", "id2"} {
		if traces[i].ID != want {
			t.Fatalf("traces[%d].ID = %q, want %q", i, traces[i].ID, want)
		}
	}
	if tr.Trace("id0") != nil {
		t.Fatalf("evicted trace id0 still retrievable")
	}
	if got := tr.Trace("id3"); got == nil || got.ID != "id3" {
		t.Fatalf("Trace(id3) = %v", got)
	}
	if tr.Active() != 0 {
		t.Fatalf("Active = %d after all queries finished, want 0", tr.Active())
	}
}

func TestAssignedQueryIDs(t *testing.T) {
	tr := New(Config{})
	a := tr.Begin("join", "")
	b := tr.Begin("knn", "custom")
	if a.id == "" || !strings.HasPrefix(a.id, "q") {
		t.Fatalf("assigned ID = %q, want q-prefixed", a.id)
	}
	if b.id != "custom" {
		t.Fatalf("user ID = %q, want custom", b.id)
	}
	if tr.Active() != 2 {
		t.Fatalf("Active = %d, want 2", tr.Active())
	}
	a.Finish(Report{}, nil)
	a.Finish(Report{}, nil) // idempotent: second Finish must not double-complete
	b.Finish(Report{}, nil)
	if tr.Active() != 0 {
		t.Fatalf("Active = %d after Finish, want 0", tr.Active())
	}
	if len(tr.Traces()) != 2 {
		t.Fatalf("ring holds %d traces, want 2", len(tr.Traces()))
	}
}

func TestTraceContents(t *testing.T) {
	tr := New(Config{})
	qt := runQuery(tr, "knn", "q-abc", errors.New("boom"))
	if qt == nil {
		t.Fatal("Finish returned nil trace")
	}
	if qt.SchemaVersion != SchemaVersion || qt.ID != "q-abc" || qt.Kind != "knn" {
		t.Fatalf("header = %+v", qt)
	}
	if qt.Error != "boom" {
		t.Fatalf("Error = %q, want boom", qt.Error)
	}
	if qt.Root.Name != "query" || qt.Root.Seconds <= 0 {
		t.Fatalf("root span = %+v", qt.Root)
	}
	if plan := qt.Root.Find("plan"); plan == nil || plan.Seconds <= 0 {
		t.Fatalf("plan span = %+v", plan)
	}
	if ex := qt.Root.Find("expand"); ex == nil || ex.Seconds < 0.003 {
		t.Fatalf("expand span = %+v", ex)
	}
	spill := qt.Root.Find("spill")
	if spill == nil || len(spill.Children) != 1 || spill.Children[0].Name != "io_write" || !spill.Children[0].Nested {
		t.Fatalf("spill span = %+v", spill)
	}
	// Resources are the engine's own counts plus the pools' node I/O.
	if qt.Resources.Pairs != 10 || qt.Resources.DistCalcs != 1 || qt.Resources.NodeIO != 1 ||
		qt.Resources.BufferHits != 4 || qt.Resources.PeakQueueDepth != 7 {
		t.Fatalf("resources = %+v", qt.Resources)
	}
	if c := qt.Root.Children; len(c) != 2 || c[0].Name != "plan" || c[1].Name != "worker" || c[1].Count != 10 {
		t.Fatalf("root's children = %+v, want plan and the worker", c)
	}
	if qt.Coverage < 0 || math.IsNaN(qt.Coverage) {
		t.Fatalf("coverage = %v", qt.Coverage)
	}
}

// TestResourcesAreTheQuerysOwn: a query's resources are its own engine's
// closing report, so no other query's work can leak in (the behaviour the
// old shared-counter baseline subtraction approximated).
func TestResourcesAreTheQuerysOwn(t *testing.T) {
	tr := New(Config{})
	other := tr.Begin("join", "noise")
	q := tr.Begin("join", "mine")
	other.Finish(Report{Counts: stats.Counters{PairsReported: 100, DistCalcs: 100}}, nil)
	qt := q.Finish(Report{Counts: stats.Counters{PairsReported: 3, DistCalcs: 5, MaxQueueSize: 9}}, nil)
	if r := qt.Resources; r.Pairs != 3 || r.DistCalcs != 5 || r.PeakQueueDepth != 9 {
		t.Fatalf("resources = %+v, want 3 pairs / 5 dist calcs / peak 9", r)
	}
}

func TestSlowLogGating(t *testing.T) {
	t.Run("all-when-unthresholded", func(t *testing.T) {
		var buf bytes.Buffer
		tr := New(Config{SlowLog: &buf})
		runQuery(tr, "join", "a", nil)
		runQuery(tr, "join", "b", nil)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if n := countLines(&buf); n != 2 {
			t.Fatalf("unthresholded slow log has %d lines, want 2", n)
		}
		first, _, _ := strings.Cut(buf.String(), "\n")
		var qt QueryTrace
		if err := json.Unmarshal([]byte(first), &qt); err != nil {
			t.Fatalf("slow log line is not valid JSON: %v", err)
		}
		if qt.ID != "a" || qt.Root.Find("plan") == nil {
			t.Fatalf("slow log trace = %+v", qt)
		}
	})
	t.Run("wall-threshold", func(t *testing.T) {
		var buf bytes.Buffer
		tr := New(Config{SlowLog: &buf, SlowWall: time.Hour})
		runQuery(tr, "join", "fast", nil)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if n := countLines(&buf); n != 0 {
			t.Fatalf("fast query logged %d lines under 1h threshold", n)
		}
	})
}

func countLines(buf *bytes.Buffer) int {
	n := 0
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.TrimSpace(l) != "" {
			n++
		}
	}
	return n
}

// TestTraceMatchesSchema validates a marshalled trace against the
// checked-in JSON schema (testdata/querytrace.schema.json) with a
// dependency-free draft-07 subset validator — the same schema the CI smoke
// step checks /debug/queries dumps against. The served cursor's trace
// carries the pull tally its PreFinish registered, and Finish consumes the
// registration.
func TestTraceMatchesSchema(t *testing.T) {
	schema := loadSchema(t)
	tr := New(Config{})
	for _, tc := range []struct {
		kind, id string
		err      error
		pulls    int64
	}{
		{"join", "", nil, 0},
		{"knn", "", nil, 0},
		{"semijoin", "", errors.New("injected fault"), 0},
		{"join", "c0000001", nil, 3},
	} {
		if tc.pulls > 0 {
			tr.PreFinish(tc.id, tc.pulls, time.Duration(tc.pulls)*time.Millisecond)
		}
		qt := runQuery(tr, tc.kind, tc.id, tc.err)
		if qt.Pulls != tc.pulls || qt.PullSeconds != float64(tc.pulls)/1000 {
			t.Errorf("%s %q: pulls %d in %g s, want %d in %g s", tc.kind, tc.id, qt.Pulls, qt.PullSeconds, tc.pulls, float64(tc.pulls)/1000)
		}
		raw, err := json.Marshal(qt)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if err := validate(schema, schema, doc, "$"); err != nil {
			t.Errorf("%s trace violates schema: %v\n%s", tc.kind, err, raw)
		}
	}
	if n := len(tr.pulls); n != 0 {
		t.Errorf("%d pull registrations left after every query finished", n)
	}
}

// TestSchemaRejectsBadDocs guards the validator itself: documents missing
// required fields or carrying wrong types must fail.
func TestSchemaRejectsBadDocs(t *testing.T) {
	schema := loadSchema(t)
	qt := runQuery(New(Config{}), "join", "", nil)
	good, _ := json.Marshal(qt)
	for name, mutate := range map[string]func(m map[string]any){
		"missing-id":      func(m map[string]any) { delete(m, "id") },
		"wrong-kind":      func(m map[string]any) { m["kind"] = "table-scan" },
		"string-wall":     func(m map[string]any) { m["wall_seconds"] = "fast" },
		"bad-span-name":   func(m map[string]any) { m["root"].(map[string]any)["name"] = "mystery" },
		"float-resources": func(m map[string]any) { m["resources"].(map[string]any)["node_io"] = 1.5 },
		"float-pulls":     func(m map[string]any) { m["pulls"] = 1.5 },
	} {
		var doc map[string]any
		if err := json.Unmarshal(good, &doc); err != nil {
			t.Fatal(err)
		}
		mutate(doc)
		if err := validate(schema, schema, doc, "$"); err == nil {
			t.Errorf("%s: schema accepted an invalid document", name)
		}
	}
}

func loadSchema(t *testing.T) map[string]any {
	t.Helper()
	raw, err := os.ReadFile("testdata/querytrace.schema.json")
	if err != nil {
		t.Fatal(err)
	}
	var schema map[string]any
	if err := json.Unmarshal(raw, &schema); err != nil {
		t.Fatalf("schema is not valid JSON: %v", err)
	}
	return schema
}

// validate implements the draft-07 subset the schema uses: type, enum,
// required, properties, items, and local $ref. root is the document root
// schema (for resolving "#/definitions/..." refs).
func validate(root, schema map[string]any, doc any, path string) error {
	if ref, ok := schema["$ref"].(string); ok {
		target, err := resolveRef(root, ref)
		if err != nil {
			return err
		}
		return validate(root, target, doc, path)
	}
	if typ, ok := schema["type"].(string); ok {
		if err := checkType(typ, doc, path); err != nil {
			return err
		}
	}
	if enum, ok := schema["enum"].([]any); ok {
		found := false
		for _, v := range enum {
			if v == doc {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%s: value %v not in enum %v", path, doc, enum)
		}
	}
	if obj, ok := doc.(map[string]any); ok {
		if req, ok := schema["required"].([]any); ok {
			for _, r := range req {
				if _, present := obj[r.(string)]; !present {
					return fmt.Errorf("%s: missing required field %q", path, r)
				}
			}
		}
		if props, ok := schema["properties"].(map[string]any); ok {
			for name, sub := range props {
				v, present := obj[name]
				if !present {
					continue
				}
				if err := validate(root, sub.(map[string]any), v, path+"."+name); err != nil {
					return err
				}
			}
		}
	}
	if arr, ok := doc.([]any); ok {
		if items, ok := schema["items"].(map[string]any); ok {
			for i, v := range arr {
				if err := validate(root, items, v, fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func checkType(typ string, doc any, path string) error {
	ok := false
	switch typ {
	case "object":
		_, ok = doc.(map[string]any)
	case "array":
		_, ok = doc.([]any)
	case "string":
		_, ok = doc.(string)
	case "boolean":
		_, ok = doc.(bool)
	case "number":
		_, ok = doc.(float64)
	case "integer":
		f, isNum := doc.(float64)
		ok = isNum && f == math.Trunc(f)
	default:
		return fmt.Errorf("%s: unsupported schema type %q", path, typ)
	}
	if !ok {
		return fmt.Errorf("%s: value %v is not a %s", path, doc, typ)
	}
	return nil
}

func resolveRef(root map[string]any, ref string) (map[string]any, error) {
	const prefix = "#/"
	if !strings.HasPrefix(ref, prefix) {
		return nil, fmt.Errorf("unsupported $ref %q", ref)
	}
	cur := any(root)
	for _, seg := range strings.Split(strings.TrimPrefix(ref, prefix), "/") {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("$ref %q: %q is not an object", ref, seg)
		}
		cur, ok = m[seg]
		if !ok {
			return nil, fmt.Errorf("$ref %q: missing segment %q", ref, seg)
		}
	}
	m, ok := cur.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("$ref %q does not resolve to a schema", ref)
	}
	return m, nil
}
