package otlpexport

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"distjoin/internal/profile"
	"distjoin/internal/qtrace"
	"distjoin/internal/stats"
)

// tracedQuery drives one synthetic query with a remote parent through the
// lifecycle the server uses: PreBegin under the client's context, Begin,
// then Finish with the engine's closing report.
func tracedQuery(tr *qtrace.Tracer, id string, parent qtrace.SpanContext, qerr error) *qtrace.QueryTrace {
	tr.PreBegin(id, parent)
	q := tr.Begin("join", id)
	r := qtrace.Report{Counts: stats.Counters{PairsReported: 10, DistCalcs: 3}}
	r.Tally.NS[profile.PhaseExpand], r.Tally.Counts[profile.PhaseExpand] = int64(3*time.Millisecond), 1
	r.Tally.NS[profile.PhaseSpill], r.Tally.Counts[profile.PhaseSpill] = int64(2*time.Millisecond), 1
	r.Tally.IOWriteNS, r.Tally.IOWrites = int64(time.Millisecond), 1
	return q.Finish(r, qerr)
}

func TestSpansFromQueryTrace(t *testing.T) {
	parent, _ := qtrace.ParseTraceParent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	tr := qtrace.New(qtrace.Config{})
	qt := tracedQuery(tr, "q1", parent, nil)

	spans := SpansFromQueryTrace(qt)
	if len(spans) < 3 {
		t.Fatalf("got %d spans, want the query root plus phase spans:\n%+v", len(spans), spans)
	}
	root := spans[0]
	if root.TraceID.String() != qt.TraceID || root.SpanID.String() != qt.SpanID {
		t.Errorf("root identity %s/%s, want the QueryTrace's %s/%s", root.TraceID, root.SpanID, qt.TraceID, qt.SpanID)
	}
	if root.Parent.String() != parent.SpanID.String() {
		t.Errorf("root parent %s, want the client span %s", root.Parent, parent.SpanID)
	}
	if root.StatusCode != StatusOK {
		t.Errorf("clean query status %d, want OK", root.StatusCode)
	}
	byID := map[qtrace.SpanID]Span{}
	for _, s := range spans {
		if s.TraceID != root.TraceID {
			t.Errorf("span %q on trace %s, want all on %s", s.Name, s.TraceID, root.TraceID)
		}
		byID[s.SpanID] = s
	}
	for _, s := range spans[1:] {
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %q parent %s is not in the export", s.Name, s.Parent)
			continue
		}
		if s.Start.Before(p.Start) || s.End.After(p.End) {
			t.Errorf("span %q [%v,%v] escapes parent %q [%v,%v]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.End.Before(s.Start) {
			t.Errorf("span %q ends before it starts", s.Name)
		}
	}

	// An errored query exports an error status.
	qtErr := tracedQuery(tr, "q2", qtrace.SpanContext{}, fmt.Errorf("disk on fire"))
	if s := SpansFromQueryTrace(qtErr)[0]; s.StatusCode != StatusError || s.StatusMsg != "disk on fire" {
		t.Errorf("errored query status = %d %q", s.StatusCode, s.StatusMsg)
	}

	// Pre-trace-context documents (no ids) still export on a fresh trace.
	legacy := &qtrace.QueryTrace{ID: "old", Kind: "join", StartTime: time.Now().Format(time.RFC3339Nano), WallSeconds: 0.5}
	if s := SpansFromQueryTrace(legacy); len(s) != 1 || s[0].TraceID.IsZero() || s[0].SpanID.IsZero() {
		t.Errorf("legacy trace export = %+v, want one span with fresh identity", s)
	}
	if SpansFromQueryTrace(nil) != nil {
		t.Error("nil QueryTrace must export nothing")
	}
}

// TestRequestWireShape pins the proto3 JSON mapping details a real
// collector depends on: camelCase keys, hex ids, string-encoded integers.
func TestRequestWireShape(t *testing.T) {
	tr := qtrace.New(qtrace.Config{})
	qt := tracedQuery(tr, "q3", qtrace.SpanContext{}, nil)
	raw, err := json.Marshal(Request("distjoind-test", SpansFromQueryTrace(qt)))
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	for _, want := range []string{
		`"resourceSpans":[`, `"scopeSpans":[`, `"spans":[`,
		`"key":"service.name","value":{"stringValue":"distjoind-test"}`,
		`"traceId":"` + qt.TraceID + `"`,
		`"startTimeUnixNano":"`,
		`"key":"distjoin.query.id","value":{"stringValue":"q3"}`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("wire JSON missing %s:\n%s", want, s)
		}
	}
	// Integer attributes are string-encoded per the 64-bit JSON mapping.
	if !regexp.MustCompile(`"key":"distjoin\.resources\.dist_calcs","value":\{"intValue":"3"\}`).MatchString(s) {
		t.Errorf("intValue not string-encoded:\n%s", s)
	}
	if strings.Contains(s, `"snake_case"`) || strings.Contains(s, `"trace_id"`) {
		t.Errorf("snake_case key leaked into the wire format:\n%s", s)
	}
}

// TestWireSpanMatchesSchema validates exporter output against the
// checked-in schema subset with a dependency-free validator, then checks
// the collector's Go-side validation agrees with the schema on both good
// and mutated documents.
func TestWireSpanMatchesSchema(t *testing.T) {
	schema := loadSchema(t)
	parent, _ := qtrace.ParseTraceParent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	tr := qtrace.New(qtrace.Config{})
	qt := tracedQuery(tr, "q4", parent, fmt.Errorf("boom"))
	for _, sp := range SpansFromQueryTrace(qt) {
		wire := wireSpan(sp)
		raw, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if err := validate(schema, schema, doc, "$"); err != nil {
			t.Errorf("span %q violates schema: %v\n%s", sp.Name, err, raw)
		}
		if err := ValidateWireSpan(wire); err != nil {
			t.Errorf("collector rejects exporter span %q: %v", sp.Name, err)
		}
	}
}

func TestValidateWireSpanRejections(t *testing.T) {
	good := wireSpan(Span{
		TraceID: qtrace.NewTraceID(), SpanID: qtrace.NewSpanID(),
		Name: "ok", Kind: KindServer,
		Start: time.Unix(1, 0), End: time.Unix(2, 0),
		Attrs: []Attr{Int("n", 1)},
	})
	if err := ValidateWireSpan(good); err != nil {
		t.Fatalf("good span rejected: %v", err)
	}
	schema := loadSchema(t)
	for name, mutate := range map[string]func(*WireSpan){
		"short-trace-id": func(s *WireSpan) { s.TraceID = "abc" },
		"uppercase-hex":  func(s *WireSpan) { s.SpanID = strings.ToUpper(s.SpanID) },
		"no-name":        func(s *WireSpan) { s.Name = "" },
		"bad-kind":       func(s *WireSpan) { s.Kind = 9 },
		"bad-start":      func(s *WireSpan) { s.StartTimeUnixNano = "soon" },
		"ends-before":    func(s *WireSpan) { s.EndTimeUnixNano = "0" },
		"two-value-attr": func(s *WireSpan) { s.Attributes[0].Value.StringValue = new(string) },
		"non-int-int":    func(s *WireSpan) { v := "1.5"; s.Attributes[0].Value.IntValue = &v },
		"malformed-link": func(s *WireSpan) { s.Links = []WireLink{{TraceID: "zz", SpanID: "zz"}} },
	} {
		bad := good
		bad.Attributes = append([]KeyValue(nil), good.Attributes...)
		mutate(&bad)
		if err := ValidateWireSpan(bad); err == nil {
			t.Errorf("%s: collector accepted an invalid span", name)
		}
		raw, _ := json.Marshal(bad)
		var doc any
		json.Unmarshal(raw, &doc)
		if err := validate(schema, schema, doc, "$"); err == nil && name != "ends-before" && name != "two-value-attr" {
			// The schema can't express cross-field rules (time ordering,
			// oneof cardinality); everything else it must also reject.
			t.Errorf("%s: schema accepted an invalid span", name)
		}
	}
}

func loadSchema(t *testing.T) map[string]any {
	t.Helper()
	raw, err := os.ReadFile("testdata/otlpspan.schema.json")
	if err != nil {
		t.Fatal(err)
	}
	var schema map[string]any
	if err := json.Unmarshal(raw, &schema); err != nil {
		t.Fatalf("schema is not valid JSON: %v", err)
	}
	return schema
}

// validate implements the draft-07 subset the schema uses — type, enum,
// required, properties, items, pattern, and local $ref — mirroring the
// validator the qtrace schema tests use, plus pattern support for the hex
// id constraints.
func validate(root, schema map[string]any, doc any, path string) error {
	if ref, ok := schema["$ref"].(string); ok {
		name := strings.TrimPrefix(ref, "#/definitions/")
		defs, _ := root["definitions"].(map[string]any)
		target, ok := defs[name].(map[string]any)
		if !ok {
			return fmt.Errorf("%s: unresolvable $ref %q", path, ref)
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
			if jsonEqual(v, doc) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%s: value %v not in enum %v", path, doc, enum)
		}
	}
	if ml, ok := schema["minLength"].(float64); ok {
		if s, isStr := doc.(string); isStr && len(s) < int(ml) {
			return fmt.Errorf("%s: %q shorter than minLength %d", path, s, int(ml))
		}
	}
	if pat, ok := schema["pattern"].(string); ok {
		s, isStr := doc.(string)
		if !isStr {
			return fmt.Errorf("%s: pattern on non-string %v", path, doc)
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return fmt.Errorf("%s: bad pattern %q: %v", path, pat, err)
		}
		if !re.MatchString(s) {
			return fmt.Errorf("%s: %q does not match %q", path, s, pat)
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
	case "number":
		_, ok = doc.(float64)
	case "boolean":
		_, ok = doc.(bool)
	case "integer":
		f, isNum := doc.(float64)
		ok = isNum && f == float64(int64(f))
	}
	if !ok {
		return fmt.Errorf("%s: %v is not a %s", path, doc, typ)
	}
	return nil
}

// jsonEqual compares enum candidates loosely: JSON numbers decode to
// float64 while schema enums may hold ints.
func jsonEqual(a, b any) bool {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if aok && bok {
		return af == bf
	}
	return a == b
}
