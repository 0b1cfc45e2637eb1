// Package otlpexport ships completed query traces to an OpenTelemetry
// collector over OTLP/HTTP-JSON — hand-rolled against the proto3 JSON
// mapping of opentelemetry-proto (trace/v1), because the repo takes no
// external dependencies. Only the subset of the protocol the query service
// produces is modelled: resource + scope + spans with string/int
// attributes, span status, and span links.
//
// The package has two layers: the wire types, the QueryTrace→span
// conversion and the wire contract's validator (this file), and the
// batching Exporter with bounded queue and retry (exporter.go). The
// validating collector the tests and mockotlp run is internal/otlptest.
package otlpexport

import (
	"fmt"
	"strconv"
	"time"

	"distjoin/internal/qtrace"
)

// OTLP span kinds (trace/v1 SpanKind), proto enum values.
const (
	KindInternal = 1
	KindServer   = 2
	KindClient   = 3
)

// OTLP status codes (trace/v1 Status.StatusCode).
const (
	StatusUnset = 0
	StatusOK    = 1
	StatusError = 2
)

// Span is the exporter's internal span representation: explicit identity,
// real timestamps, and typed attributes. The server's HTTP middleware
// enqueues these directly for per-pull spans; SpansFromQueryTrace flattens
// an engine QueryTrace into them.
type Span struct {
	TraceID    qtrace.TraceID
	SpanID     qtrace.SpanID
	Parent     qtrace.SpanID // zero = root of its trace
	TraceState string
	Name       string
	Kind       int // KindInternal/KindServer/KindClient
	Start, End time.Time
	Attrs      []Attr
	StatusCode int // StatusUnset/StatusOK/StatusError
	StatusMsg  string
	Links      []Link
}

// Attr is one typed span attribute. Exactly one value field is used,
// selected by which setter built it.
type Attr struct {
	Key string
	s   *string
	i   *int64
}

// Str/Int build typed attributes.
func Str(k, v string) Attr       { return Attr{Key: k, s: &v} }
func Int(k string, v int64) Attr { return Attr{Key: k, i: &v} }

// Link points a span at another span in a different trace (or a different
// branch of the same trace) — the pull↔query cross-reference.
type Link struct {
	TraceID qtrace.TraceID
	SpanID  qtrace.SpanID
}

// Wire types: the proto3 JSON mapping of opentelemetry-proto trace/v1.
// Field names are the mapping's lowerCamelCase; 64-bit integers travel as
// strings per the mapping; trace/span ids are lowercase hex (not base64 —
// the HTTP/JSON flavour of OTLP uses hex ids).

// ExportRequest is the body of POST /v1/traces.
type ExportRequest struct {
	ResourceSpans []ResourceSpans `json:"resourceSpans"`
}

// ResourceSpans groups spans under one resource (one process).
type ResourceSpans struct {
	Resource   Resource     `json:"resource"`
	ScopeSpans []ScopeSpans `json:"scopeSpans"`
}

// Resource identifies the producing process.
type Resource struct {
	Attributes []KeyValue `json:"attributes"`
}

// ScopeSpans groups spans under one instrumentation scope.
type ScopeSpans struct {
	Scope Scope      `json:"scope"`
	Spans []WireSpan `json:"spans"`
}

// Scope names the instrumentation that produced the spans.
type Scope struct {
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
}

// WireSpan is one OTLP span on the wire.
type WireSpan struct {
	TraceID           string     `json:"traceId"`
	SpanID            string     `json:"spanId"`
	ParentSpanID      string     `json:"parentSpanId,omitempty"`
	TraceState        string     `json:"traceState,omitempty"`
	Name              string     `json:"name"`
	Kind              int        `json:"kind"`
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	EndTimeUnixNano   string     `json:"endTimeUnixNano"`
	Attributes        []KeyValue `json:"attributes,omitempty"`
	Status            *Status    `json:"status,omitempty"`
	Links             []WireLink `json:"links,omitempty"`
}

// Status is the span's final status.
type Status struct {
	Code    int    `json:"code,omitempty"`
	Message string `json:"message,omitempty"`
}

// WireLink is one span link on the wire.
type WireLink struct {
	TraceID string `json:"traceId"`
	SpanID  string `json:"spanId"`
}

// KeyValue is one attribute on the wire.
type KeyValue struct {
	Key   string   `json:"key"`
	Value AnyValue `json:"value"`
}

// AnyValue is the proto3 JSON oneof: exactly one field is set. IntValue is
// a decimal string per the 64-bit JSON mapping.
type AnyValue struct {
	StringValue *string `json:"stringValue,omitempty"`
	IntValue    *string `json:"intValue,omitempty"`
}

// wireAttr renders a typed Attr.
func wireAttr(a Attr) KeyValue {
	kv := KeyValue{Key: a.Key}
	switch {
	case a.s != nil:
		kv.Value.StringValue = a.s
	case a.i != nil:
		v := strconv.FormatInt(*a.i, 10)
		kv.Value.IntValue = &v
	default:
		empty := ""
		kv.Value.StringValue = &empty
	}
	return kv
}

// unixNano renders t in the mapping's string-encoded nanosecond form.
func unixNano(t time.Time) string {
	return strconv.FormatInt(t.UnixNano(), 10)
}

// wireSpan renders one internal span.
func wireSpan(s Span) WireSpan {
	w := WireSpan{
		TraceID:           s.TraceID.String(),
		SpanID:            s.SpanID.String(),
		TraceState:        s.TraceState,
		Name:              s.Name,
		Kind:              s.Kind,
		StartTimeUnixNano: unixNano(s.Start),
		EndTimeUnixNano:   unixNano(s.End),
	}
	if !s.Parent.IsZero() {
		w.ParentSpanID = s.Parent.String()
	}
	for _, a := range s.Attrs {
		w.Attributes = append(w.Attributes, wireAttr(a))
	}
	if s.StatusCode != StatusUnset || s.StatusMsg != "" {
		w.Status = &Status{Code: s.StatusCode, Message: s.StatusMsg}
	}
	for _, l := range s.Links {
		w.Links = append(w.Links, WireLink{TraceID: l.TraceID.String(), SpanID: l.SpanID.String()})
	}
	return w
}

// Request assembles the export body for one batch of spans under one
// service resource.
func Request(service string, spans []Span) ExportRequest {
	wire := make([]WireSpan, 0, len(spans))
	for _, s := range spans {
		wire = append(wire, wireSpan(s))
	}
	return ExportRequest{ResourceSpans: []ResourceSpans{{
		Resource: Resource{Attributes: []KeyValue{
			wireAttr(Str("service.name", service)),
		}},
		ScopeSpans: []ScopeSpans{{
			Scope: Scope{Name: "distjoin/qtrace"},
			Spans: wire,
		}},
	}}}
}

// SpansFromQueryTrace flattens one completed engine trace into OTLP spans.
// The query's root span reuses the identity qtrace assigned (so a remote
// parent registered via PreBegin stitches the query under the client's
// trace); interior phase spans get fresh span ids.
//
// The engine's span tree records durations, not timestamps, so wall-clock
// positions are synthesized: the query span covers [start, start+wall],
// non-nested children are laid out sequentially from their parent's start,
// and "of which" (nested) spans start at their parent's start. Every child
// is clamped to its parent's interval — positions inside the query are
// approximate by construction, durations are exact.
func SpansFromQueryTrace(qt *qtrace.QueryTrace) []Span {
	if qt == nil {
		return nil
	}
	traceID, ok1 := qtrace.ParseTraceID(qt.TraceID)
	spanID, ok2 := qtrace.ParseSpanID(qt.SpanID)
	if !ok1 || !ok2 || traceID.IsZero() || spanID.IsZero() {
		// Pre-trace-context documents (old slow logs) still export, on a
		// fresh trace of their own.
		traceID, spanID = qtrace.NewTraceID(), qtrace.NewSpanID()
	}
	start, err := time.Parse(time.RFC3339Nano, qt.StartTime)
	if err != nil {
		start = time.Unix(0, 0)
	}
	end := start.Add(time.Duration(qt.WallSeconds * float64(time.Second)))

	root := Span{
		TraceID: traceID,
		SpanID:  spanID,
		Name:    "query " + qt.Kind,
		Kind:    KindInternal,
		Start:   start,
		End:     end,
		Attrs: []Attr{
			Str("distjoin.query.id", qt.ID),
			Int("distjoin.resources.dist_calcs", qt.Resources.DistCalcs),
		},
	}
	if parent, ok := qtrace.ParseSpanID(qt.ParentSpanID); ok {
		root.Parent = parent
	}
	if qt.Error != "" {
		root.StatusCode = StatusError
		root.StatusMsg = qt.Error
	} else {
		root.StatusCode = StatusOK
	}

	out := []Span{root}
	cursor := start
	for i := range qt.Root.Children {
		c := &qt.Root.Children[i]
		if c.Nested {
			out = layoutSpan(out, c, traceID, spanID, start, end)
			continue
		}
		out = layoutSpan(out, c, traceID, spanID, cursor, end)
		cursor = clampTime(cursor.Add(secondsDur(c.Seconds)), start, end)
	}
	return out
}

// layoutSpan appends s (and its descendants) to out. s occupies
// [pStart, pStart+seconds] clamped to the parent window ending at pEnd;
// s's own non-nested children are laid out sequentially from s's start,
// nested ("of which") children overlap s from its start.
func layoutSpan(out []Span, s *qtrace.Span, traceID qtrace.TraceID, parent qtrace.SpanID, pStart, pEnd time.Time) []Span {
	start, end := spanWindow(s, pStart, pEnd)
	sp := Span{
		TraceID: traceID,
		SpanID:  qtrace.NewSpanID(),
		Parent:  parent,
		Name:    s.Name,
		Kind:    KindInternal,
		Start:   start,
		End:     end,
	}
	out = append(out, sp)
	cursor := start
	for i := range s.Children {
		c := &s.Children[i]
		if c.Nested {
			out = layoutSpan(out, c, traceID, sp.SpanID, start, end)
			continue
		}
		out = layoutSpan(out, c, traceID, sp.SpanID, cursor, end)
		cursor = clampTime(cursor.Add(secondsDur(c.Seconds)), start, end)
	}
	return out
}

// spanWindow synthesizes [start, end] for a duration-only span inside its
// parent's window.
func spanWindow(s *qtrace.Span, pStart, pEnd time.Time) (time.Time, time.Time) {
	end := clampTime(pStart.Add(secondsDur(s.Seconds)), pStart, pEnd)
	return pStart, end
}

func secondsDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

func clampTime(t, lo, hi time.Time) time.Time {
	if t.Before(lo) {
		return lo
	}
	if t.After(hi) {
		return hi
	}
	return t
}

// ValidateWireSpan enforces the exporter's wire contract on one span — hex
// id widths, required fields, parseable timestamps in order, known enum
// values, and well-formed attributes — as a collector sees it. The checked-in
// testdata/otlpspan.schema.json states the same constraints declaratively.
func ValidateWireSpan(sp WireSpan) error {
	if !isHexN(sp.TraceID, 32) {
		return fmt.Errorf("traceId %q is not 32 hex chars", sp.TraceID)
	}
	if !isHexN(sp.SpanID, 16) {
		return fmt.Errorf("spanId %q is not 16 hex chars", sp.SpanID)
	}
	if sp.ParentSpanID != "" && !isHexN(sp.ParentSpanID, 16) {
		return fmt.Errorf("parentSpanId %q is not 16 hex chars", sp.ParentSpanID)
	}
	if sp.Name == "" {
		return fmt.Errorf("span has no name")
	}
	if sp.Kind < KindInternal || sp.Kind > KindClient {
		return fmt.Errorf("kind %d outside the emitted range", sp.Kind)
	}
	start, err := strconv.ParseInt(sp.StartTimeUnixNano, 10, 64)
	if err != nil {
		return fmt.Errorf("startTimeUnixNano %q: %v", sp.StartTimeUnixNano, err)
	}
	end, err := strconv.ParseInt(sp.EndTimeUnixNano, 10, 64)
	if err != nil {
		return fmt.Errorf("endTimeUnixNano %q: %v", sp.EndTimeUnixNano, err)
	}
	if end < start {
		return fmt.Errorf("span ends (%d) before it starts (%d)", end, start)
	}
	if sp.Status != nil && (sp.Status.Code < StatusUnset || sp.Status.Code > StatusError) {
		return fmt.Errorf("status code %d unknown", sp.Status.Code)
	}
	for _, kv := range sp.Attributes {
		if kv.Key == "" {
			return fmt.Errorf("attribute with empty key")
		}
		if (kv.Value.StringValue != nil) == (kv.Value.IntValue != nil) {
			return fmt.Errorf("attribute %q sets no value field or both, want exactly 1", kv.Key)
		}
		if kv.Value.IntValue != nil {
			if _, err := strconv.ParseInt(*kv.Value.IntValue, 10, 64); err != nil {
				return fmt.Errorf("attribute %q intValue %q: %v", kv.Key, *kv.Value.IntValue, err)
			}
		}
	}
	for _, l := range sp.Links {
		if !isHexN(l.TraceID, 32) || !isHexN(l.SpanID, 16) {
			return fmt.Errorf("link %s/%s has malformed ids", l.TraceID, l.SpanID)
		}
	}
	return nil
}

func isHexN(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}
