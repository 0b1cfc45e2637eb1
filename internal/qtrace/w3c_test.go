package qtrace

import (
	"strings"
	"testing"
)

func TestParseTraceParent(t *testing.T) {
	const good = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	sc, ok := ParseTraceParent(good)
	if !ok {
		t.Fatalf("ParseTraceParent(%q) failed", good)
	}
	if sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %s", sc.TraceID)
	}
	if sc.SpanID.String() != "00f067aa0ba902b7" {
		t.Errorf("span id = %s", sc.SpanID)
	}
	if !sc.Sampled() || !sc.Valid() {
		t.Errorf("flags = %02x, want sampled+valid", sc.Flags)
	}
	if rt := sc.TraceParent(); rt != good {
		t.Errorf("round trip = %q, want %q", rt, good)
	}

	// Uppercase hex parses (case-insensitive per spec), renders lowercase.
	up, ok := ParseTraceParent(strings.ToUpper(good))
	if !ok || up.TraceID != sc.TraceID || up.SpanID != sc.SpanID {
		t.Errorf("uppercase parse: ok=%v sc=%+v", ok, up)
	}

	// Future versions: extra fields tolerated after a dash, 00 must be exact.
	if _, ok := ParseTraceParent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Error("future-version value with suffix rejected")
	}

	bad := []string{
		"",
		"00",
		good + "x", // version 00 with trailing junk
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff invalid
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // bad flags
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad separator
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01", // bad hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // short
	}
	for _, s := range bad {
		if _, ok := ParseTraceParent(s); ok {
			t.Errorf("ParseTraceParent(%q) accepted", s)
		}
	}
}

func TestNewIDsAreDistinct(t *testing.T) {
	seenT := map[TraceID]bool{}
	seenS := map[SpanID]bool{}
	for i := 0; i < 64; i++ {
		tid, sid := NewTraceID(), NewSpanID()
		if tid.IsZero() || sid.IsZero() || seenT[tid] || seenS[sid] {
			t.Fatalf("id collision or zero at %d: %s %s", i, tid, sid)
		}
		seenT[tid] = true
		seenS[sid] = true
	}
}

// TestPreBeginAdoptsParentContext pins the trace-context flow the query
// service depends on: PreBegin under a client parent yields a child context
// on the client's trace, and the trace document carries the full identity.
func TestPreBeginAdoptsParentContext(t *testing.T) {
	parent, _ := ParseTraceParent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	parent.State = "vendor=1"
	tr := New(Config{})

	sc := tr.PreBegin("c1", parent)
	if sc.TraceID != parent.TraceID {
		t.Fatalf("PreBegin trace id = %s, want parent's", sc.TraceID)
	}
	if sc.SpanID == parent.SpanID || sc.SpanID.IsZero() {
		t.Fatalf("PreBegin span id = %s, want fresh", sc.SpanID)
	}
	if sc.State != "vendor=1" || !sc.Sampled() {
		t.Fatalf("PreBegin context = %+v, want state+flags propagated", sc)
	}

	q := tr.Begin("join", "c1")
	qt := q.Finish(Report{}, nil)
	if qt.TraceID != parent.TraceID.String() || qt.SpanID != sc.SpanID.String() {
		t.Errorf("trace doc identity = %s/%s, want %s/%s", qt.TraceID, qt.SpanID, parent.TraceID, sc.SpanID)
	}
	if qt.ParentSpanID != parent.SpanID.String() {
		t.Errorf("parent span = %q, want %s", qt.ParentSpanID, parent.SpanID)
	}
	if qt.TraceFlags != int(FlagSampled) {
		t.Errorf("trace flags = %d, want %d", qt.TraceFlags, FlagSampled)
	}

	// The registration was consumed: a second Begin with the same id roots
	// a fresh trace.
	qt2 := tr.Begin("join", "c1").Finish(Report{}, nil)
	if qt2.TraceID == qt.TraceID || qt2.ParentSpanID != "" {
		t.Errorf("second trace = %s parent %q, want fresh root", qt2.TraceID, qt2.ParentSpanID)
	}
}

func TestPreBeginInvalidParentRootsFreshTrace(t *testing.T) {
	tr := New(Config{})
	sc := tr.PreBegin("c2", SpanContext{})
	if !sc.Valid() || !sc.Sampled() {
		t.Fatalf("PreBegin with no parent = %+v, want fresh sampled root", sc)
	}
	qt := tr.Begin("join", "c2").Finish(Report{}, nil)
	if qt.TraceID != sc.TraceID.String() || qt.ParentSpanID != "" {
		t.Errorf("trace = %s parent %q, want %s with no parent", qt.TraceID, qt.ParentSpanID, sc.TraceID)
	}
}

func TestUnlinkDropsRegistration(t *testing.T) {
	tr := New(Config{})
	sc := tr.PreBegin("c3", SpanContext{})
	tr.Unlink("c3")
	qt := tr.Begin("join", "c3").Finish(Report{}, nil)
	if qt.TraceID == sc.TraceID.String() {
		t.Error("unlinked context was still adopted")
	}
}

func TestOnCompleteHook(t *testing.T) {
	var tr *Tracer
	var got []*QueryTrace
	tr = New(Config{OnComplete: func(qt *QueryTrace) {
		// The hook runs outside the tracer's lock: reading the flight
		// recorder from inside it must not deadlock, and the completed
		// trace is already visible there.
		if tr.Trace(qt.ID) != qt {
			t.Errorf("trace %s not in flight recorder during hook", qt.ID)
		}
		got = append(got, qt)
	}})
	tr.Begin("join", "q-hook").Finish(Report{}, nil)
	if len(got) != 1 || got[0].ID != "q-hook" {
		t.Fatalf("OnComplete saw %d trace(s), want one q-hook", len(got))
	}
}
