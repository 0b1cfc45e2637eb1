package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestWriteTTKJSONSharesProfileSchema(t *testing.T) {
	runs := []Run{
		{Label: "time-to-1", Reported: 1, Time: 2 * time.Millisecond, LastDist: 0.5},
		{Label: "time-to-10", Reported: 10, Time: 5 * time.Millisecond, LastDist: 1.25},
	}
	var buf bytes.Buffer
	if err := WriteTTKJSON(&buf, runs); err != nil {
		t.Fatal(err)
	}
	var doc TTKDocument
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("decoding own output: %v\n%s", err, buf.String())
	}
	if doc.SchemaVersion != ttkSchemaVersion {
		t.Errorf("schema version %d, want %d", doc.SchemaVersion, ttkSchemaVersion)
	}
	if doc.Label != "trace" {
		t.Errorf("label %q", doc.Label)
	}
	if len(doc.TimeToKth) != 2 {
		t.Fatalf("%d points, want 2", len(doc.TimeToKth))
	}
	want := []TTKPoint{
		{K: 1, Seconds: 0.002, Dist: 0.5},
		{K: 10, Seconds: 0.005, Dist: 1.25},
	}
	for i, p := range doc.TimeToKth {
		if p != want[i] {
			t.Errorf("point %d = %+v, want %+v", i, p, want[i])
		}
	}
}

// TestTraceTTKFeedsProfileSchema runs the real trace experiment at tiny
// scale and checks its points convert cleanly.
func TestTraceTTKFeedsProfileSchema(t *testing.T) {
	d := loadTiny(t)
	runs, err := TraceTTK(d)
	if err != nil {
		t.Fatal(err)
	}
	pts := TTKPoints(runs)
	if len(pts) == 0 {
		t.Fatal("no time-to-kth points")
	}
	prevK := int64(0)
	for _, p := range pts {
		if p.K <= prevK {
			t.Errorf("ks not increasing: %d after %d", p.K, prevK)
		}
		prevK = p.K
		if p.Seconds <= 0 {
			t.Errorf("k=%d: non-positive seconds %g", p.K, p.Seconds)
		}
	}
}
