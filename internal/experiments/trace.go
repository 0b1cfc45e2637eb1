package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"distjoin/internal/obs"
)

// TraceTTK runs the Table-1 workload once with event tracing enabled and
// derives the time-to-k-th-pair table from the trace — the paper's
// incrementality claim made measurable: each row reports how long after
// engine start the k-th result pair was delivered, its distance (the result
// frontier at that moment), and the live queue depth. See TraceTTKTo to
// also keep the raw trace.
func TraceTTK(d *Datasets) ([]Run, error) { return TraceTTKTo(d, nil) }

// TraceTTKTo is TraceTTK with the raw JSONL trace additionally copied to
// extra (pass nil to discard it).
func TraceTTKTo(d *Datasets, extra io.Writer) ([]Run, error) {
	var buf bytes.Buffer
	var sink io.Writer = &buf
	if extra != nil {
		sink = io.MultiWriter(&buf, extra)
	}
	// Expansion events are sampled: the workload expands thousands of node
	// pairs and the table only needs deliveries.
	rec := obs.New(obs.Config{Trace: sink, ExpandEvery: 64})
	prev := d.Obs
	d.Obs = rec
	defer func() { d.Obs = prev }()

	target := maxInt(d.Scale.PairCounts)
	opts := d.Scale.hybridOpts()
	run, err := d.runJoin("trace", target, opts, false)
	if err != nil {
		return nil, err
	}
	if err := rec.Close(); err != nil {
		return nil, err
	}
	events, err := obs.ReadTrace(&buf)
	if err != nil {
		return nil, fmt.Errorf("experiments: parsing own trace: %w", err)
	}

	want := make(map[int64]int, len(d.Scale.PairCounts))
	for _, k := range d.Scale.PairCounts {
		want[int64(k)] = 0
	}
	out := make([]Run, 0, len(d.Scale.PairCounts))
	for _, ev := range events {
		if ev.Type != obs.EvDeliver {
			continue
		}
		if _, ok := want[ev.Seq]; !ok {
			continue
		}
		out = append(out, Run{
			Label:    fmt.Sprintf("time-to-%d", ev.Seq),
			Pairs:    int(ev.Seq),
			Reported: int(ev.Seq),
			Time:     ev.T,
			MaxQueue: ev.N, // live queue depth at delivery, not the high-water mark
			LastDist: ev.Dist,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: trace of %d-pair run contains no requested delivery (reported %d)",
			target, run.Reported)
	}
	return out, nil
}

// TTKPoint records the delivery of the k-th result pair.
type TTKPoint struct {
	K       int64   `json:"k"`
	Seconds float64 `json:"seconds"`
	Dist    float64 `json:"dist"`
}

// TTKDocument is the JSON shape of the trace experiment (-exp trace -json).
type TTKDocument struct {
	SchemaVersion int        `json:"schema_version"`
	Label         string     `json:"label"`
	TimeToKth     []TTKPoint `json:"time_to_kth"`
}

// ttkSchemaVersion identifies TTKDocument's JSON schema.
const ttkSchemaVersion = 1

// TTKPoints converts trace-experiment rows to time-to-kth points.
func TTKPoints(runs []Run) []TTKPoint {
	pts := make([]TTKPoint, len(runs))
	for i, r := range runs {
		pts[i] = TTKPoint{
			K:       int64(r.Reported),
			Seconds: r.Time.Seconds(),
			Dist:    r.LastDist,
		}
	}
	return pts
}

// WriteTTKJSON emits the trace experiment's time-to-kth table as one JSON
// document.
func WriteTTKJSON(w io.Writer, runs []Run) error {
	doc := TTKDocument{
		SchemaVersion: ttkSchemaVersion,
		Label:         "trace",
		TimeToKth:     TTKPoints(runs),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
