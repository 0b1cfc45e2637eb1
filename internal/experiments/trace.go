package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"distjoin/internal/distjoin"
)

// TraceTTK runs the Table-1 workload once, stamping Next, and returns the
// time-to-k-th-pair table — the paper's incrementality claim made
// measurable: each row reports how long after the join was opened the k-th
// result pair was delivered, its distance (the result frontier at that
// moment), and the live queue depth.
func TraceTTK(d *Datasets) ([]Run, error) {
	target := maxInt(d.Scale.PairCounts)
	run, out, err := d.open(distjoin.NewJoinIndexes, d.Scale.hybridOpts(), false).drain("trace", target, ranks(d.Scale.PairCounts), false)
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: %d-pair run delivered no requested k (reported %d)",
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
