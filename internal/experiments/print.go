package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"
)

// PrintRuns renders runs as an aligned table mirroring the paper's Table 1
// columns: pairs requested, wall time, object distance calculations,
// maximum queue size, node I/O.
func PrintRuns(w io.Writer, title string, runs []Run) {
	fmt.Fprintf(w, "== %s ==\n", title)
	// The fault-injection columns only appear when some run used them, so
	// the paper-reproduction tables keep their exact Table-1 shape.
	faults := false
	for _, r := range runs {
		if r.Retries != 0 || r.Err != "" {
			faults = true
			break
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := "variant\tpairs\treported\ttime\tdist.calc\tqueue max (pairs / elements)\tnode I/O\tlast dist"
	if faults {
		header += "\tretries\terror"
	}
	fmt.Fprintln(tw, header)
	for _, r := range runs {
		pairs := fmt.Sprintf("%d", r.Pairs)
		if r.Pairs <= 0 {
			pairs = "all"
		}
		// Queue size in pairs, and in elements of the queue's own structure
		// where the leg reports them.
		queue := fmt.Sprintf("%d", r.MaxQueue)
		if r.MaxElements > 0 {
			queue += fmt.Sprintf(" / %d", r.MaxElements)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%d\t%s\t%d\t%.2f",
			r.Label, pairs, r.Reported, FormatDuration(r.Time), r.DistCalcs, queue, r.NodeIO, r.LastDist)
		if faults {
			errCell := r.Err
			if errCell == "" {
				errCell = "-"
			}
			fmt.Fprintf(tw, "\t%d\t%s", r.Retries, errCell)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// FormatDuration renders a duration with a granularity suited to its
// magnitude, so microsecond and multi-second runs both read well.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// WriteJSON renders runs as a JSON document for plotting tools: one object
// per run with the experiment id attached.
func WriteJSON(w io.Writer, id string, runs []Run) error {
	type row struct {
		Experiment string  `json:"experiment"`
		Variant    string  `json:"variant"`
		Pairs      int     `json:"pairs_requested"`
		Reported   int     `json:"pairs_reported"`
		Seconds    float64 `json:"seconds"`
		DistCalcs  int64   `json:"dist_calcs"`
		QueueMax   int64   `json:"queue_max"`
		QueueElems int64   `json:"queue_max_elements,omitempty"`
		NodeIO     int64   `json:"node_io"`
		LastDist   float64 `json:"last_dist"`
		Retries    int64   `json:"io_retries,omitempty"`
		Err        string  `json:"error,omitempty"`
	}
	rows := make([]row, len(runs))
	for i, r := range runs {
		rows[i] = row{
			Experiment: id,
			Variant:    r.Label,
			Pairs:      r.Pairs,
			Reported:   r.Reported,
			Seconds:    r.Time.Seconds(),
			DistCalcs:  r.DistCalcs,
			QueueMax:   r.MaxQueue,
			QueueElems: r.MaxElements,
			NodeIO:     r.NodeIO,
			LastDist:   r.LastDist,
			Retries:    r.Retries,
			Err:        r.Err,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// SeriesByLabel groups runs into per-variant series ordered by pair count —
// the shape of the paper's figures (one curve per variant).
func SeriesByLabel(runs []Run) map[string][]Run {
	out := map[string][]Run{}
	for _, r := range runs {
		out[r.Label] = append(out[r.Label], r)
	}
	for _, s := range out {
		sort.Slice(s, func(i, j int) bool { return s[i].Pairs < s[j].Pairs })
	}
	return out
}
