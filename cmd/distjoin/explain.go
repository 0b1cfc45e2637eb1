package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"distjoin"
	"distjoin/internal/obs"
)

// isMark reports whether the n-th pair is a time-to-kth mark: powers of ten
// (1, 10, 100, ...).
func isMark(n int64) bool {
	for m := int64(1); m <= n; m *= 10 {
		if m == n {
			return true
		}
	}
	return false
}

// kthMark records the delivery of the k-th result pair — the paper's
// incrementality measure (time to the first few results versus the whole
// join).
type kthMark struct {
	K       int64   `json:"k"`
	Seconds float64 `json:"seconds"`
	Dist    float64 `json:"dist"`
}

// delayDoc holds the run's incremental-latency summaries.
type delayDoc struct {
	InterPair obs.HistogramSnapshot `json:"inter_pair"`
	PopToEmit obs.HistogramSnapshot `json:"pop_to_emit"`
}

// explainDoc is what -explain prints and -explain-json emits: the run's
// query trace, its delay quantiles and the time-to-kth marks.
type explainDoc struct {
	Trace     *distjoin.QueryTrace `json:"trace"`
	Delay     delayDoc             `json:"delay"`
	TimeToKth []kthMark            `json:"time_to_kth,omitempty"`
}

// writeHeapProfile triggers a GC (so the profile reflects live objects) and
// writes the heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSpan renders one span of the trace's tree and its children, indented
// by depth; wall is the query's wall time.
func printSpan(w io.Writer, sp *distjoin.QuerySpan, depth int, wall float64) {
	name := strings.Repeat("  ", depth) + sp.Name
	if sp.Nested {
		name += " (nested)"
	}
	pctWall := 0.0
	if wall > 0 {
		pctWall = sp.Seconds / wall * 100
	}
	fmt.Fprintf(w, "%-24s %12.6f %7.1f%% %12d\n", name, sp.Seconds, pctWall, sp.Count)
	for i := range sp.Children {
		printSpan(w, &sp.Children[i], depth+1, wall)
	}
}

// printExplain renders the document as the human EXPLAIN ANALYZE table.
func printExplain(w io.Writer, d *explainDoc) {
	qt := d.Trace
	fmt.Fprintf(w, "=== EXPLAIN ANALYZE: %s %s ===\n", qt.Kind, qt.ID)
	fmt.Fprintf(w, "wall %.4fs (caller %.4fs between Next calls), phase coverage %.1f%%\n", qt.WallSeconds, qt.CallerSeconds, qt.Coverage*100)
	fmt.Fprintf(w, "%-24s %12s %8s %12s\n", "span", "seconds", "%wall", "count")
	printSpan(w, &qt.Root, 0, qt.WallSeconds)
	r := qt.Resources
	fmt.Fprintf(w, "counters: pairs=%d dist_calcs=%d node_io=%d buffer_hits=%d queue_inserts=%d max_queue=%d batch_pruned=%d\n",
		r.Pairs, r.DistCalcs, r.NodeIO, r.BufferHits, r.QueueInserts, r.PeakQueueDepth, r.BatchPruned)
	for _, h := range []struct {
		label string
		obs.HistogramSnapshot
	}{{"inter-pair delay:", d.Delay.InterPair}, {"pop-to-emit:", d.Delay.PopToEmit}} {
		if h.Count > 0 {
			fmt.Fprintf(w, "%-17s p50 %.2gs  p95 %.2gs  p99 %.2gs  (n=%d)\n", h.label, h.P50S, h.P95S, h.P99S, h.Count)
		}
	}
	for _, t := range d.TimeToKth {
		fmt.Fprintf(w, "pair %8d after %10.6fs at distance %g\n", t.K, t.Seconds, t.Dist)
	}
}
