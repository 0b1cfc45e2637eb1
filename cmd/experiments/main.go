// Command experiments regenerates the tables and figures of the paper's
// evaluation section (§4) and prints them as aligned text tables.
//
// Usage:
//
//	experiments [-scale small|full] [-exp all|table1|table1r|fig6|fig7|faults|fig8|fig9|fig10|sec414|sec423|dims|trace]
//	            [-latency 100us] [-json] [-metrics-addr :8090]
//
// The small scale (default) runs the whole matrix in seconds; -scale full
// uses the paper's dataset cardinalities (37,495 × 200,482 points).
//
// -exp trace stamps Next over the Table-1 workload and prints the
// time-to-k-th-pair table (the incrementality claim, measured); with -json
// it is emitted as one experiments.TTKDocument. -metrics-addr serves live
// Prometheus metrics for every experiment run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"distjoin/internal/buildinfo"
	"distjoin/internal/experiments"
	"distjoin/internal/obs"
)

func main() {
	scaleName := flag.String("scale", "small", "experiment scale: small or full")
	expName := flag.String("exp", "all", "experiment id: all, table1, table1r, fig6, fig7, faults, fig8, fig9, fig10, sec414, sec423, dims, trace")
	latency := flag.Duration("latency", 0, "simulated disk latency per node I/O (e.g. 100us) to restore the paper's I/O-dominated cost model")
	asJSON := flag.Bool("json", false, "emit results as JSON instead of tables")
	metricsAddr := flag.String("metrics-addr", "", "serve live /metrics and /debug/pprof on this address during the runs")
	version := flag.Bool("version", false, "print version and build metadata, then exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("experiments"))
		return
	}

	if err := run(*scaleName, *expName, *latency, *asJSON, *metricsAddr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(scaleName, expName string, latency time.Duration, asJSON bool, metricsAddr string) error {
	scale, err := experiments.ScaleByName(scaleName)
	if err != nil {
		return err
	}
	if !asJSON {
		fmt.Printf("scale %s: Water=%d Roads=%d pairs=%v latency=%v\n", scale.Name, scale.WaterN, scale.RoadsN, scale.PairCounts, latency)
	}
	start := time.Now()
	d, err := experiments.LoadWithLatency(scale, latency)
	if err != nil {
		return err
	}
	defer d.Close()
	if metricsAddr != "" {
		d.Obs = obs.New(obs.Config{})
		srv, err := obs.ServeMetricsTraced(metricsAddr, d.Obs, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", srv.Addr())
		defer srv.Close()
	}
	if !asJSON {
		fmt.Printf("built R*-trees in %s (Water height %d, Roads height %d)\n\n",
			experiments.FormatDuration(time.Since(start)), d.Water.Height(), d.Roads.Height())
	}

	type exp struct {
		id    string
		title string
		run   func(*experiments.Datasets) ([]experiments.Run, error)
	}
	all := []exp{
		{"table1", "Table 1: incremental distance join measures (Even/DepthFirst, hybrid queue)", experiments.Table1},
		{"table1r", "§4.1.1: reversed operand order (Roads ⋈ Water), Even vs Basic", experiments.Table1Reversed},
		{"fig6", "Figure 6: execution time of four algorithm versions", experiments.Fig6},
		{"fig7", "Figure 7: maximum distance and maximum pairs (distance join)", experiments.Fig7},
		{"fig8", "Figure 8: memory-only vs hybrid priority queue", experiments.Fig8},
		{"fig9", "Figure 9: distance semi-join filtering strategies", experiments.Fig9},
		{"fig10", "Figure 10: maximum distance and maximum pairs (distance semi-join)", experiments.Fig10},
		{"faults", "Fault injection: retries under transient I/O faults, ordered prefix before unrecoverable ones (beyond the paper)", experiments.Faults},
		{"sec414", "§4.1.4: nested-loop alternative", experiments.Sec414},
		{"sec423", "§4.2.3: semi-join vs nearest-neighbour implementation (both orders)", experiments.Sec423},
		{"dims", "§5 future work: distance join across dimensionalities", func(*experiments.Datasets) ([]experiments.Run, error) {
			return experiments.DimSweep(scale)
		}},
		{"trace", "Time to k-th pair, stamped at Next over the Table 1 workload (incrementality, measured)", experiments.TraceTTK},
	}

	selected := strings.Split(expName, ",")
	match := func(id string) bool {
		for _, s := range selected {
			if s == "all" || s == id {
				return true
			}
		}
		return false
	}
	ran := 0
	for _, e := range all {
		if !match(e.id) {
			continue
		}
		runs, err := e.run(d)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		if asJSON {
			// The trace experiment's rows are time-to-kth points, not Table-1
			// measures, and have a document of their own.
			var err error
			if e.id == "trace" {
				err = experiments.WriteTTKJSON(os.Stdout, runs)
			} else {
				err = experiments.WriteJSON(os.Stdout, e.id, runs)
			}
			if err != nil {
				return err
			}
		} else {
			experiments.PrintRuns(os.Stdout, fmt.Sprintf("[%s] %s", e.id, e.title), runs)
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matches %q", expName)
	}
	return nil
}
