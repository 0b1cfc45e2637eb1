// Command distjoin runs an incremental distance join or distance semi-join
// over two CSV point files and streams the result pairs to stdout, one per
// line: "obj1 obj2 distance".
//
// Usage:
//
//	distjoin -a water.csv -b roads.csv [-semi] [-knn n] [-k 10] [-max d]
//	         [-metric euclidean|manhattan|chessboard] [-reverse]
//	         [-queue memory|hybrid] [-queue-dt d]
//	         [-stats-json] [-metrics-addr :8090]
//	         [-linger 30s] [-explain] [-explain-json]
//	         [-flightrec n] [-slowlog file] [-slow-wall d]
//	         [-query-id id]
//	         [-cpuprofile f] [-memprofile f]
//
// Pairs stream out closest-first as they are found — pipe through `head`
// to see the incremental behaviour: the first pairs appear long before a
// full join could complete.
//
// Observability: -metrics-addr serves live Prometheus metrics on /metrics
// plus pprof under /debug/, and -stats-json prints the final performance
// counters as one JSON object on stdout after the pair stream. -linger
// keeps the metrics endpoint up for the given duration after the join
// completes, so short runs can still be scraped.
//
// Query tracing: -flightrec keeps the last n completed query traces in an
// in-memory flight recorder — served as JSON at /debug/queries (and
// /debug/queries/<id>) when -metrics-addr is set, dumped to stderr
// otherwise. -slowlog appends the full span tree of slow queries to a
// JSONL file; -slow-wall sets the wall-time threshold (without it every
// query is logged). -query-id names the run's trace; otherwise the tracer
// assigns a sequential ID. See DESIGN.md §8 for the trace schema and the
// metric/span reference.
//
// Profiling: -explain prints an EXPLAIN ANALYZE table on stderr when the
// run finishes — the run's query trace (span tree with wall time attributed
// to engine phases, resources), delay percentiles and time-to-kth marks;
// -explain-json prints the same three as one JSON object on stdout after
// the pair stream. Both enable per-query tracing. -cpuprofile and
// -memprofile write pprof profiles on clean shutdown.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"distjoin"
	"distjoin/internal/datagen"
	"distjoin/internal/geom"
)

// cliOptions carries every flag; tests drive run with a literal.
type cliOptions struct {
	fileA, fileB string
	semi         bool
	knn          int
	k            int
	maxD         float64
	metricName   string
	reverse      bool
	queueName    string
	queueDT      float64
	statsJSON    bool
	metricsAddr  string
	linger       time.Duration
	explain      bool
	explainJSON  bool
	cpuProfile   string
	memProfile   string
	flightRec    int
	slowLogPath  string
	slowWall     time.Duration
	queryID      string
}

func main() {
	var o cliOptions
	flag.StringVar(&o.fileA, "a", "", "CSV file with the first (outer) point set")
	flag.StringVar(&o.fileB, "b", "", "CSV file with the second (inner) point set")
	flag.BoolVar(&o.semi, "semi", false, "compute the distance semi-join instead of the distance join")
	flag.IntVar(&o.knn, "knn", 0, "with -semi: report the knn nearest partners per object instead of 1")
	flag.IntVar(&o.k, "k", 0, "stop after k pairs (0 = unlimited); also activates max-distance estimation")
	flag.Float64Var(&o.maxD, "max", 0, "maximum pair distance (0 = unlimited)")
	flag.StringVar(&o.metricName, "metric", "euclidean", "distance metric: euclidean, manhattan, chessboard")
	flag.BoolVar(&o.reverse, "reverse", false, "report pairs farthest-first")
	flag.StringVar(&o.queueName, "queue", "memory", "priority queue: memory, or hybrid (three-tier, pages large distances out of the heap)")
	flag.Float64Var(&o.queueDT, "queue-dt", 0, "with -queue hybrid: bucket width D_T (0 = adaptive)")
	flag.BoolVar(&o.statsJSON, "stats-json", false, "print the final performance counters as JSON on stdout after the pairs")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/queries and /debug/pprof on this address")
	flag.DurationVar(&o.linger, "linger", 0, "keep the metrics endpoint up this long after the join completes")
	flag.BoolVar(&o.explain, "explain", false, "print an EXPLAIN ANALYZE table (phases, delays, time to k-th pair) on stderr when done")
	flag.BoolVar(&o.explainJSON, "explain-json", false, "print what -explain shows as one JSON object on stdout after the pairs")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	flag.IntVar(&o.flightRec, "flightrec", 0, "enable per-query tracing with a flight recorder of this many traces (served at /debug/queries with -metrics-addr, dumped to stderr otherwise)")
	flag.StringVar(&o.slowLogPath, "slowlog", "", "write slow-query traces to this file as JSONL (enables per-query tracing)")
	flag.DurationVar(&o.slowWall, "slow-wall", 0, "slow-log queries whose wall time reaches this threshold (0 with no other threshold = log every query)")
	flag.StringVar(&o.queryID, "query-id", "", "query ID for this run's trace (default: tracer-assigned)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "distjoin:", err)
		os.Exit(1)
	}
}

func loadIndex(path string) (*distjoin.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pts, err := datagen.ReadPoints(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return distjoin.BulkIndexPoints(distjoin.IndexConfig{}, pts)
}

func run(o cliOptions) error {
	if o.knn > 0 && !o.semi {
		return fmt.Errorf("-knn requires -semi")
	}
	if o.fileA == "" || o.fileB == "" {
		return fmt.Errorf("both -a and -b are required")
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if o.memProfile != "" {
		defer func() {
			if err := writeHeapProfile(o.memProfile); err != nil {
				fmt.Fprintln(os.Stderr, "distjoin: heap profile:", err)
			}
		}()
	}
	metric := geom.MetricByName(o.metricName)
	if metric == nil {
		return fmt.Errorf("unknown metric %q", o.metricName)
	}

	a, err := loadIndex(o.fileA)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := loadIndex(o.fileB)
	if err != nil {
		return err
	}
	defer b.Close()

	c := &distjoin.Stats{}
	var rec *distjoin.Recorder
	explain := o.explain || o.explainJSON
	if o.metricsAddr != "" || explain {
		rec = distjoin.NewRecorder(distjoin.ObsConfig{})
	}
	a.SetObserver(rec, c)
	b.SetObserver(rec, c)

	// Per-query tracing: a flight recorder, slow-query log, explicit query
	// ID or -explain all enable the tracer. The slow-log file is closed after
	// the tracer flushes into it (defers run last-in first-out).
	var tracer *distjoin.QueryTracer
	if o.flightRec > 0 || o.slowLogPath != "" || o.queryID != "" || o.slowWall > 0 || explain {
		cfg := distjoin.QueryTraceConfig{FlightSize: o.flightRec, SlowWall: o.slowWall}
		if o.slowLogPath != "" {
			slowFile, err := os.Create(o.slowLogPath)
			if err != nil {
				return err
			}
			defer slowFile.Close()
			cfg.SlowLog = slowFile
		}
		tracer = distjoin.NewQueryTracer(cfg)
		defer func() {
			if err := tracer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "distjoin: slow-query log:", err)
			}
		}()
	}

	if o.metricsAddr != "" {
		srv, err := distjoin.ServeMetrics(o.metricsAddr, rec, tracer)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", srv.Addr())
		defer srv.Close()
		if o.linger > 0 {
			defer time.Sleep(o.linger)
		}
	}

	opts := distjoin.Options{
		Metric:   metric,
		MaxDist:  o.maxD,
		MaxPairs: o.k,
		Reverse:  o.reverse,
		Counters: c,
		Obs:      rec,
		Tracer:   tracer,
		QueryID:  o.queryID,
	}
	switch o.queueName {
	case "", "memory":
	case "hybrid":
		opts.Queue = distjoin.QueueHybrid
		opts.HybridDT = o.queueDT
	default:
		return fmt.Errorf("unknown queue %q (want memory or hybrid)", o.queueName)
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	start := time.Now()
	var marks []kthMark
	it, err := makeIterator(a, b, o.semi, o.knn, opts)
	if err != nil {
		return err
	}
	defer it.Close()
	var nPairs int64
	for {
		p, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		nPairs++
		if explain && (isMark(nPairs) || (o.k > 0 && nPairs == int64(o.k))) {
			marks = append(marks, kthMark{K: nPairs, Seconds: time.Since(start).Seconds(), Dist: p.Dist})
		}
		if _, err := fmt.Fprintf(out, "%d %d %g\n", p.Obj1, p.Obj2, p.Dist); err != nil {
			return err
		}
	}
	// Closing the iterator lands the run's query trace in the tracer.
	if err := it.Close(); err != nil {
		return err
	}
	// With a flight recorder but no metrics endpoint to curl, dump the
	// run's trace to stderr so it is not lost with the process.
	if tracer != nil && o.flightRec > 0 && o.metricsAddr == "" {
		if traces := tracer.Traces(); len(traces) > 0 {
			enc, err := json.MarshalIndent(traces[0], "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "%s\n", enc)
		}
	}
	if explain {
		snap := rec.Snapshot()
		doc := explainDoc{
			Trace:     tracer.Traces()[0],
			Delay:     delayDoc{InterPair: snap.InterPairDelay, PopToEmit: snap.PopToEmit},
			TimeToKth: marks,
		}
		if o.explainJSON {
			enc, err := json.Marshal(doc)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s\n", enc)
		}
		if o.explain {
			out.Flush()
			printExplain(os.Stderr, &doc)
		}
	}
	if o.statsJSON {
		enc, err := json.Marshal(c.Snapshot())
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", enc)
	}
	return nil
}

// makeIterator starts the join, or with semi the k-NN join (k = 1 being
// the semi-join).
func makeIterator(a, b *distjoin.Index, semi bool, knn int, opts distjoin.Options) (*distjoin.Join, error) {
	if semi {
		return distjoin.KNearestJoinIndexes(a.AsSpatialIndex(), b.AsSpatialIndex(), max(knn, 1), distjoin.FilterGlobalAll, opts)
	}
	return distjoin.DistanceJoinIndexes(a.AsSpatialIndex(), b.AsSpatialIndex(), opts)
}
