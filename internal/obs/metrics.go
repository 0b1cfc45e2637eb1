package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"distjoin/internal/buildinfo"
	"distjoin/internal/qtrace"
)

// WriteMetricsTraced writes the recorder's current state and the query
// tracer's live count of running queries — each when non-nil — in
// Prometheus text exposition format, every number once (per-query numbers
// are served as JSON by QueriesHandler, not as labeled families: a label per
// query id is unbounded cardinality). Each extra, if any, is invoked in order
// after the built-in families — the hook other subsystems (RED middleware,
// the server's saturation gauges) use to join the same exposition without
// obs importing them.
func WriteMetricsTraced(w io.Writer, r *Recorder, qt *qtrace.Tracer, extras ...func(io.Writer)) {
	buildinfo.WritePrometheus(w)
	if r != nil {
		writeRecorderMetrics(w, r)
	}
	if qt != nil {
		writeGauge(w, "distjoin_queries_active", "Queries begun but not yet finished.", float64(qt.Active()))
	}
	for _, extra := range extras {
		if extra != nil {
			extra(w)
		}
	}
}

// writeRecorderMetrics prints each of the recorder's work counts under one
// family, then its gauges and its two histograms.
func writeRecorderMetrics(w io.Writer, r *Recorder) {
	c := r.counts.Snapshot()
	ratio := 0.0
	if c.NodeReads+c.BufferHits > 0 {
		ratio = float64(c.BufferHits) / float64(c.NodeReads+c.BufferHits)
	}
	writeCounter(w, "distjoin_pairs_delivered_total", "Result pairs delivered to the caller, in distance order.", c.PairsReported)
	writeCounter(w, "distjoin_expansions_total", "Node-pair expansions across all queries.", c.Expansions)
	writeCounter(w, "distjoin_queue_spilled_pairs_total", "Pairs spilled to the hybrid priority queue's disk tier.", c.QueueDiskPairs)
	writeCounter(w, "distjoin_io_retries_total", "Retries of transient queue-store I/O failures (Options.RetryIO).", c.IORetries)
	writeCounter(w, "distjoin_stats_dist_calcs_total", "Object distance computations.", c.DistCalcs)
	writeCounter(w, "distjoin_stats_queue_inserts_total", "Priority-queue inserts.", c.QueueInserts)
	writeCounter(w, "distjoin_stats_node_reads_total", "Index node reads (buffer-pool misses).", c.NodeReads)
	writeCounter(w, "distjoin_stats_buffer_hits_total", "Index node accesses served from the buffer pool.", c.BufferHits)
	writeCounter(w, "distjoin_queries_canceled_total", "Queries that surfaced ErrCanceled (context canceled or deadline exceeded).", c.Cancellations)
	writeGauge(w, "distjoin_stats_max_queue_size", "High-water priority-queue size of any one queue, in pairs.", float64(c.MaxQueueSize))
	writeGauge(w, "distjoin_queue_depth", "Last sampled priority-queue length.", float64(r.queueDepth.Load()))
	writeGauge(w, "distjoin_frontier_distance", "Distance of the most recently delivered pair (the result frontier).", math.Float64frombits(r.frontier.Load()))
	writeGauge(w, "distjoin_pool_hit_ratio", "Buffer-pool hit ratio since the recorder started.", ratio)
	writeHeader(w, "distjoin_inter_pair_delay_seconds", "histogram", "Delay between consecutive delivered pairs of one query (enumeration delay).")
	writeHistogram(w, "distjoin_inter_pair_delay_seconds", "", &r.interPair)
	writeHeader(w, "distjoin_pop_to_emit_seconds", "histogram", "Latency from queue pop to result emission within one engine.")
	writeHistogram(w, "distjoin_pop_to_emit_seconds", "", &r.popToEmit)
}

// QueriesHandler serves the query tracer's flight recorder as JSON:
//
//	/debug/queries       all retained traces, newest first
//	/debug/queries/<id>  one trace by query ID (404 when unknown)
//
// The handler expects to be mounted at prefix (e.g. "/debug/queries").
func QueriesHandler(prefix string, qt *qtrace.Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if qt == nil {
			http.Error(w, "query tracing is not enabled", http.StatusNotFound)
			return
		}
		rest := strings.Trim(strings.TrimPrefix(req.URL.Path, prefix), "/")
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if rest == "" {
			enc.Encode(qt.Traces())
			return
		}
		t := qt.Trace(rest)
		if t == nil {
			w.Header().Del("Content-Type")
			http.Error(w, "no such query trace: "+rest, http.StatusNotFound)
			return
		}
		enc.Encode(t)
	})
}

// writeHeader writes a family's HELP and TYPE lines, once before its samples.
func writeHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func writeCounter(w io.Writer, name, help string, v int64) {
	writeHeader(w, name, "counter", help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

func writeGauge(w io.Writer, name, help string, v float64) {
	writeHeader(w, name, "gauge", help)
	fmt.Fprintf(w, "%s %g\n", name, v)
}

// writeHistogram emits one series of a histogram family: cumulative
// le-labelled buckets, _sum and _count. labels (`endpoint="next"`, or empty)
// goes on every sample. Only populated buckets (plus +Inf) are written —
// with log2 buckets, 64 lines of zeros help nobody.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	sel, le := "", ""
	if labels != "" {
		sel, le = "{"+labels+"}", labels+","
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			cum += n
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, le, strconv.FormatFloat(bucketUpper(i), 'g', -1, 64), cum)
		}
	}
	n := h.Count()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n%s_sum%s %g\n%s_count%s %d\n", name, le, n, name, sel, h.Sum().Seconds(), name, sel, n)
}

// HandlerTraced returns an http.Handler serving WriteMetricsTraced output.
// Extras are forwarded on every scrape.
func HandlerTraced(r *Recorder, qt *qtrace.Tracer, extras ...func(io.Writer)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetricsTraced(w, r, qt, extras...)
	})
}

// MetricsServer is a running metrics/pprof HTTP server.
type MetricsServer struct {
	ln     net.Listener
	srv    *http.Server
	served chan struct{} // closed when the serve goroutine exits
	closed atomic.Bool
}

// Addr returns the bound address (useful with ":0").
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down and waits for its serve goroutine to exit.
// Idempotent: the second and later calls are no-ops returning nil.
func (s *MetricsServer) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.srv.Close()
	<-s.served
	return err
}

// ServeMetricsTraced binds addr and serves, in a background goroutine:
//
//	/metrics             Prometheus text exposition (WriteMetricsTraced)
//	/debug/queries       the query tracer's retained traces, newest first
//	/debug/queries/<id>  one trace by query ID
//	/debug/pprof         the standard pprof handlers
//
// Either of r and qt may be nil. The default http mux is untouched; callers
// own the returned server's lifetime.
func ServeMetricsTraced(addr string, r *Recorder, qt *qtrace.Tracer) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", HandlerTraced(r, qt))
	mux.Handle("/debug/queries", QueriesHandler("/debug/queries", qt))
	mux.Handle("/debug/queries/", QueriesHandler("/debug/queries", qt))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s := &MetricsServer{ln: ln, srv: srv, served: make(chan struct{})}
	go func() {
		defer close(s.served)
		srv.Serve(ln)
	}()
	return s, nil
}
