package distjoin

import (
	"net/http"

	"distjoin/internal/obs"
	"distjoin/internal/profile"
	"distjoin/internal/qtrace"
	"distjoin/internal/stats"
)

// Observability — the public surface of internal/obs. A Recorder attached
// to Options.Obs collects the work counts, incremental-latency
// histograms (inter-pair delay, pop-to-emit), and live gauges (queue depth,
// result frontier, buffer-pool hit ratio) from a
// running join; ServeMetrics exposes them over HTTP as Prometheus text,
// with the query tracer's flight recorder and pprof. A nil *Recorder is valid everywhere and records nothing, at zero
// cost — the same convention as Stats.

// Recorder aggregates the metrics of the join executions it is attached to.
type Recorder = obs.Recorder

// ObsConfig configures a Recorder; it has no fields.
type ObsConfig = obs.Config

// ObsSnapshot is a point-in-time view of a Recorder's metrics.
type ObsSnapshot = obs.Snapshot

// MetricsServer is a running metrics/pprof HTTP server.
type MetricsServer = obs.MetricsServer

// NewRecorder creates an observability recorder; assign it to Options.Obs
// (and attach it to indexes with Index.SetObserver to capture buffer-pool
// hit ratios).
func NewRecorder(cfg ObsConfig) *Recorder { return obs.New(cfg) }

// Per-query lifecycle tracing — the public surface of internal/qtrace. A
// QueryTracer attached to Options.Tracer assigns every join, semi-join and kNN
// run a query ID and records a hierarchical span tree (plan → engine
// phases → queue disk-tier I/O) plus per-query resource
// accounting, retained in a bounded flight recorder (served as JSON by
// QueriesHandler) and optionally written to a slow-query JSONL log. A nil *QueryTracer is valid everywhere and
// records nothing, at zero cost — the same convention as Stats and
// Recorder.

// QueryTracer is the per-query tracing subsystem: query IDs, flight
// recorder, slow-query log.
type QueryTracer = qtrace.Tracer

// QueryTraceConfig configures a QueryTracer.
type QueryTraceConfig = qtrace.Config

// QueryTrace is one completed query's trace document — the unit the
// QueryTracer's flight recorder retains and the slow-query log emits;
// QuerySpan is one node of its hierarchical span tree, QueryResources its
// per-query resource accounting.
type (
	QueryTrace     = qtrace.QueryTrace
	QuerySpan      = qtrace.Span
	QueryResources = qtrace.Resources
)

// ProfileSpans accumulates span accounting across runs — per-phase wall
// time and operation counts; assign one to Options.Profile and read it with
// Tally. A nil *ProfileSpans disables profiling at zero cost.
type ProfileSpans = profile.Spans

// NewQueryTracer creates a query tracer; assign it to Options.Tracer.
func NewQueryTracer(cfg QueryTraceConfig) *QueryTracer { return qtrace.New(cfg) }

// ServeMetrics serves, on addr in a background goroutine, /metrics
// (Prometheus text: the recorder's counts, histograms and gauges, and with a
// tracer distjoin_queries_active), the tracer's flight recorder as JSON at
// /debug/queries and /debug/queries/<id>, and /debug/pprof. Either r or qt
// may be nil.
func ServeMetrics(addr string, r *Recorder, qt *QueryTracer) (*MetricsServer, error) {
	return obs.ServeMetricsTraced(addr, r, qt)
}

// QueriesHandler returns an http.Handler serving the tracer's flight
// recorder as JSON, for mounting at prefix in a caller-owned mux.
func QueriesHandler(prefix string, qt *QueryTracer) http.Handler {
	return obs.QueriesHandler(prefix, qt)
}

// SetObserver attaches both views to the index's buffer pool: node I/O flows
// into c (as with SetCounters) and, when r is non-nil, into r's counts as
// well (its live pool-hit-ratio gauge). Either argument may be nil.
func (idx *Index) SetObserver(r *Recorder, c *Stats) {
	idx.tree.Pool().SetCounters(stats.NodeSink((*stats.Counters)(c), r.Counts()))
}
