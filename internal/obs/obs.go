// Package obs is the live observability view of the incremental distance
// join: the /metrics aggregate — work counts, two latency histograms and
// sampled gauges. The engines do not call it directly: each query's meter
// (internal/meter) makes the histogram observations here at emit time and
// folds its counts into the recorder's Counts at every Next return, so the
// /metrics counter families print from the same counts every other view
// sees. What one query did, step by step, is the query trace
// (internal/qtrace), not this package.
//
// The paper's central claim is incrementality — the first result pairs
// arrive long before the full join could complete — and this package makes
// that claim measurable on a live run: the inter-pair delay histogram is the
// "enumeration delay" of the dynamic-enumeration literature.
//
// Following the convention of internal/stats, a nil *Recorder is valid
// everywhere and records nothing: every hook method begins with a nil check,
// takes no interface values, and allocates nothing, so the engine's hot path
// is untouched when observability is off (bench_test.go guards this with a
// testing.AllocsPerRun check).
package obs

import (
	"math"
	"sync/atomic"
	"time"

	"distjoin/internal/stats"
)

// Config configures a Recorder. It has no fields: what a recorder keeps is
// fixed.
type Config struct{}

// Recorder aggregates the metrics of the join executions it is attached to
// (one, several in sequence, or every cursor of a server at once). Every
// hook is safe for concurrent use — atomics only — and every method is a
// no-op on a nil receiver.
type Recorder struct {
	// counts is the recorder's copy of the work counters: meters fold into
	// it like into Options.Counters, and buffer pools attached with
	// Index.SetObserver add node I/O (the pool-hit-ratio gauge).
	counts stats.Counters

	queueDepth atomic.Int64
	frontier   atomic.Uint64 // float64 bits of the last delivered distance

	interPair Histogram // delay between consecutive delivered pairs of one query
	popToEmit Histogram // queue pop to result emission inside one engine
}

// New creates a Recorder.
func New(Config) *Recorder {
	return new(Recorder)
}

// Counts returns the recorder's work counters — the view meters fold into
// and stats.NodeSink feeds — or nil for a nil recorder.
func (r *Recorder) Counts() *stats.Counters {
	if r == nil {
		return nil
	}
	return &r.counts
}

// Emit records one result pair a query delivered at distance dist, its queue
// then holding queueLen pairs: popToEmit is the time from the start of the
// Next call that drained it to its emission, delay the time since the same
// query's previous pair, negative for a query's first pair (no delay is
// recorded). Both come from the query meter's clock reads, so Emit reads no
// clock of its own, and concurrent queries never see each other's gaps.
func (r *Recorder) Emit(dist float64, queueLen int, popToEmit, delay time.Duration) {
	if r == nil {
		return
	}
	r.popToEmit.Observe(popToEmit)
	if delay >= 0 {
		r.interPair.Observe(delay)
	}
	r.queueDepth.Store(int64(queueLen))
	r.frontier.Store(math.Float64bits(dist))
}

// Snapshot is a point-in-time summary of the two delay histograms.
type Snapshot struct {
	InterPairDelay HistogramSnapshot
	PopToEmit      HistogramSnapshot
}

// Snapshot summarises the delay histograms. Safe to call while engines run.
// A nil recorder returns the zero Snapshot.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	return Snapshot{InterPairDelay: r.interPair.Quantiles(), PopToEmit: r.popToEmit.Quantiles()}
}
