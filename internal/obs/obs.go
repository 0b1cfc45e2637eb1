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
	epoch time.Time

	// counts is the recorder's copy of the work counters: meters fold into
	// it like into Options.Counters, and buffer pools attached with
	// Index.SetObserver add node I/O (the pool-hit-ratio gauge).
	counts stats.Counters

	delivered   atomic.Int64 // delivery sequence number
	startedEng  atomic.Int64
	stoppedEng  atomic.Int64
	queueDepth  atomic.Int64
	frontier    atomic.Uint64 // float64 bits of the last delivered distance
	lastDeliver atomic.Int64  // ns since epoch of the previous delivery

	interPair Histogram // delay between consecutive delivered pairs
	popToEmit Histogram // queue pop to result emission inside one engine
}

// New creates a Recorder; its uptime starts now.
func New(Config) *Recorder {
	return &Recorder{epoch: time.Now()}
}

// Counts returns the recorder's work counters — the view meters fold into
// and stats.NodeSink feeds — or nil for a nil recorder.
func (r *Recorder) Counts() *stats.Counters {
	if r == nil {
		return nil
	}
	return &r.counts
}

// EngineStarted counts one engine seeding its queue.
func (r *Recorder) EngineStarted() {
	if r != nil {
		r.startedEng.Add(1)
	}
}

// EngineStopped counts one engine releasing its resources.
func (r *Recorder) EngineStopped() {
	if r != nil {
		r.stoppedEng.Add(1)
	}
}

// Emit records one result pair an engine delivered: the pop-to-emit latency
// (popStart is when the engine's Next call began draining the queue, now
// when it ended — both the engine meter's clock reads, so Emit reads no
// clock of its own), the live queue depth, and the delivery accounting.
func (r *Recorder) Emit(dist float64, queueLen int, popStart, now time.Time) {
	if r == nil {
		return
	}
	r.popToEmit.Observe(now.Sub(popStart))
	r.queueDepth.Store(int64(queueLen))
	seq := r.delivered.Add(1)
	r.frontier.Store(math.Float64bits(dist))
	ns := now.Sub(r.epoch).Nanoseconds()
	prev := r.lastDeliver.Swap(ns)
	if seq > 1 {
		r.interPair.Observe(time.Duration(ns - prev))
	}
}

// Snapshot is a point-in-time view of every counter, gauge and histogram,
// shaped for JSON consumption.
type Snapshot struct {
	UptimeS        float64           `json:"uptime_seconds"`
	Delivered      int64             `json:"pairs_delivered"`
	Expansions     int64             `json:"expansions"`
	BatchPruned    int64             `json:"batch_pruned"`
	SpilledPairs   int64             `json:"queue_spilled_pairs"`
	IORetries      int64             `json:"io_retries"`
	EnginesStarted int64             `json:"engines_started"`
	EnginesStopped int64             `json:"engines_stopped"`
	QueueDepth     int64             `json:"queue_depth"`
	Frontier       float64           `json:"frontier_distance"`
	PoolReads      int64             `json:"pool_reads"`
	PoolWrites     int64             `json:"pool_writes"`
	PoolHits       int64             `json:"pool_hits"`
	PoolHitRatio   float64           `json:"pool_hit_ratio"`
	InterPairDelay HistogramSnapshot `json:"inter_pair_delay"`
	PopToEmit      HistogramSnapshot `json:"pop_to_emit"`
}

// Snapshot captures the current metric values. Safe to call while engines
// run; fields may be mutually skewed by in-flight updates. A nil recorder
// returns the zero Snapshot.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	c := r.counts.Snapshot()
	ratio := 0.0
	if c.NodeReads+c.BufferHits > 0 {
		ratio = float64(c.BufferHits) / float64(c.NodeReads+c.BufferHits)
	}
	return Snapshot{
		UptimeS:        time.Since(r.epoch).Seconds(),
		Delivered:      r.delivered.Load(),
		Expansions:     c.Expansions,
		BatchPruned:    c.BatchPruned,
		SpilledPairs:   c.QueueDiskPairs,
		IORetries:      c.IORetries,
		EnginesStarted: r.startedEng.Load(),
		EnginesStopped: r.stoppedEng.Load(),
		QueueDepth:     r.queueDepth.Load(),
		Frontier:       math.Float64frombits(r.frontier.Load()),
		PoolReads:      c.NodeReads,
		PoolWrites:     c.NodeWrites,
		PoolHits:       c.BufferHits,
		PoolHitRatio:   ratio,
		InterPairDelay: r.interPair.Quantiles(),
		PopToEmit:      r.popToEmit.Quantiles(),
	}
}
