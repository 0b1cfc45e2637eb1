// Package obs is the live observability view of the incremental distance
// join: structured event tracing, latency histograms, and sampled gauges.
// The engines do not call it directly: each engine's meter (internal/meter)
// records events and histogram observations here at its hook points and
// folds its counts into the recorder's Counts at every Next return, so the
// /metrics counter families print from the same counts every other view
// sees.
//
// The paper's central claim is incrementality — the first result pairs
// arrive long before the full join could complete — and this package makes
// that claim measurable on a live run: the event trace yields
// time-to-k-th-pair and frontier-distance-vs-time curves, the inter-pair
// delay histogram is the "enumeration delay" of the dynamic-enumeration
// literature, and the per-partition gauges expose the progress skew that
// governs partitioned parallel joins.
//
// Following the convention of internal/stats, a nil *Recorder is valid
// everywhere and records nothing: every hook method begins with a nil check,
// takes no interface values, and allocates nothing, so the engine's hot path
// is untouched when observability is off (bench_test.go guards this with a
// testing.AllocsPerRun check).
package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distjoin/internal/stats"
)

// EventType identifies one kind of engine event.
type EventType uint8

const (
	// EvEngineStart marks an engine (sequential, or one partition worker)
	// seeding its queue. N is unused.
	EvEngineStart EventType = iota
	// EvEngineStop marks an engine releasing its resources. N is the number
	// of pairs the engine reported.
	EvEngineStop
	// EvExpand marks a node-pair expansion. Dist is the pair's queue key
	// (the traversal frontier of that engine); N is that engine's running
	// expansion count. Sampled per Config.ExpandEvery.
	EvExpand
	// EvEmit marks a partition worker producing a result pair (parallel
	// path only; sequential emissions appear as EvDeliver). Dist is the pair
	// distance; N is the worker's queue length.
	EvEmit
	// EvDeliver marks a result pair delivered to the caller, in order. Seq
	// is the 1-based delivery sequence number, Dist the pair distance (the
	// result frontier), N the last sampled queue depth.
	EvDeliver
	// EvSpill marks pairs spilling to the disk tier of the hybrid queue.
	// Dist is the spilled pair's key; N is the disk-tier population.
	// Sampled per Config.SpillEvery.
	EvSpill
	// EvMergeStall marks the parallel merge blocking on a partition whose
	// stream has no buffered result. Part is the awaited partition.
	EvMergeStall
	// EvRestart marks the §2.2.4 restart (the maximum-distance estimation
	// over-tightened and the query re-runs without it).
	EvRestart
	// EvRetry marks a retry of a transient queue-store I/O failure
	// (Options.RetryIO). N is the 1-based number of the attempt that
	// failed.
	EvRetry
)

var eventNames = [...]string{
	EvEngineStart: "engine_start",
	EvEngineStop:  "engine_stop",
	EvExpand:      "expand",
	EvEmit:        "emit",
	EvDeliver:     "deliver",
	EvSpill:       "spill",
	EvMergeStall:  "stall",
	EvRestart:     "restart",
	EvRetry:       "retry",
}

func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return "unknown"
}

// Event is one structured engine event. T is the time since the Recorder
// was created; Part is the partition id (-1 for the sequential engine and
// for merged-stream events).
type Event struct {
	T    time.Duration
	Type EventType
	Part int32
	Seq  int64   // delivery sequence number (EvDeliver)
	Dist float64 // frontier / pair distance, event-dependent
	N    int64   // auxiliary count, event-dependent
}

// Config configures a Recorder. The zero value records into a default-sized
// ring with no trace sink.
type Config struct {
	// Trace, when non-nil, receives the event stream as JSONL — one JSON
	// object per event (see Event and the trace schema in DESIGN.md).
	// Writes are buffered; call Recorder.Close to flush.
	Trace io.Writer
	// RingSize bounds the in-memory event ring (default 8192). The newest
	// events overwrite the oldest; the ring records even without a Trace
	// sink, so a live /metrics or post-mortem inspection always has recent
	// history.
	RingSize int
	// ExpandEvery samples expansion events: only every N-th expansion
	// produces an Event (the expansion counter always counts all).
	// Default 1 (every expansion).
	ExpandEvery int
	// SpillEvery samples hybrid-queue spill events the same way. Default 1.
	SpillEvery int
}

// Recorder collects events and metrics from one join execution (or several
// sequential ones — the experiment harness reuses a Recorder across legs).
// All hook methods are safe for concurrent use by the parallel partition
// workers, and all are no-ops on a nil receiver.
type Recorder struct {
	epoch       time.Time
	expandEvery int64
	spillEvery  int64

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

	partMu sync.RWMutex
	parts  []atomic.Int64 // pairs emitted per partition

	mu    sync.Mutex // guards ring and trace writer
	ring  []Event
	ringN int64 // total events appended
	tw    *traceWriter
}

// New creates a Recorder. The returned recorder's clock (Event.T) starts
// now.
func New(cfg Config) *Recorder {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 8192
	}
	if cfg.ExpandEvery <= 0 {
		cfg.ExpandEvery = 1
	}
	if cfg.SpillEvery <= 0 {
		cfg.SpillEvery = 1
	}
	r := &Recorder{
		epoch:       time.Now(),
		expandEvery: int64(cfg.ExpandEvery),
		spillEvery:  int64(cfg.SpillEvery),
		ring:        make([]Event, cfg.RingSize),
	}
	if cfg.Trace != nil {
		r.tw = newTraceWriter(cfg.Trace)
	}
	return r
}

// Counts returns the recorder's work counters — the view meters fold into
// and stats.NodeSink feeds — or nil for a nil recorder.
func (r *Recorder) Counts() *stats.Counters {
	if r == nil {
		return nil
	}
	return &r.counts
}

// record appends an event to the ring and the trace sink.
func (r *Recorder) record(ev Event) {
	r.mu.Lock()
	r.ring[int(r.ringN%int64(len(r.ring)))] = ev
	r.ringN++
	if r.tw != nil {
		r.tw.write(ev)
	}
	r.mu.Unlock()
}

// Event records one unsampled event now: engine start/stop (N = pairs
// reported), restart, retry (N = the 1-based attempt that failed), merge
// stall.
func (r *Recorder) Event(t EventType, part int32, n int64) {
	if r == nil {
		return
	}
	switch t {
	case EvEngineStart:
		r.startedEng.Add(1)
	case EvEngineStop:
		r.stoppedEng.Add(1)
	}
	r.record(Event{T: time.Since(r.epoch), Type: t, Part: part, N: n})
}

// Expand records the n-th node-pair expansion of an engine at queue key
// dist, sampled per Config.ExpandEvery.
func (r *Recorder) Expand(part int32, dist float64, n int64) {
	if r != nil && n%r.expandEvery == 0 {
		r.record(Event{T: time.Since(r.epoch), Type: EvExpand, Part: part, Dist: dist, N: n})
	}
}

// Spill records an engine's n-th pair spilling to the hybrid queue's disk
// tier, which now holds diskLen pairs; sampled per Config.SpillEvery.
func (r *Recorder) Spill(part int32, dist float64, diskLen int, n int64) {
	if r != nil && n%r.spillEvery == 0 {
		r.record(Event{T: time.Since(r.epoch), Type: EvSpill, Part: part, Dist: dist, N: int64(diskLen)})
	}
}

// Emit records one result pair produced by an engine: the pop-to-emit
// latency (popStart is when the engine's Next call began draining the
// queue), the live queue depth, and — on the sequential path (part < 0),
// where production is delivery — the delivery accounting as well. Parallel
// partition workers pass their partition id and the merge calls Deliver for
// the ordered stream.
func (r *Recorder) Emit(part int32, dist float64, queueLen int, popStart time.Time) {
	if r == nil {
		return
	}
	now := time.Now()
	r.popToEmit.Observe(now.Sub(popStart))
	r.queueDepth.Store(int64(queueLen))
	if part < 0 {
		r.deliver(dist, now)
		return
	}
	r.partMu.RLock()
	if int(part) < len(r.parts) {
		r.parts[part].Add(1)
	}
	r.partMu.RUnlock()
	r.record(Event{T: now.Sub(r.epoch), Type: EvEmit, Part: part, Dist: dist, N: int64(queueLen)})
}

// Deliver records one result pair of the merged (ordered) stream on the
// parallel path. The sequential path delivers through Emit.
func (r *Recorder) Deliver(dist float64) {
	if r == nil {
		return
	}
	r.deliver(dist, time.Now())
}

func (r *Recorder) deliver(dist float64, now time.Time) {
	seq := r.delivered.Add(1)
	r.frontier.Store(math.Float64bits(dist))
	ns := now.Sub(r.epoch).Nanoseconds()
	prev := r.lastDeliver.Swap(ns)
	if seq > 1 {
		r.interPair.Observe(time.Duration(ns - prev))
	}
	r.record(Event{T: time.Duration(ns), Type: EvDeliver, Part: -1, Seq: seq, Dist: dist, N: r.queueDepth.Load()})
}

// SetPartitions sizes the per-partition emission gauges. Called by the
// parallel path before its workers start; idempotent for the same n.
func (r *Recorder) SetPartitions(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.partMu.Lock()
	if len(r.parts) < n {
		parts := make([]atomic.Int64, n)
		for i := range r.parts {
			parts[i].Store(r.parts[i].Load())
		}
		r.parts = parts
	}
	r.partMu.Unlock()
}

// PartitionPairs returns the pairs emitted per partition (nil when the
// sequential path ran).
func (r *Recorder) PartitionPairs() []int64 {
	if r == nil {
		return nil
	}
	r.partMu.RLock()
	defer r.partMu.RUnlock()
	if len(r.parts) == 0 {
		return nil
	}
	out := make([]int64, len(r.parts))
	for i := range r.parts {
		out[i] = r.parts[i].Load()
	}
	return out
}

// Events returns the ring contents in chronological order (oldest first).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.ringN
	cap64 := int64(len(r.ring))
	if n > cap64 {
		out := make([]Event, cap64)
		start := n % cap64
		copy(out, r.ring[start:])
		copy(out[cap64-start:], r.ring[:start])
		return out
	}
	return append([]Event(nil), r.ring[:n]...)
}

// Snapshot is a point-in-time view of every counter, gauge and histogram,
// shaped for JSON consumption.
type Snapshot struct {
	UptimeS        float64           `json:"uptime_seconds"`
	Delivered      int64             `json:"pairs_delivered"`
	Emitted        int64             `json:"pairs_emitted"`
	Expansions     int64             `json:"expansions"`
	BatchPruned    int64             `json:"batch_pruned"`
	SpilledPairs   int64             `json:"queue_spilled_pairs"`
	MergeStalls    int64             `json:"merge_stalls"`
	Restarts       int64             `json:"restarts"`
	IORetries      int64             `json:"io_retries"`
	EnginesStarted int64             `json:"engines_started"`
	EnginesStopped int64             `json:"engines_stopped"`
	QueueDepth     int64             `json:"queue_depth"`
	Frontier       float64           `json:"frontier_distance"`
	PoolReads      int64             `json:"pool_reads"`
	PoolWrites     int64             `json:"pool_writes"`
	PoolHits       int64             `json:"pool_hits"`
	PoolHitRatio   float64           `json:"pool_hit_ratio"`
	PartitionPairs []int64           `json:"partition_pairs,omitempty"`
	InterPairDelay HistogramSnapshot `json:"inter_pair_delay"`
	PopToEmit      HistogramSnapshot `json:"pop_to_emit"`
	EventsRecorded int64             `json:"events_recorded"`
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
	r.mu.Lock()
	events := r.ringN
	r.mu.Unlock()
	return Snapshot{
		UptimeS:        time.Since(r.epoch).Seconds(),
		Delivered:      r.delivered.Load(),
		Emitted:        c.PairsReported,
		Expansions:     c.Expansions,
		BatchPruned:    c.BatchPruned,
		SpilledPairs:   c.QueueDiskPairs,
		MergeStalls:    c.MergeStalls,
		Restarts:       c.Restarts,
		IORetries:      c.IORetries,
		EnginesStarted: r.startedEng.Load(),
		EnginesStopped: r.stoppedEng.Load(),
		QueueDepth:     r.queueDepth.Load(),
		Frontier:       math.Float64frombits(r.frontier.Load()),
		PoolReads:      c.NodeReads,
		PoolWrites:     c.NodeWrites,
		PoolHits:       c.BufferHits,
		PoolHitRatio:   ratio,
		PartitionPairs: r.PartitionPairs(),
		InterPairDelay: r.interPair.snapshot(),
		PopToEmit:      r.popToEmit.snapshot(),
		EventsRecorded: events,
	}
}

// Close flushes the trace sink and returns the first write error
// encountered, if any. The recorder's counters remain readable after Close;
// further events are still recorded to the ring but not the trace.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tw == nil {
		return nil
	}
	err := r.tw.flush()
	r.tw = nil
	return err
}

// traceWriter streams events as JSONL with a reusable encode buffer.
type traceWriter struct {
	w   *bufio.Writer
	buf []byte
	err error
}

func newTraceWriter(w io.Writer) *traceWriter {
	return &traceWriter{w: bufio.NewWriterSize(w, 64*1024)}
}

func (t *traceWriter) write(ev Event) {
	if t.err != nil {
		return
	}
	b := t.buf[:0]
	b = append(b, `{"t_us":`...)
	b = strconv.AppendInt(b, ev.T.Microseconds(), 10)
	b = append(b, `,"ev":"`...)
	b = append(b, ev.Type.String()...)
	b = append(b, `","part":`...)
	b = strconv.AppendInt(b, int64(ev.Part), 10)
	if ev.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, ev.Seq, 10)
	}
	if ev.Dist != 0 {
		b = append(b, `,"dist":`...)
		b = strconv.AppendFloat(b, ev.Dist, 'g', -1, 64)
	}
	if ev.N != 0 {
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, ev.N, 10)
	}
	b = append(b, '}', '\n')
	t.buf = b
	_, t.err = t.w.Write(b)
}

func (t *traceWriter) flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}
