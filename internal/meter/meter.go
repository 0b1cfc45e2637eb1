// Package meter is the telemetry spine of the incremental distance join:
// the one place that knows which telemetry sinks exist.
//
// Every query owns exactly one Meter: a single-writer object with plain
// fields — no atomics, no locks — holding one copy of the work counts, the
// exclusive per-phase time, the disk tier's physical I/O time and the
// current Next call's start stamp. The query's engine and its priority
// queue report facts to it at one set of hook points (step, expand, push,
// pop, spill, fetch, page io, emit, retry, cancel); nothing else in those
// layers touches a telemetry sink.
//
// The four user-facing sinks — Options.Counters, .Obs, .Profile and
// .Tracer — are views: at every Next return and at close the meter folds
// what it accumulated since the last fold into them, so a reader between
// two Next calls sees everything the engine has done so far. Only the
// histogram observations and gauges of an emitted pair reach the Recorder
// outside a fold, at the end of the step that emitted it, stamped with the
// step's own clock reads. The clock is read only when a timing view is
// attached: once per phase change when Profile or Tracer is set, at a step's
// start and its emission when only Obs is.
//
// With every sink nil, Begin returns a nil *Meter, and every hook on a nil
// *Meter returns at once: no allocation, no clock read.
package meter

import (
	"time"

	"distjoin/internal/obs"
	"distjoin/internal/profile"
	"distjoin/internal/qtrace"
	"distjoin/internal/stats"
)

// The view types, re-exported so the engine layers name their telemetry
// through this package alone.
type (
	Counters = stats.Counters
	Recorder = obs.Recorder
	Spans    = profile.Spans
	Tracer   = qtrace.Tracer
	Phase    = profile.Phase
)

// The phases a hook may bracket.
const (
	PhaseExpand = profile.PhaseExpand
	PhasePush   = profile.PhasePush
	PhasePop    = profile.PhasePop
	PhaseSpill  = profile.PhaseSpill
	PhaseFetch  = profile.PhaseFetch
	PhaseEmit   = profile.PhaseEmit

	// idle is the meter's phase outside any bracket. Idle time between two
	// steps is the caller's (Meter.away); the rest is dropped.
	idle = Phase(profile.NumPhases)
)

// since is the meter's clock — time elapsed on the monotonic clock since a
// query began, one clock read — a variable so tests can count the reads.
var since = time.Since

// Sinks are the views one query publishes into. Any may be nil.
type Sinks struct {
	Counters *Counters
	Obs      *Recorder
	Profile  *Spans
	Tracer   *Tracer
	// QueryID overrides the Tracer-assigned query id.
	QueryID string
}

// Meter is one query's telemetry: its views, its per-query trace and its
// engine's accumulators. It is written by the single goroutine that runs the
// query; every method is a no-op on a nil receiver.
//
// The fields the hooks write come first: the hooks are inlined into the
// engine's loops, which then address them at short offsets.
type Meter struct {
	timed bool // phase brackets read the clock (Profile or Tracer)
	clock bool // steps stamp their start (timed, or Obs wants pop-to-emit)

	// n and t are the totals since the query began; foldedN and foldedT
	// are what the views have already received. t.Counts holds only the
	// span counts no work counter mirrors (fetch, emit); tally()
	// derives the rest from n, so every count exists once.
	n, foldedN Counters
	t, foldedT profile.Tally

	phase   Phase // the phase the engine is in; idle between steps
	entered int64 // when phase was entered, in ns since the epoch
	step    int64 // when the current step began, likewise
	ended   int64 // when the last step ended, likewise; 0 before the first
	away    int64 // ns between one step's end and the next one's start

	// The pair the current step emitted, held for the Recorder to EndStep,
	// and the stamp of the query's previous emission (-1 before the first):
	// the inter-pair delay is the query's own.
	emitted   bool
	emitDist  float64
	emitQueue int
	lastEmit  int64

	Sinks
	q     *qtrace.Query
	epoch time.Time // the origin of the meter's clock
	// nodeIO is the node-I/O view at Begin: the pool-owned node-I/O columns
	// of the query trace are that view's growth over the query (the engine
	// never sees a buffer pool's hits and misses).
	nodeIO Counters
	plan   int64 // the trace's plan span, in ns since the epoch
}

// Begin starts the telemetry of one query of the given kind, beginning its
// per-query trace (whose plan span starts now). It returns nil when no sink
// is attached.
func Begin(s Sinks, kind string) *Meter {
	if s.Counters == nil && s.Obs == nil && s.Profile == nil && s.Tracer == nil {
		return nil
	}
	timed := s.Profile != nil || s.Tracer != nil
	m := &Meter{Sinks: s, q: s.Tracer.Begin(kind, s.QueryID), epoch: time.Now(), timed: timed, clock: timed || s.Obs != nil, phase: idle, lastEmit: -1}
	if m.q != nil {
		m.nodeIO = m.nodeView().Snapshot()
	}
	return m
}

// nodeView is the view a buffer pool reports the query's node I/O to: the
// Counters view when one is attached, else the Recorder's counts (a daemon's
// pools feed its Recorder only).
func (m *Meter) nodeView() *Counters {
	if m.Counters != nil {
		return m.Counters
	}
	return m.Obs.Counts()
}

// PlanDone closes the trace's plan span: the engine is ready to pop.
func (m *Meter) PlanDone() {
	if m != nil && m.q != nil {
		m.plan = int64(time.Since(m.epoch))
	}
}

// Canceled counts the query as canceled, straight into the views: the
// cancellation latches in the iterator, after the Next call that observed it
// has already folded.
func (m *Meter) Canceled() {
	if m != nil {
		d := Counters{Cancellations: 1}
		m.Counters.Merge(&d)
		m.Obs.Counts().Merge(&d)
	}
}

// enter switches the running phase, charging the elapsed time to the phase
// being left: phases are exclusive by construction, with one clock read per
// switch.
func (m *Meter) enter(p Phase) Phase {
	t := int64(since(m.epoch))
	if m.phase != idle {
		m.t.NS[m.phase] += t - m.entered
	}
	m.entered = t
	prev := m.phase
	m.phase = p
	return prev
}

// Begin opens a bracket of phase p nested in the running phase, whose
// clock stops until the matching End(prev): the queue's fetch, spill and
// page I/O, and a single pair's push inside an expansion. Outside a step
// nothing is timed: the only work there is seeding the queue at
// construction, which the trace's plan span already covers.
func (m *Meter) Begin(p Phase) (prev Phase) {
	if m == nil || !m.timed || m.phase == idle {
		return idle
	}
	return m.enter(p)
}

// End closes the bracket Begin opened, resuming phase prev.
func (m *Meter) End(prev Phase) {
	if m != nil && m.timed && m.phase != idle {
		m.enter(prev)
	}
}

// Switch hands the running phase over to p. The engine's phases follow one
// another directly — a pop hands over to the expansion or the report that
// follows, an expansion to the push of its children, a push to the next
// pop — so one clock read closes the phase left and opens p. In p already,
// outside a step, or with no timing view, it reads nothing.
func (m *Meter) Switch(p Phase) {
	if m != nil && m.timed && m.phase != idle && m.phase != p {
		m.enter(p)
	}
}

// BeginStep opens one Next call of the engine in p = PhasePop (the engine's
// first act in a step is a pop).
func (m *Meter) BeginStep(p Phase) {
	switch {
	case m == nil || !m.clock:
	case m.timed:
		m.enter(p)
		m.step = m.entered
		if m.ended != 0 {
			m.away += m.step - m.ended
		}
	default:
		m.step = int64(since(m.epoch))
	}
}

// EndStep closes the step BeginStep opened, counting one span of phase p,
// folding the meter into the views first: publishing is work done inside
// the Next call, so its time belongs to the step's last phase (the views'
// phase times therefore trail the meter by the step's last slice until the
// next fold; the counts never trail). Then one clock read ends the step,
// and the pair the step emitted reaches the Recorder with its pop-to-emit
// time and the gap since the query's previous pair, both from that stamp.
func (m *Meter) EndStep(p Phase) {
	if m == nil {
		return
	}
	m.t.Counts[p]++
	m.fold()
	if m.timed {
		m.enter(idle)
		m.ended = m.entered
	}
	if m.emitted {
		m.emitted = false
		now := m.ended
		if !m.timed {
			now = int64(since(m.epoch))
		}
		delay := time.Duration(-1)
		if m.lastEmit >= 0 {
			delay = time.Duration(now - m.lastEmit)
		}
		m.lastEmit = now
		m.Obs.Emit(m.emitDist, m.emitQueue, time.Duration(now-m.step), delay)
	}
}

// tally returns the meter's span account: t plus the span counts and
// physical I/O counts the work counters already hold.
func (m *Meter) tally() profile.Tally {
	t := m.t
	t.Counts[PhaseExpand] = m.n.Expansions
	t.Counts[PhasePush] = m.n.QueueInserts
	t.Counts[PhasePop] = m.n.QueuePops
	t.Counts[PhaseSpill] = m.n.QueueDiskPairs
	t.IOReads, t.IOWrites = m.n.QueueReads, m.n.QueueWrites
	return t
}

// fold publishes the growth since the last fold into the views.
func (m *Meter) fold() {
	m.Counters.MergeSince(&m.n, &m.foldedN)
	m.Obs.Counts().MergeSince(&m.n, &m.foldedN)
	m.foldedN = m.n
	if m.Profile != nil {
		cur := m.tally()
		d := cur.Since(&m.foldedT)
		m.foldedT = cur
		m.Profile.Fold(&d)
	}
}

// Close folds one last time and completes the per-query trace with the
// engine's closing report and the query's terminal error (nil on a clean
// close). Call it once, after the engine has released its resources.
func (m *Meter) Close(err error) {
	if m == nil {
		return
	}
	m.fold()
	if m.q == nil {
		return
	}
	r := qtrace.Report{PlanNS: m.plan, CallerNS: m.away, Counts: m.n, Tally: m.tally()}
	c := m.nodeView().Snapshot()
	r.Counts.NodeReads = c.NodeReads - m.nodeIO.NodeReads
	r.Counts.NodeWrites = c.NodeWrites - m.nodeIO.NodeWrites
	r.Counts.BufferHits = c.BufferHits - m.nodeIO.BufferHits
	m.q.Finish(r, err)
}

// DistCalc counts one distance computation: a node distance when either
// operand is a node, an object distance otherwise.
func (m *Meter) DistCalc(node bool) {
	switch {
	case m == nil:
	case node:
		m.n.NodeDistCalcs++
	default:
		m.n.DistCalcs++
	}
}

// Filter counts n pairs pruned by filtering or the distance range.
func (m *Meter) Filter(n int64) {
	if m != nil {
		m.n.Filtered += n
	}
}

// BatchPruned counts n pairs the plane sweep skipped before any distance
// computation.
func (m *Meter) BatchPruned(n int64) {
	if m != nil && n > 0 {
		m.n.BatchPruned += n
	}
}

// Expand counts one node-pair expansion.
func (m *Meter) Expand() {
	if m != nil {
		m.n.Expansions++
	}
}

// Push counts one queue insertion that left the queue standing for pairs
// pairs in elements elements of its own structure (equal, unless the queue
// holds several pairs behind one element).
func (m *Meter) Push(pairs, elements int) {
	if m != nil {
		m.n.QueueInserts++
		m.n.MaxQueueSize = max(m.n.MaxQueueSize, int64(pairs))
		m.n.MaxQueueElements = max(m.n.MaxQueueElements, int64(elements))
	}
}

// Pop counts one queue removal.
func (m *Meter) Pop() {
	if m != nil {
		m.n.QueuePops++
	}
}

// Spill counts one pair landing on the hybrid queue's disk tier.
func (m *Meter) Spill() {
	if m != nil {
		m.n.QueueDiskPairs++
	}
}

// Fetch counts one disk-tier advance (a bucket reload) of the hybrid queue.
func (m *Meter) Fetch() {
	if m != nil {
		m.t.Counts[PhaseFetch]++
	}
}

// Emit counts one result pair at distance dist leaving the engine, whose
// queue now holds queueLen pairs. The Recorder hears of it at EndStep.
func (m *Meter) Emit(dist float64, queueLen int) {
	if m != nil {
		m.n.PairsReported++
		if m.Obs != nil {
			m.emitted, m.emitDist, m.emitQueue = true, dist, queueLen
		}
	}
}

// Fault counts one failed physical I/O attempt seen by the retry layer.
func (m *Meter) Fault() {
	if m != nil {
		m.n.IOFaults++
	}
}

// Retry counts one re-attempt after a try failed transiently.
func (m *Meter) Retry() {
	if m != nil {
		m.n.IORetries++
	}
}

// IOStart opens the bracket around one physical page read or write of the
// hybrid queue's disk tier; PageRead or PageWritten closes it. The clock is
// read only when a timing view is attached.
func (m *Meter) IOStart() int64 {
	if m == nil || !m.timed {
		return 0
	}
	return int64(since(m.epoch))
}

// ioNS is the time since the IOStart that returned start.
func (m *Meter) ioNS(start int64) int64 {
	return max(int64(since(m.epoch))-start, 0)
}

// PageRead counts one page the disk tier read from its store, begun at
// start: "of which" time nested inside the fetch bracket that caused it.
func (m *Meter) PageRead(start int64) {
	if m != nil {
		m.n.QueueReads++
		if m.timed {
			m.t.IOReadNS += m.ioNS(start)
		}
	}
}

// PageWritten counts one page the disk tier wrote to its store, begun at
// start, likewise nested inside a spill or fetch bracket.
func (m *Meter) PageWritten(start int64) {
	if m != nil {
		m.n.QueueWrites++
		if m.timed {
			m.t.IOWriteNS += m.ioNS(start)
		}
	}
}
