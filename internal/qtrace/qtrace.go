// Package qtrace is the per-query lifecycle tracing layer of the
// incremental distance join: every join, semi-join and kNN run gets a query ID
// and a hierarchical span tree (plan → engine phases → queue disk-tier
// I/O), assembled from the closing report of the query's meter
// (internal/meter): the engine's exclusive phase times and counts arrive
// once, when the query closes.
//
// Where internal/profile answers "where did THIS run's time go" as one flat
// phase list, qtrace answers the operational questions of a server hosting
// many concurrent resumable cursors: which query is this, did it die and
// why, and what did it cost. On
// top of the per-query traces sit:
//
//   - a flight recorder: a bounded ring of the last N completed query
//     traces, always on while a Tracer is attached, dumpable as JSON via
//     the /debug/queries handlers of internal/obs.ServeMetricsTraced;
//   - a slow-query log: queries exceeding a wall-time threshold emit
//     their full span tree as one structured JSONL line;
//   - per-query resource accounting (pairs, distance calculations, node
//     I/O, I/O faults/retries, batch prunes, peak queue depth) in every
//     trace document, and for a served cursor the pulls that held its
//     engine (PreFinish).
//
// The package follows the repository's nil-safety convention: a nil
// *Tracer begins nil *Query values, and every method of Tracer and Query is
// a no-op on a nil receiver, performs no clock reads and allocates nothing
// (pinned by a testing.AllocsPerRun test). Nothing here runs on the
// engine's per-pair path: a Query is touched when it begins and when it
// finishes.
package qtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"distjoin/internal/profile"
	"distjoin/internal/stats"
)

// SchemaVersion identifies the JSON schema of QueryTrace documents (the
// flight-recorder dumps and slow-query log lines). Bump on any incompatible
// change; the checked-in schema in testdata/querytrace.schema.json and the
// CI smoke validation track it.
const SchemaVersion = 1

// DefaultFlightSize is the flight-recorder ring size when Config.FlightSize
// is unset.
const DefaultFlightSize = 16

// Config configures a Tracer. The zero value keeps a default-sized flight
// recorder and no slow-query log.
type Config struct {
	// FlightSize bounds the flight recorder: the ring retains the last
	// FlightSize completed query traces (default DefaultFlightSize).
	FlightSize int
	// SlowLog, when non-nil, receives slow-query traces as JSONL — one
	// QueryTrace document per line, each line one Write. Tracer.Close ends
	// the log and reports its first write error.
	SlowLog io.Writer
	// SlowWall logs queries whose wall time reaches the threshold.
	// With SlowLog set and SlowWall zero, every query is logged.
	SlowWall time.Duration
	// OnComplete, when non-nil, receives every completed query trace after
	// it lands in the flight recorder (and slow-query log); the query
	// service's lifecycle model counts landings through it. Called
	// synchronously without the tracer's lock held; the hook must not
	// block for long.
	OnComplete func(*QueryTrace)
}

// Tracer is the process-wide query tracing subsystem: it assigns query IDs,
// owns the flight recorder and the slow-query log. Attach one to
// Options.Tracer; all methods are safe for concurrent use and all are
// no-ops on a nil receiver.
type Tracer struct {
	cfg    Config
	seq    atomic.Uint64
	active atomic.Int64

	mu      sync.Mutex
	ring    []*QueryTrace // completed traces, oldest first
	slow    io.Writer     // cfg.SlowLog until Close
	slowErr error
	// pre maps a query id to trace context registered via PreBegin before
	// the engine's Begin call; entries are consumed by Begin (or dropped by
	// Unlink when engine construction fails).
	pre map[string]preContext
	// pulls maps a query id to the pull tally registered via PreFinish
	// before the engine closes; entries are consumed by Finish.
	pulls map[string]pullTally
}

// preContext is a PreBegin registration: the span context the query's trace
// will carry plus the id of its remote parent span.
type preContext struct {
	sc     SpanContext
	parent SpanID
}

// pullTally is a PreFinish registration: how many pulls held a served
// cursor's engine, and for how long in total.
type pullTally struct {
	n int64
	d time.Duration
}

// New creates a Tracer.
func New(cfg Config) *Tracer {
	if cfg.FlightSize <= 0 {
		cfg.FlightSize = DefaultFlightSize
	}
	return &Tracer{cfg: cfg, slow: cfg.SlowLog}
}

// Begin starts tracing one query run. kind names the operation ("join",
// "semijoin", "knn", "clustering"); id overrides the tracer-assigned query
// ID when non-empty. A nil tracer returns a nil query, which disables all
// downstream tracing at zero cost.
func (t *Tracer) Begin(kind, id string) *Query {
	if t == nil {
		return nil
	}
	if id == "" {
		id = fmt.Sprintf("q%07d", t.seq.Add(1))
	} else {
		t.seq.Add(1)
	}
	t.active.Add(1)
	q := &Query{tr: t, id: id, kind: kind, start: time.Now()}
	// Adopt pre-registered trace context (PreBegin), else mint a fresh
	// root identity so every trace is exportable as a distributed span.
	t.mu.Lock()
	pc, ok := t.pre[id]
	if ok {
		delete(t.pre, id)
	}
	t.mu.Unlock()
	if ok {
		q.sc, q.parentSpan = pc.sc, pc.parent
	} else {
		q.sc = SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Flags: FlagSampled}
	}
	return q
}

// PreBegin registers W3C trace context for an upcoming query id and returns
// the span context the query's trace will carry: the parent's trace id (or
// a fresh one when parent is invalid), a fresh span id, and the parent's
// flags and tracestate. The query service calls this before constructing a
// cursor's engine so the inbound traceparent becomes the ancestor of the
// cursor's query trace; the returned context is what pull spans link to and
// what the create response echoes. The registration is consumed by the
// matching Begin; call Unlink if the engine never starts. Nil-safe: a nil
// tracer still returns a usable context (propagation works untraced).
func (t *Tracer) PreBegin(id string, parent SpanContext) SpanContext {
	sc := SpanContext{
		TraceID: parent.TraceID,
		SpanID:  NewSpanID(),
		Flags:   parent.Flags,
		State:   parent.State,
	}
	if !parent.Valid() {
		sc.TraceID = NewTraceID()
		sc.Flags = FlagSampled
		sc.State = ""
	}
	if t == nil {
		return sc
	}
	t.mu.Lock()
	if t.pre == nil {
		t.pre = make(map[string]preContext)
	}
	t.pre[id] = preContext{sc: sc, parent: parent.SpanID}
	t.mu.Unlock()
	return sc
}

// PreFinish registers, for a query about to finish, the pulls of the
// served cursor that ran it: n pulls that held its engine for d in total,
// each timed from taking the cursor's lease to handing it back. The query
// service calls this once, just before it closes the cursor's engine; the
// matching Finish consumes the registration into the trace's Pulls and
// PullSeconds. Nil-safe.
func (t *Tracer) PreFinish(id string, n int64, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.pulls == nil {
		t.pulls = make(map[string]pullTally)
	}
	t.pulls[id] = pullTally{n: n, d: d}
	t.mu.Unlock()
}

// Unlink drops a PreBegin registration whose query never began (engine
// construction failed). Nil-safe.
func (t *Tracer) Unlink(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.pre, id)
	t.mu.Unlock()
}

// Active returns the number of begun-but-unfinished queries.
func (t *Tracer) Active() int64 {
	if t == nil {
		return 0
	}
	return t.active.Load()
}

// Traces returns the flight recorder's contents, newest first. The traces
// are immutable once completed; callers may hold them without copying.
func (t *Tracer) Traces() []*QueryTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*QueryTrace, len(t.ring))
	for i, tr := range t.ring {
		out[len(t.ring)-1-i] = tr
	}
	return out
}

// Trace returns the newest completed trace with the given query ID, or nil.
func (t *Tracer) Trace(id string) *QueryTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.ring) - 1; i >= 0; i-- {
		if t.ring[i].ID == id {
			return t.ring[i]
		}
	}
	return nil
}

// Close ends the slow-query log and returns the first write error
// encountered, if any. The flight recorder remains readable after Close;
// further completed queries are still recorded to the ring but not the log.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.slow = nil
	return t.slowErr
}

// complete lands a finished trace in the flight recorder and, when it
// crosses the slow threshold, the slow-query log; the OnComplete hook runs
// last, outside the lock.
func (t *Tracer) complete(qt *QueryTrace) {
	t.active.Add(-1)
	t.landTrace(qt)
	if t.cfg.OnComplete != nil {
		t.cfg.OnComplete(qt)
	}
}

func (t *Tracer) landTrace(qt *QueryTrace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.pulls[qt.ID]; ok {
		delete(t.pulls, qt.ID)
		qt.Pulls, qt.PullSeconds = p.n, p.d.Seconds()
	}
	if len(t.ring) >= t.cfg.FlightSize {
		n := copy(t.ring, t.ring[len(t.ring)-t.cfg.FlightSize+1:])
		t.ring = t.ring[:n]
	}
	t.ring = append(t.ring, qt)
	if t.slow != nil && t.isSlow(qt) {
		line, err := json.Marshal(qt)
		if err == nil {
			// One unbuffered Write per line: a line is readable while the
			// process runs (and survives a crash), and a RotatingFile
			// rotates between lines, never inside one.
			_, err = t.slow.Write(append(line, '\n'))
		}
		if err != nil && t.slowErr == nil {
			t.slowErr = err
		}
	}
}

// isSlow applies the slow-query threshold. With none configured, every
// query counts as slow (the log becomes a full query log).
func (t *Tracer) isSlow(qt *QueryTrace) bool {
	return t.cfg.SlowWall <= 0 || qt.WallSeconds >= t.cfg.SlowWall.Seconds()
}

// Query is one live (running) query trace. The join layer brackets its
// lifecycle: Begin at construction and Finish, with the engine's closing
// report, when the iterator closes. All methods are nil-safe.
type Query struct {
	tr    *Tracer
	id    string
	kind  string
	start time.Time

	// sc is the query's W3C span identity (the "query" root span of its
	// trace document); parentSpan is the remote parent registered via
	// PreBegin (zero when the query is a trace root).
	sc         SpanContext
	parentSpan SpanID

	finished atomic.Bool
}

// Report is the closing report of a query's engine: the plan span (from
// Begin until the engine was ready to pop), the caller's time between two
// Next calls, the engine's work counters with the pool-owned node-I/O
// columns (NodeReads, NodeWrites, BufferHits) of the query's Counters view
// folded in, and its exclusive phase times and span counts.
type Report struct {
	PlanNS   int64
	CallerNS int64
	Counts   stats.Counters
	Tally    profile.Tally
}

// Finish completes the query trace: the span tree is assembled from the
// report's plan span and phases, the resource accounting is its counts,
// the pull tally is the query's PreFinish registration, if any, and the
// trace lands in the tracer's flight recorder (and slow-query log,
// when it qualifies). err annotates a query that died; nil marks a clean
// finish. Finish is idempotent — the first call wins — and nil-safe. The
// join layer calls it on iterator Close, after the engine has released its
// resources.
func (q *Query) Finish(r Report, err error) *QueryTrace {
	if q == nil || !q.finished.CompareAndSwap(false, true) {
		return nil
	}
	wall := time.Since(q.start)
	qt := &QueryTrace{
		SchemaVersion: SchemaVersion,
		ID:            q.id,
		Kind:          q.kind,
		StartTime:     q.start.Format(time.RFC3339Nano),
		WallSeconds:   wall.Seconds(),
		CallerSeconds: time.Duration(r.CallerNS).Seconds(),
		Coverage:      r.coverage(wall),
		Root:          r.tree(wall),
		Resources:     r.resources(),
	}
	if q.sc.Valid() {
		qt.TraceID = q.sc.TraceID.String()
		qt.SpanID = q.sc.SpanID.String()
		qt.TraceFlags = int(q.sc.Flags)
		if !q.parentSpan.IsZero() {
			qt.ParentSpanID = q.parentSpan.String()
		}
	}
	if err != nil {
		qt.Error = err.Error()
	}
	q.tr.complete(qt)
	return qt
}

// tree assembles the hierarchical span tree:
//
//	query
//	├── plan                  queue build, seeding
//	└── worker                the engine
//	    ├── expand            node-pair expansion (sweep/block generation)
//	    ├── push              queue insertion, excluding nested spills
//	    ├── pop               queue removal and dequeue-time checks, excluding fetches
//	    ├── spill             hybrid-queue disk-tier writes
//	    │   └── io_write      of which: physical page writes (pager)
//	    ├── fetch             hybrid-queue disk-tier reads
//	    │   └── io_read       of which: physical page reads (pager)
//	    └── emit              reporting a result, publishing included
func (r *Report) tree(wall time.Duration) Span {
	ws := Span{
		Name:    "worker",
		Seconds: time.Duration(r.Tally.TotalNS()).Seconds(),
		Count:   r.Counts.PairsReported,
	}
	io := r.Tally.IOStat()
	for p := 0; p < profile.NumPhases; p++ {
		ph := profile.Phase(p)
		n, ns := r.Tally.Counts[p], r.Tally.NS[p]
		if n == 0 && ns == 0 {
			continue
		}
		child := Span{Name: ph.String(), Seconds: time.Duration(ns).Seconds(), Count: n}
		// Physical page I/O is nested inside the disk-tier phases that
		// trigger it: reads inside fetch, writes inside spill. They are
		// "of which" figures (Nested), not additive with sibling spans.
		switch ph {
		case profile.PhaseSpill:
			if io.Writes > 0 {
				child.Children = []Span{{Name: "io_write", Seconds: io.WriteSeconds, Count: io.Writes, Nested: true}}
			}
		case profile.PhaseFetch:
			if io.Reads > 0 {
				child.Children = []Span{{Name: "io_read", Seconds: io.ReadSeconds, Count: io.Reads, Nested: true}}
			}
		}
		ws.Children = append(ws.Children, child)
	}
	plan := Span{Name: "plan", Seconds: time.Duration(r.PlanNS).Seconds(), Count: 1}
	return Span{Name: "query", Seconds: wall.Seconds(), Children: []Span{plan, ws}}
}

// coverage computes the fraction of the query's own time the span
// accounting explains: wall time less the time the caller spent between
// Next calls, which no span of the query can or should claim. The engine's
// disjoint phases plus the plan span should cover nearly everything.
func (r *Report) coverage(wall time.Duration) float64 {
	own := wall.Nanoseconds() - r.CallerNS
	if own <= 0 {
		return 0
	}
	return float64(r.PlanNS+r.Tally.TotalNS()) / float64(own)
}

// resources is the query's resource accounting: its engine's own counts —
// no other query's work can leak in — and the node I/O of its pools.
func (r *Report) resources() Resources {
	s := &r.Counts
	return Resources{
		Pairs:          s.PairsReported,
		DistCalcs:      s.DistCalcs,
		NodeDistCalcs:  s.NodeDistCalcs,
		NodeIO:         s.NodeReads + s.NodeWrites,
		BufferHits:     s.BufferHits,
		QueueInserts:   s.QueueInserts,
		QueuePops:      s.QueuePops,
		QueueDiskPairs: s.QueueDiskPairs,
		IOFaults:       s.IOFaults,
		IORetries:      s.IORetries,
		BatchPruned:    s.BatchPruned,
		Filtered:       s.Filtered,
		PeakQueueDepth: s.MaxQueueSize,
	}
}

// QueryTrace is one completed query's trace document — the unit the flight
// recorder retains, /debug/queries/<id> serves, and the slow-query log
// emits as one JSONL line. Immutable once built.
type QueryTrace struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	Kind          string `json:"kind"`
	// TraceID/SpanID/ParentSpanID are the query's W3C trace identity: the
	// distributed trace it belongs to, the id of its "query" root span, and
	// the remote parent span registered before Begin (empty when the query
	// is its trace's root). TraceFlags carries the W3C flags byte (bit 0:
	// sampled). The slow-query log line carries the same identity, so a
	// log line, a flight-recorder entry and the client's own trace
	// cross-reference each other.
	TraceID      string  `json:"trace_id,omitempty"`
	SpanID       string  `json:"span_id,omitempty"`
	ParentSpanID string  `json:"parent_span_id,omitempty"`
	TraceFlags   int     `json:"trace_flags,omitempty"`
	StartTime    string  `json:"start_time"`
	WallSeconds  float64 `json:"wall_seconds"`
	// CallerSeconds is the part of WallSeconds that passed between the end
	// of one Next call and the start of the next: the caller's loop, or a
	// server cursor waiting for its next pull. It is not the query's time.
	CallerSeconds float64 `json:"caller_seconds"`
	// Pulls and PullSeconds are set for a query a served cursor ran: the
	// pulls that held its engine and their summed time, each timed from
	// taking the cursor's lease to handing it back. Against the worker
	// span they split a client's wait into engine work and the rest of
	// the pull; WallSeconds less PullSeconds is the time no pull held the
	// cursor.
	Pulls       int64   `json:"pulls,omitempty"`
	PullSeconds float64 `json:"pull_seconds,omitempty"`
	// Error annotates a query that died (storage fault, checksum mismatch,
	// cancellation, ...). Empty on a clean finish.
	Error string `json:"error,omitempty"`
	// Coverage is the fraction of the query's own time, WallSeconds less
	// CallerSeconds, that the span tree explains.
	Coverage  float64   `json:"phase_coverage"`
	Root      Span      `json:"root"`
	Resources Resources `json:"resources"`
}

// Span is one node of the hierarchical span tree.
type Span struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count,omitempty"`
	// Nested marks an "of which" span (physical I/O inside spill/fetch):
	// its time is included in its parent, not additive with siblings.
	Nested   bool   `json:"nested,omitempty"`
	Children []Span `json:"children,omitempty"`
}

// Find returns the first descendant span (depth-first, including s itself)
// with the given name, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for i := range s.Children {
		if f := s.Children[i].Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Resources is the per-query resource accounting: the work counters of the
// query's own engine (PeakQueueDepth is the largest size its queue
// reached), plus the node I/O its Counters view observed while the query
// was open. With concurrent queries on shared pools the node I/O is the
// pools' traffic during the query's lifetime, not an exact attribution.
type Resources struct {
	Pairs          int64 `json:"pairs_reported"`
	DistCalcs      int64 `json:"dist_calcs"`
	NodeDistCalcs  int64 `json:"node_dist_calcs"`
	NodeIO         int64 `json:"node_io"`
	BufferHits     int64 `json:"buffer_hits"`
	QueueInserts   int64 `json:"queue_inserts"`
	QueuePops      int64 `json:"queue_pops"`
	QueueDiskPairs int64 `json:"queue_disk_pairs"`
	IOFaults       int64 `json:"io_faults"`
	IORetries      int64 `json:"io_retries"`
	BatchPruned    int64 `json:"batch_pruned"`
	Filtered       int64 `json:"filtered"`
	PeakQueueDepth int64 `json:"peak_queue_depth"`
}
