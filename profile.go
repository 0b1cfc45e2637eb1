package distjoin

import (
	"fmt"
	"math"
	"time"

	"distjoin/internal/obs"
	"distjoin/internal/pager"
	"distjoin/internal/profile"
	"distjoin/internal/qtrace"
	"distjoin/internal/stats"
)

// Query profiles — the public surface of internal/profile. A Profiler wired
// into a join's Options collects the per-join "EXPLAIN ANALYZE" document:
// wall time attributed to engine phases via span accounting, the Table 1
// work counters, inter-pair delay percentiles, time-to-kth-pair marks, and
// (optionally) cost-model predictions placed next to the observed actuals.
// cmd/benchrun assembles these profiles into schema-versioned benchmark
// trajectory files and gates CI on their hardware-independent counters.

// Profile is one join's query profile document.
type Profile = profile.Profile

// ProfileSpans is the span accumulator behind a Profile's phase
// attribution; assign one to Options.Profile (a Profiler does this for
// you). A nil *ProfileSpans disables profiling at zero cost.
type ProfileSpans = profile.Spans

// ExplainRow is one predicted-vs-actual comparison in a Profile.
type ExplainRow = profile.ExplainRow

// QueryTrace is one completed query's trace document — the unit the
// QueryTracer's flight recorder retains and the slow-query log emits;
// QuerySpan is one node of its hierarchical span tree, QueryResources its
// per-query resource accounting.
type (
	QueryTrace     = qtrace.QueryTrace
	QuerySpan      = qtrace.Span
	QueryResources = qtrace.Resources
)

// Trajectory is one benchmark-trajectory point (the BENCH_<date>.json
// schema); WorkloadProfile is one workload's entry in it.
type (
	Trajectory      = profile.Trajectory
	WorkloadProfile = profile.WorkloadProfile
)

// TrajectoryCompareOptions and TrajectoryCompareResult parameterize and
// report the regression gate between two trajectory points.
type (
	TrajectoryCompareOptions = profile.CompareOptions
	TrajectoryCompareResult  = profile.CompareResult
)

// CompareTrajectories diffs two trajectory points, gating only on
// hardware-independent work counters (node I/O, distance calculations,
// max queue size); wall-clock growth is reported as a warning.
func CompareTrajectories(old, curr *Trajectory, opts TrajectoryCompareOptions) *TrajectoryCompareResult {
	return profile.Compare(old, curr, opts)
}

// ReadTrajectory reads and schema-validates a trajectory file.
func ReadTrajectory(path string) (*Trajectory, error) { return profile.ReadFile(path) }

// Profiler collects one join run's query profile. Typical use:
//
//	pf := distjoin.NewProfiler()
//	pf.AttachIndex(a)
//	pf.AttachIndex(b)
//	opts.MaxPairs = k
//	pf.Attach(&opts)
//	j, _ := distjoin.DistanceJoin(a, b, opts)
//	... drain, calling pf.MarkKth at interesting k ...
//	prof := pf.Finish("my-workload")
//
// The zero Profiler is not usable; NewProfiler allocates the spans,
// counters and recorder it records into.
type Profiler struct {
	// Spans receives the phase attribution; Attach assigns it to
	// Options.Profile.
	Spans *ProfileSpans
	// Stats receives the work counters; Attach assigns it to
	// Options.Counters unless the caller already set one (the existing
	// counters are then snapshotted at Finish).
	Stats *Stats
	// Rec supplies the delay histograms; Attach assigns it to Options.Obs
	// unless the caller already set a recorder.
	Rec *Recorder

	start   time.Time
	ttk     []profile.TTKPoint
	explain []ExplainRow
}

// NewProfiler creates a Profiler with fresh spans, counters, and a
// trace-less recorder (histograms and gauges only), and starts its clock.
func NewProfiler() *Profiler {
	return &Profiler{
		Spans: &ProfileSpans{},
		Stats: &Stats{},
		Rec:   NewRecorder(ObsConfig{RingSize: 1}),
		start: time.Now(),
	}
}

// Attach wires the profiler into a join's options: spans always; counters
// and recorder only when the caller has not installed their own (in which
// case the caller's are used for the profile too).
func (p *Profiler) Attach(o *Options) {
	o.Profile = p.Spans
	if o.Counters == nil {
		o.Counters = p.Stats
	} else {
		p.Stats = o.Counters
	}
	if o.Obs == nil {
		o.Obs = p.Rec
	} else {
		p.Rec = o.Obs
	}
}

// AttachIndex attaches the profiler to an index's buffer pool: node I/O
// counts flow into the profiler's counters and the recorder's
// pool-hit-ratio gauge, and physical page I/O time into the spans' I/O
// figures — so the profile's IO stat covers index-node and queue-disk-tier
// I/O together. The pool carries one handle: the counting sink, made a
// pager.IOClock by embedding the spans.
func (p *Profiler) AttachIndex(idx *Index) {
	idx.tree.Pool().SetCounters(struct {
		pager.IOCounter
		*ProfileSpans
	}{stats.NodeSink(p.Stats, p.Rec.Counts()), p.Spans})
}

// Start re-marks the profile's wall-clock origin (NewProfiler already
// started it); call it after setup you do not want attributed to the run.
func (p *Profiler) Start() { p.start = time.Now() }

// Elapsed returns the wall time since the profile's origin.
func (p *Profiler) Elapsed() time.Duration { return time.Since(p.start) }

// MarkKth records that the k-th result pair arrived now, at distance dist —
// the paper's incrementality measure (time to the first few results versus
// the whole join).
func (p *Profiler) MarkKth(k int64, dist float64) {
	p.ttk = append(p.ttk, profile.TTKPoint{K: k, Seconds: p.Elapsed().Seconds(), Dist: dist})
}

// SetExplain installs predicted-vs-actual rows (see BuildExplain) into the
// finished profile.
func (p *Profiler) SetExplain(rows []ExplainRow) { p.explain = rows }

// Finish assembles the profile. The join should be drained and closed
// first, so that every engine has folded its last counts.
func (p *Profiler) Finish(label string) *Profile {
	var prof Profile
	prof.BuildPhases(p.Spans, p.Elapsed().Seconds())
	prof.Label = label
	prof.Counters = profileCounters(p.Stats)
	snap := p.Rec.Snapshot()
	prof.Delay.InterPair = quantileStat(snap.InterPairDelay)
	prof.Delay.PopToEmit = quantileStat(snap.PopToEmit)
	prof.TimeToKth = p.ttk
	prof.Explain = p.explain
	return &prof
}

// profileCounters copies a stats snapshot into the profile's JSON mirror.
func profileCounters(c *Stats) profile.Counters {
	s := c.Snapshot()
	return profile.Counters{
		DistCalcs:      s.DistCalcs,
		NodeDistCalcs:  s.NodeDistCalcs,
		NodeReads:      s.NodeReads,
		NodeWrites:     s.NodeWrites,
		NodeIO:         s.NodeReads + s.NodeWrites,
		BufferHits:     s.BufferHits,
		QueueInserts:   s.QueueInserts,
		QueuePops:      s.QueuePops,
		MaxQueueSize:   s.MaxQueueSize,
		QueueDiskPairs: s.QueueDiskPairs,
		QueueReads:     s.QueueReads,
		QueueWrites:    s.QueueWrites,
		PairsReported:  s.PairsReported,
		Filtered:       s.Filtered,
		BatchPruned:    s.BatchPruned,
	}
}

// quantileStat converts an obs histogram summary to the profile schema.
func quantileStat(h obs.HistogramSnapshot) profile.QuantileStat {
	return profile.QuantileStat{
		Count: h.Count,
		MeanS: h.MeanS,
		P50S:  h.P50S,
		P95S:  h.P95S,
		P99S:  h.P99S,
	}
}

// ExplainConfig describes the join run whose observed actuals are compared
// against the cost model's predictions.
type ExplainConfig struct {
	// K is the run's MaxPairs bound; 0 skips the distance-for-k and
	// suggested-max-dist rows.
	K int
	// KthDist is the observed distance of the K-th (final) reported pair.
	KthDist float64
	// MaxDist is the run's distance bound; 0 or +Inf skips the
	// pairs-within row.
	MaxDist float64
	// PairsWithin is the observed number of pairs reported within MaxDist.
	PairsWithin int64
	// Safety is the SuggestMaxDist inflation factor (default 2, the
	// cost model's recommendation).
	Safety float64
	// Cost configures the sampling estimators.
	Cost CostOptions
}

// BuildExplain runs the cost-model estimators for the described run and
// returns predicted-vs-actual rows: the model's k-th-pair distance and
// suggested distance cap against the observed k-th distance, and the
// pairs-within-d cardinality estimate against the observed result count.
func BuildExplain(a, b *Index, cfg ExplainConfig) ([]ExplainRow, error) {
	if cfg.Safety <= 0 {
		cfg.Safety = 2
	}
	var rows []ExplainRow
	add := func(metric string, predicted, actual float64) {
		rows = append(rows, ExplainRow{
			Metric:    metric,
			Predicted: predicted,
			Actual:    actual,
			RelErr:    profile.RelErr(predicted, actual),
		})
	}
	if cfg.K > 0 {
		dk, err := EstimateDistanceForK(a, b, cfg.K, cfg.Cost)
		if err != nil {
			return nil, fmt.Errorf("distjoin: explain distance-for-k: %w", err)
		}
		add("distance_for_k", dk, cfg.KthDist)
		sd, err := SuggestMaxDist(a, b, cfg.K, cfg.Safety, cfg.Cost)
		if err != nil {
			return nil, fmt.Errorf("distjoin: explain suggest-max-dist: %w", err)
		}
		if !math.IsInf(sd, 1) {
			add("suggest_max_dist", sd, cfg.KthDist)
		}
	}
	if cfg.MaxDist > 0 && !math.IsInf(cfg.MaxDist, 1) {
		pw, err := EstimatePairsWithin(a, b, cfg.MaxDist, cfg.Cost)
		if err != nil {
			return nil, fmt.Errorf("distjoin: explain pairs-within: %w", err)
		}
		add("pairs_within_d", pw, float64(cfg.PairsWithin))
	}
	return rows, nil
}
