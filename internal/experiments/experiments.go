// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the synthetic TIGER-like datasets of
// internal/datagen. Each experiment function returns structured rows so the
// cmd/experiments harness can print them and EXPERIMENTS.md can record
// paper-vs-measured comparisons; bench_test.go wraps the same functions in
// testing.B benchmarks.
//
// All experiments join Water (outer) with Roads (inner) except where noted,
// exactly as in §4. Between runs the buffer pools are dropped so node I/O
// counts are cold-cache comparable.
package experiments

import (
	"fmt"
	"math"
	"time"

	"distjoin/internal/baseline"
	"distjoin/internal/datagen"
	"distjoin/internal/distjoin"
	"distjoin/internal/faultstore"
	"distjoin/internal/geom"
	"distjoin/internal/obs"
	"distjoin/internal/pager"
	"distjoin/internal/rtree"
	"distjoin/internal/stats"
)

// Scale sizes an experiment run. Full reproduces the paper's cardinalities;
// Small keeps CI fast while preserving the dataset shape.
type Scale struct {
	Name   string
	WaterN int
	RoadsN int
	// PairCounts is the x-axis of Table 1 and Figures 6–10.
	PairCounts []int
	// HybridDT1 and HybridDT2 are the two D_T values of Figure 8 (the
	// paper chose the distances of pairs №7,663 and №34,906; these are
	// the corresponding orders of magnitude in our world units).
	HybridDT1, HybridDT2 float64
	// Seed makes data generation deterministic.
	Seed int64
}

// Small is the default scale: ~1/10 of the paper's cardinalities.
var Small = Scale{
	Name:       "small",
	WaterN:     4_000,
	RoadsN:     20_000,
	PairCounts: []int{1, 10, 100, 1_000, 10_000},
	HybridDT1:  30,
	HybridDT2:  120,
	Seed:       1998,
}

// Full matches the paper's dataset sizes and pair counts.
var Full = Scale{
	Name:       "full",
	WaterN:     datagen.PaperWaterSize,
	RoadsN:     datagen.PaperRoadsSize,
	PairCounts: []int{1, 10, 100, 1_000, 10_000, 100_000},
	HybridDT1:  10,
	HybridDT2:  40,
	Seed:       1998,
}

// ScaleByName returns the named scale.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small", "":
		return Small, nil
	case "full":
		return Full, nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (want small or full)", name)
}

// Datasets bundles the two indexed relations and a shared counter sink.
type Datasets struct {
	Scale    Scale
	Water    *rtree.Tree
	Roads    *rtree.Tree
	Counters *stats.Counters
	// Obs, when non-nil, is threaded into every run (work counts, latency
	// histograms, buffer-pool gauges) — set it to watch experiments live via
	// obs.ServeMetricsTraced.
	Obs *obs.Recorder
}

// treeConfig is the paper's §3.1 node/buffer configuration (see DESIGN.md
// for the byte-size mapping).
func treeConfig(c *stats.Counters) rtree.Config {
	return rtree.Config{Dims: 2, PageSize: 2048, BufferFrames: 128, Counters: c}
}

// Load generates the datasets and bulk-loads both trees.
func Load(s Scale) (*Datasets, error) { return LoadWithLatency(s, 0) }

// LoadWithLatency builds the datasets over a simulated disk that charges
// perIO of wall-clock time on every physical node read and write. The
// default substrate counts I/O but performs it at memory speed, which
// flattens the paper's wall-clock curves (its 1998 testbed was
// I/O-dominated); a non-zero latency restores that cost model. Each tree's
// store is wrapped in a faultstore that slows every page read and write by
// perIO and injects nothing else: a uniform delay for the average access
// cost of the paper's disk, with no seek-distance model. I/O counts are
// unaffected.
func LoadWithLatency(s Scale, perIO time.Duration) (*Datasets, error) {
	c := &stats.Counters{}
	mkStore := func() (pager.Store, error) {
		mem, err := pager.NewMemStore(treeConfig(nil).PageSize)
		if err != nil {
			return nil, err
		}
		if perIO > 0 {
			return faultstore.New(mem, faultstore.Config{SlowProb: 1, SlowLatency: perIO}), nil
		}
		return mem, nil
	}
	buildTree := func(pts []geom.Point) (*rtree.Tree, error) {
		cfg := treeConfig(c)
		store, err := mkStore()
		if err != nil {
			return nil, err
		}
		cfg.Store = store
		return datagen.BuildTree(cfg, pts)
	}
	water, err := buildTree(datagen.Water(s.Seed, s.WaterN))
	if err != nil {
		return nil, fmt.Errorf("experiments: building Water: %w", err)
	}
	roads, err := buildTree(datagen.Roads(s.Seed+1, s.RoadsN))
	if err != nil {
		water.Close()
		return nil, fmt.Errorf("experiments: building Roads: %w", err)
	}
	return &Datasets{Scale: s, Water: water, Roads: roads, Counters: c}, nil
}

// Close releases both trees.
func (d *Datasets) Close() {
	d.Water.Close()
	d.Roads.Close()
}

// reset drops buffer caches and attaches a fresh counter set for one run.
func (d *Datasets) reset() (*stats.Counters, error) {
	if err := d.Water.DropCache(); err != nil {
		return nil, err
	}
	if err := d.Roads.DropCache(); err != nil {
		return nil, err
	}
	c := &stats.Counters{}
	d.Counters = c
	d.Water.Pool().SetCounters(stats.NodeSink(c, d.Obs.Counts()))
	d.Roads.Pool().SetCounters(stats.NodeSink(c, d.Obs.Counts()))
	return c, nil
}

// Run captures one experiment leg: the measures of Table 1 plus wall time.
type Run struct {
	Label     string
	Pairs     int // result pairs requested
	Reported  int // result pairs actually produced
	Time      time.Duration
	DistCalcs int64
	MaxQueue  int64 // high-water queue size, in pairs
	// MaxElements is the high-water number of elements in the queue's own
	// structure: the memory queue holds one per expansion, the hybrid queue
	// one per pair (0: the leg does not report it).
	MaxElements int64
	NodeIO      int64
	LastDist    float64 // distance of the last reported pair
	Retries     int64   // transient queue-I/O retries (fault experiments)
	Err         string  // surfaced error class, "" when the run completed
}

// constructor is an operator's constructor: distjoin.NewJoinIndexes, or one
// of semi's.
type constructor func(t1, t2 distjoin.SpatialIndex, opts distjoin.Options) (*distjoin.Join, error)

// semi is the distance semi-join's constructor with the given filter.
func semi(f distjoin.SemiFilter) constructor {
	return func(t1, t2 distjoin.SpatialIndex, opts distjoin.Options) (*distjoin.Join, error) {
		return distjoin.NewSemiJoinIndexes(t1, t2, f, opts)
	}
}

// leg is one opened experiment leg: the query, the counter set only it
// charges, and when it was opened. err is the error opening it, which drain
// returns.
type leg struct {
	j     *distjoin.Join
	c     *stats.Counters
	start time.Time
	err   error
}

// open starts a leg of newJoin over Water and Roads — Roads and Water when
// reversed — with cold caches and a fresh counter set.
func (d *Datasets) open(newJoin constructor, opts distjoin.Options, reversed bool) leg {
	c, err := d.reset()
	if err != nil {
		return leg{err: err}
	}
	opts.Obs = d.Obs
	t1, t2 := d.Water, d.Roads
	if reversed {
		t1, t2 = d.Roads, d.Water
	}
	return openLeg(newJoin, t1, t2, c, opts)
}

// openLeg opens a leg of newJoin over t1 and t2, charged to c; its clock
// starts before the constructor runs.
func openLeg(newJoin constructor, t1, t2 *rtree.Tree, c *stats.Counters, opts distjoin.Options) leg {
	opts.Counters = c
	l := leg{c: c, start: time.Now()}
	l.j, l.err = newJoin(distjoin.WrapRTree(t1), distjoin.WrapRTree(t2), opts)
	return l
}

// drain reads the leg until it has delivered pairs results — every result
// when pairs <= 0 — closes it, and returns it as a Run labelled label, with
// the Table 1 measures taken from the leg's counters once, at the end.
//
// For every rank k in stamps it also returns, in delivery order, the leg as
// it stood when the k-th pair came back: Time since the leg was opened,
// LastDist the result frontier, and MaxQueue the live queue depth (inserts
// minus pops as folded at that Next return), not the high-water mark.
//
// An error from Next is returned, unless keepErr is set: then it ends the
// leg and its class is the Run's Err. On a fault leg the error is the
// measurement, not a failure of the harness.
func (l leg) drain(label string, pairs int, stamps map[int]bool, keepErr bool) (Run, []Run, error) {
	if l.err != nil {
		return Run{}, nil, l.err
	}
	defer l.j.Close()
	c := l.c
	r := Run{Label: label, Pairs: pairs}
	var at []Run
	for pairs <= 0 || r.Reported < pairs {
		p, ok, err := l.j.Next()
		if err != nil {
			if !keepErr {
				return Run{}, nil, err
			}
			r.Err = faultClass(err)
			break
		}
		if !ok {
			break
		}
		r.Reported++
		r.LastDist = p.Dist
		if k := r.Reported; stamps[k] {
			at = append(at, Run{
				Label:    fmt.Sprintf("time-to-%d", k),
				Pairs:    k,
				Reported: k,
				Time:     time.Since(l.start),
				MaxQueue: c.QueueInserts - c.QueuePops,
				LastDist: p.Dist,
			})
		}
	}
	r.Time = time.Since(l.start)
	r.DistCalcs = c.DistCalcs
	r.MaxQueue, r.MaxElements = c.MaxQueueSize, c.MaxQueueElements
	r.NodeIO = c.NodeIO()
	r.Retries = c.IORetries
	return r, at, nil
}

// memQueueStore keeps the hybrid queue's disk tier in memory: the tier runs
// and counts its page I/O as on a file, and the experiments stay hermetic.
func memQueueStore(pageSize int) (pager.Store, error) { return pager.NewMemStore(pageSize) }

// hybridOpts is the paper's default configuration for the distance join
// experiments: hybrid queue, even traversal, depth-first ties.
func (s Scale) hybridOpts() distjoin.Options {
	return distjoin.Options{
		Queue:      distjoin.QueueHybrid,
		HybridDT:   s.HybridDT2,
		QueueStore: memQueueStore,
	}
}

// Table1 reproduces Table 1: the measures of the DepthFirst/Even/one-node
// variant for increasing result counts.
func Table1(d *Datasets) ([]Run, error) {
	out := make([]Run, 0, len(d.Scale.PairCounts))
	for _, n := range d.Scale.PairCounts {
		r, _, err := d.open(distjoin.NewJoinIndexes, d.Scale.hybridOpts(), false).drain("Even/DepthFirst", n, nil, false)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Table1Reversed reproduces the §4.1.1 observation that joining Roads with
// Water behaves like Water with Roads for Even traversal but degrades for
// Basic. The paper could not complete the Basic variant for the largest
// result count ("too many pairs were generated for the priority queue to
// fit on disk"); this harness reproduces the blow-up's onset but caps the
// Basic sweep at 1,000 pairs so the run stays within laptop memory — the
// queue-size column already tells the story.
func Table1Reversed(d *Datasets) ([]Run, error) {
	var out []Run
	for _, variant := range []struct {
		label    string
		maxPairs int
		opts     distjoin.Options
	}{
		{"Even(R⋈W)", 0, d.Scale.hybridOpts()},
		{"Basic(R⋈W)", 1_000, func() distjoin.Options {
			o := d.Scale.hybridOpts()
			o.Traversal = distjoin.TraverseBasic
			return o
		}()},
	} {
		for _, n := range d.Scale.PairCounts {
			if variant.maxPairs > 0 && n > variant.maxPairs {
				continue
			}
			r, _, err := d.open(distjoin.NewJoinIndexes, variant.opts, true).drain(variant.label, n, nil, false)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// Fig6 reproduces Figure 6: execution time of the four algorithm versions.
func Fig6(d *Datasets) ([]Run, error) {
	variants := []struct {
		label     string
		traversal distjoin.Traversal
		tie       distjoin.TieBreak
	}{
		{"Even/DepthFirst", distjoin.TraverseEven, distjoin.DepthFirst},
		{"Even/BreadthFirst", distjoin.TraverseEven, distjoin.BreadthFirst},
		{"Basic/DepthFirst", distjoin.TraverseBasic, distjoin.DepthFirst},
		{"Simultaneous/DepthFirst", distjoin.TraverseSimultaneous, distjoin.DepthFirst},
	}
	var out []Run
	for _, v := range variants {
		for _, n := range d.Scale.PairCounts {
			opts := d.Scale.hybridOpts()
			opts.Traversal = v.traversal
			opts.TieBreak = v.tie
			r, _, err := d.open(distjoin.NewJoinIndexes, opts, false).drain(v.label, n, nil, false)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// Fig7 reproduces Figure 7: the effect of a known maximum distance
// ("MaxDist k" = distance of the k-th closest pair) and of a maximum pair
// count ("MaxPair k", which estimates the maximum distance per §2.2.4),
// against the regular algorithm.
func Fig7(d *Datasets) ([]Run, error) {
	counts := d.Scale.PairCounts
	var out []Run
	// Regular. Its legs stamp the reference ranks, so the largest one also
	// gives the k-th distances the MaxDist variants take as their maximum.
	kRefs := refCounts(counts)
	distOf := map[int]float64{}
	for _, n := range counts {
		r, stamps, err := d.open(distjoin.NewJoinIndexes, d.Scale.hybridOpts(), false).drain("Regular", n, ranks(kRefs), false)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		for _, s := range stamps {
			distOf[s.Pairs] = s.LastDist
		}
	}
	// MaxDist variants: set the true k-th distance as the maximum and
	// compute up to k pairs.
	for _, k := range kRefs {
		label := fmt.Sprintf("MaxDist %d", k)
		for _, n := range counts {
			if n > k {
				continue
			}
			opts := d.Scale.hybridOpts()
			opts.MaxDist = distOf[k]
			r, _, err := d.open(distjoin.NewJoinIndexes, opts, false).drain(label, n, nil, false)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	// MaxPair variants: bound the number of pairs, activating estimation.
	for _, k := range kRefs[:len(kRefs)-1] {
		label := fmt.Sprintf("MaxPair %d", k)
		for _, n := range counts {
			if n > k {
				continue
			}
			opts := d.Scale.hybridOpts()
			opts.MaxPairs = k
			r, _, err := d.open(distjoin.NewJoinIndexes, opts, false).drain(label, n, nil, false)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// refCounts picks the reference counts for MaxDist/MaxPair sweeps: the
// largest three pair counts of the scale.
func refCounts(counts []int) []int {
	if len(counts) <= 3 {
		return counts
	}
	return counts[len(counts)-3:]
}

// ranks is the set of the given result ranks, for drain to stamp.
func ranks(ks []int) map[int]bool {
	set := make(map[int]bool, len(ks))
	for _, k := range ks {
		set[k] = true
	}
	return set
}

func maxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Fig8 reproduces Figure 8: the memory-only queue against the hybrid queue
// with two D_T values, plus (an ablation beyond the paper) the adaptive-D_T
// mode.
func Fig8(d *Datasets) ([]Run, error) {
	variants := []struct {
		label string
		opts  distjoin.Options
	}{
		{"Memory", distjoin.Options{Queue: distjoin.QueueMemory}},
		{"Hybrid1", distjoin.Options{Queue: distjoin.QueueHybrid, HybridDT: d.Scale.HybridDT1, QueueStore: memQueueStore}},
		{"Hybrid2", distjoin.Options{Queue: distjoin.QueueHybrid, HybridDT: d.Scale.HybridDT2, QueueStore: memQueueStore}},
		{"HybridAdaptive", distjoin.Options{Queue: distjoin.QueueHybrid, QueueStore: memQueueStore}},
	}
	var out []Run
	for _, v := range variants {
		for _, n := range d.Scale.PairCounts {
			r, _, err := d.open(distjoin.NewJoinIndexes, v.opts, false).drain(v.label, n, nil, false)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// Fig9 reproduces Figure 9: semi-join filtering strategies. The "Outside"
// row is restricted exactly as in the paper: without inside filtering, a
// request approaching the full result degenerates into computing an
// unbounded prefix of the distance join, and "the priority queue became too
// large ... beyond 10,000 pairs", so Outside runs only the counts below
// outsideCap. The figure's queue is the paper's hybrid one; the full result
// of every rung from Inside2 up is run once more on the memory queue, whose
// semi-join expansions are generated in the index domain ("/Memory" rows).
func Fig9(d *Datasets) ([]Run, error) {
	filters := []distjoin.SemiFilter{
		distjoin.FilterOutside,
		distjoin.FilterInside1,
		distjoin.FilterInside2,
		distjoin.FilterLocal,
		distjoin.FilterGlobalNodes,
		distjoin.FilterGlobalAll,
	}
	const outsideCap = 10_000
	var out []Run
	counts := append(append([]int{}, d.Scale.PairCounts...), 0) // 0 = all
	for _, f := range filters {
		for _, n := range counts {
			// A request at or beyond the result cardinality runs Outside to
			// exhaustion — the unbounded case.
			if f == distjoin.FilterOutside && (n == 0 || n > outsideCap || n >= d.Water.Len()) {
				continue
			}
			// For the other filters, a count beyond the result cardinality
			// duplicates the (all) leg; skip it.
			if f != distjoin.FilterOutside && n > 0 && n >= d.Water.Len() {
				continue
			}
			r, _, err := d.open(semi(f), d.Scale.hybridOpts(), false).drain(f.String(), n, nil, false)
			if err != nil {
				return nil, err
			}
			if n == 0 {
				r.Label += " (all)"
			}
			out = append(out, r)
		}
	}
	for _, f := range filters[2:] {
		r, _, err := d.open(semi(f), distjoin.Options{Queue: distjoin.QueueMemory}, false).drain(f.String()+"/Memory (all)", 0, nil, false)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Fig10 reproduces Figure 10: the effect of maximum distance and maximum
// pairs on the semi-join ("Local" variant, as in §4.2.2).
func Fig10(d *Datasets) ([]Run, error) {
	var out []Run
	counts := make([]int, 0, len(d.Scale.PairCounts))
	for _, n := range d.Scale.PairCounts {
		if n < d.Water.Len() {
			counts = append(counts, n)
		}
	}
	// The Regular legs stamp the reference ranks, so the largest one also
	// gives the k-th semi-join distances the MaxDist variants take as their
	// maximum.
	kRefs := refCounts(counts)
	distOf := map[int]float64{}
	for _, n := range counts {
		r, stamps, err := d.open(semi(distjoin.FilterLocal), d.Scale.hybridOpts(), false).drain("Regular", n, ranks(kRefs), false)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		for _, s := range stamps {
			distOf[s.Pairs] = s.LastDist
		}
	}
	// Full-result run gives both the total count and the maximum semi-join
	// distance ("MaxDist All").
	full, _, err := d.open(semi(distjoin.FilterLocal), d.Scale.hybridOpts(), false).drain("Regular (all)", 0, nil, false)
	if err != nil {
		return nil, err
	}
	out = append(out, full)

	for _, k := range kRefs {
		label := fmt.Sprintf("MaxDist %d", k)
		for _, n := range counts {
			if n > k {
				continue
			}
			opts := d.Scale.hybridOpts()
			opts.MaxDist = distOf[k]
			r, _, err := d.open(semi(distjoin.FilterLocal), opts, false).drain(label, n, nil, false)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	// MaxDist All: the largest distance in the full semi-join result.
	{
		opts := d.Scale.hybridOpts()
		opts.MaxDist = full.LastDist
		r, _, err := d.open(semi(distjoin.FilterLocal), opts, false).drain("MaxDist All", 0, nil, false)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	for _, k := range kRefs {
		label := fmt.Sprintf("MaxPair %d", k)
		for _, n := range counts {
			if n > k {
				continue
			}
			opts := d.Scale.hybridOpts()
			opts.MaxPairs = k
			r, _, err := d.open(semi(distjoin.FilterLocal), opts, false).drain(label, n, nil, false)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	// MaxPair All: upper bound set to the number of outer objects.
	{
		opts := d.Scale.hybridOpts()
		opts.MaxPairs = d.Water.Len()
		r, _, err := d.open(semi(distjoin.FilterLocal), opts, false).drain("MaxPair All", 0, nil, false)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Sec414 reproduces §4.1.4: the nested-loop alternative. It reports the
// nested-loop scan (all pairwise distances, nothing stored) against the
// incremental join producing the scale's largest pair count.
func Sec414(d *Datasets) ([]Run, error) {
	c, err := d.reset()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	n, err := baseline.NestedLoopScanOnly(d.Water, d.Roads, baseline.Options{Counters: c})
	if err != nil {
		return nil, err
	}
	nl := Run{
		Label:     "NestedLoop (scan only)",
		Pairs:     int(math.Min(float64(n), math.MaxInt32)),
		Reported:  0,
		Time:      time.Since(start),
		DistCalcs: c.DistCalcs,
		NodeIO:    c.NodeIO(),
	}
	inc, _, err := d.open(distjoin.NewJoinIndexes, d.Scale.hybridOpts(), false).drain("Incremental", maxInt(d.Scale.PairCounts), nil, false)
	if err != nil {
		return nil, err
	}
	return []Run{nl, inc}, nil
}

// Sec423 reproduces §4.2.3: the full distance semi-join computed
// incrementally (GlobalAll) versus the non-incremental
// nearest-neighbour-per-object implementation, in both join orders — and,
// after those four rows, GlobalAll on the memory queue in both orders.
func Sec423(d *Datasets) ([]Run, error) {
	orders := []struct {
		rev    bool
		suffix string
	}{{false, " (W⋉R)"}, {true, " (R⋉W)"}}
	var out []Run
	for _, o := range orders {
		inc, _, err := d.open(semi(distjoin.FilterGlobalAll), d.Scale.hybridOpts(), o.rev).drain("GlobalAll"+o.suffix, 0, nil, false)
		if err != nil {
			return nil, err
		}
		out = append(out, inc)

		c, err := d.reset()
		if err != nil {
			return nil, err
		}
		t1, t2 := d.Water, d.Roads
		if o.rev {
			t1, t2 = d.Roads, d.Water
		}
		start := time.Now()
		pairs, err := baseline.NNSemiJoin(t1, t2, baseline.Options{Counters: c})
		if err != nil {
			return nil, err
		}
		out = append(out, Run{
			Label:     "NN-per-object" + o.suffix,
			Pairs:     len(pairs),
			Reported:  len(pairs),
			Time:      time.Since(start),
			DistCalcs: c.DistCalcs,
			MaxQueue:  c.MaxQueueSize,
			NodeIO:    c.NodeIO(),
		})
	}
	for _, o := range orders {
		mem, _, err := d.open(semi(distjoin.FilterGlobalAll), distjoin.Options{Queue: distjoin.QueueMemory}, o.rev).drain("GlobalAll/Memory"+o.suffix, 0, nil, false)
		if err != nil {
			return nil, err
		}
		out = append(out, mem)
	}
	return out, nil
}

// DimSweep runs the distance join across dimensionalities — the "higher
// dimensions" direction the paper's conclusion lists for further work (§5).
// Each leg joins two clustered point sets of the scale's Water cardinality
// in the unit hyper-cube and retrieves the scale's second-largest pair
// count.
func DimSweep(s Scale) ([]Run, error) {
	pairTarget := s.PairCounts[len(s.PairCounts)-1]
	if len(s.PairCounts) > 1 {
		pairTarget = s.PairCounts[len(s.PairCounts)-2]
	}
	n := s.WaterN
	var out []Run
	for _, dims := range []int{2, 3, 4, 6} {
		c := &stats.Counters{}
		cfg := rtree.Config{Dims: dims, PageSize: 4096, BufferFrames: 128, Counters: c}
		t1, err := datagen.BuildTree(cfg, datagen.ClusteredD(s.Seed+int64(dims), n, dims, 20, 0.03))
		if err != nil {
			return nil, err
		}
		t2, err := datagen.BuildTree(cfg, datagen.ClusteredD(s.Seed+int64(dims)+100, n, dims, 20, 0.03))
		if err != nil {
			t1.Close()
			return nil, err
		}
		r, _, err := openLeg(distjoin.NewJoinIndexes, t1, t2, c, distjoin.Options{}).drain(fmt.Sprintf("%d-D", dims), pairTarget, nil, false)
		t1.Close()
		t2.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
