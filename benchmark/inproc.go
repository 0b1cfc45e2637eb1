package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"distjoin"
)

// query is one in-process query configuration.
type query struct {
	semi  bool
	opts  distjoin.Options
	pairs int // Next calls per repetition; 0 drains to exhaustion
}

// iterator is what Join and SemiJoin have in common.
type iterator interface {
	Next() (distjoin.Pair, bool, error)
	QueueLen() int
	Close() error
}

func (q query) open(a, b distjoin.SpatialIndex, opts distjoin.Options) (iterator, error) {
	if q.semi {
		return distjoin.DistanceSemiJoinIndexes(a, b, distjoin.FilterGlobalAll, opts)
	}
	return distjoin.DistanceJoinIndexes(a, b, opts)
}

// expected is the number of pairs one repetition must deliver.
func (q query) expected(nWater, nRoads int) int {
	switch {
	case q.semi && nRoads > 0:
		return nWater
	case q.semi:
		return 0
	case q.pairs > 0 && q.pairs < nWater*nRoads:
		return q.pairs
	}
	return nWater * nRoads
}

// repetition is what one open / Next… / Close cycle measured.
type repetition struct {
	open    time.Duration // the constructor call
	first   time.Duration // query issued → first pair held by the caller
	toLast  time.Duration // query issued → last pair held
	drained time.Duration // query issued → Next loop left (exhaustion included)
	wall    time.Duration // query issued → Close returned
	pairs   int
	sum     digest
	bad     int // Next errors and out-of-order pairs
}

// run executes one repetition of q. Every Next is bracketed by one clock
// read; the delay of each pair after the first is appended to *delays (in
// ns) when delays is non-nil, and each distance to *dists when dists is
// non-nil. With a tracer the engine-call boundaries are recorded as spans.
func (q query) run(a, b distjoin.SpatialIndex, opts distjoin.Options, tr *tracer, delays *[]uint32, dists *[]float64) (repetition, error) {
	var r repetition
	r.sum = fnvOffset
	tr.enter(spOpen)
	start := time.Now()
	it, err := q.open(a, b, opts)
	if err != nil {
		return r, fmt.Errorf("opening query: %w", err)
	}
	prev := time.Now()
	r.open = prev.Sub(start)
	tr.enter(spNext)
	last := math.Inf(-1)
	for q.pairs == 0 || r.pairs < q.pairs {
		p, ok, err := it.Next()
		now := time.Now()
		if err != nil {
			r.bad++
			break
		}
		if !ok {
			prev = now
			break
		}
		switch {
		case r.pairs == 0:
			r.first = now.Sub(start)
		case delays != nil:
			*delays = append(*delays, clampNS(now.Sub(prev)))
		}
		r.toLast = now.Sub(start)
		prev = now
		if p.Dist < last {
			r.bad++
		}
		last = p.Dist
		r.sum = r.sum.add(p.Dist)
		if dists != nil {
			*dists = append(*dists, p.Dist)
		}
		r.pairs++
	}
	r.drained = prev.Sub(start)
	tr.enter(spClose)
	closeStart := time.Now()
	if err := it.Close(); err != nil {
		r.bad++
	}
	end := time.Now()
	r.wall = end.Sub(start)
	if tr != nil {
		tr.cur.add(spOpen, spQuery, r.open, 1)
		tr.cur.add(spNext, spQuery, r.drained-r.open, int64(r.pairs))
		tr.cur.add(spClose, spQuery, end.Sub(closeStart), 1)
		tr.cur.add(spQuery, spQuery, r.wall, 1)
	}
	return r, nil
}

func clampNS(d time.Duration) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// inProcessScale is the scale the in-process workloads are defined at: both
// trees are larger than their 128-frame buffer pools.
const inProcessScale = "mid"

// inProcessWorkload is one of the four workloads that call the library
// directly.
type inProcessWorkload struct {
	name    string
	why     string
	query   func(sc scale, tmp string) query
	warmups int
	maxReps int
	// variants marks the workload whose traced run also measures each
	// telemetry sink's overhead and the parallel speed-up on its query.
	variants bool
}

var inProcessWorkloads = []inProcessWorkload{
	{
		name: "join-first",
		why:  "first pair (and first page) of a join: node decode, heap inserts and GC do the work; the disk tier and server do none",
		query: func(sc scale, _ string) query {
			return query{pairs: sc.firstPairs}
		},
		warmups: 2, maxReps: 400,
	},
	{
		name: "join-drain-mem",
		why:  "steady drain on the memory queue: pops, expansions and kernels dominate; the disk tier is bypassed",
		query: func(sc scale, _ string) query {
			return query{pairs: sc.drainPairs}
		},
		warmups: 2, maxReps: 120, variants: true,
	},
	{
		name: "join-drain-hybrid",
		why:  "the same drain on the paper's file-backed hybrid queue: spill and bucket reload dominate",
		query: func(sc scale, tmp string) query {
			return query{
				opts:  distjoin.Options{Queue: distjoin.QueueHybrid, HybridDT: sc.hybridDT, HybridDir: tmp},
				pairs: sc.drainPairs,
			}
		},
		warmups: 1, maxReps: 30,
	},
	{
		name: "semi-drain",
		why:  "semi-join drained to exhaustion: same engine, but filter ladder, bit set and d_max pruning decide the cost",
		query: func(_ scale, _ string) query {
			return query{semi: true}
		},
		warmups: 1, maxReps: 40,
	},
}

// checkAgainstOracle runs q's exact configuration on the 1/10-scale twin of
// the data and compares the whole distance sequence with brute force.
func checkAgainstOracle(seed int64, sc scale, wl inProcessWorkload, tmp string) error {
	small := sc.tenth()
	d := makeData(seed, 0, small.water, small.roads)
	ix, err := buildIndexes(d)
	if err != nil {
		return err
	}
	defer ix.Close()
	q := wl.query(small, tmp)
	var got []float64
	rep, err := q.run(ix.water.AsSpatialIndex(), ix.roads.AsSpatialIndex(), q.opts, nil, nil, &got)
	if err != nil {
		return err
	}
	if rep.bad > 0 {
		return fmt.Errorf("%d failed or out-of-order pairs at 1/10 scale", rep.bad)
	}
	var want []float64
	if q.semi {
		want = bruteSemiJoin(d.water, d.roads)
	} else {
		want = bruteJoin(d.water, d.roads, q.pairs)
	}
	return sameDistances(got, want)
}

// repLog accumulates timed repetitions and checks each against the first
// repetition on the same sample.
type repLog struct {
	expected int
	reps     []repetition
	delays   []uint32
	first    map[int]digest // by sample
}

// record adds a repetition on a sample and returns how many of its
// operations failed: bad pairs, plus one for a wrong pair count or a digest
// that differs from the sample's first repetition.
func (l *repLog) record(r repetition, sample int) (failed int64, why string) {
	failed = int64(r.bad)
	if r.bad > 0 {
		why = fmt.Sprintf("%d failed or out-of-order pairs", r.bad)
	}
	if l.first == nil {
		l.first = map[int]digest{}
	}
	first, seen := l.first[sample]
	switch {
	case r.pairs != l.expected:
		failed++
		why = fmt.Sprintf("%d pairs delivered, expected %d", r.pairs, l.expected)
	case !seen:
		l.first[sample] = r.sum
	case r.sum != first:
		failed++
		why = "distance digest differs from the sample's first repetition"
	}
	l.reps = append(l.reps, r)
	return failed, why
}

func (l *repLog) column(f func(repetition) float64) []float64 {
	out := make([]float64, len(l.reps))
	for i, r := range l.reps {
		out[i] = f(r)
	}
	return out
}

// delayPercentiles reports the median (when p50Name is set) and the tail of
// the pooled per-pair delays in µs, scaled by the host factor, and leaves
// delays sorted.
func delayPercentiles(res *result, delays []uint32, p50Name, tailName string, q, factor float64) {
	sorted := make([]float64, len(delays))
	slices.Sort(delays)
	for i, d := range delays {
		sorted[i] = float64(d) / 1e3
	}
	if p50Name != "" {
		p50, _ := percentile(sorted, 0.5)
		res.setScaled(p50Name, p50, factor, "%d samples", len(sorted))
	}
	tail, effQ := tailPercentile(sorted, q)
	if effQ == q {
		res.setScaled(tailName, tail, factor, "%d samples", len(sorted))
	} else {
		res.setScaled(tailName, tail, factor, "only %d samples: this is the %.4f quantile", len(sorted), effQ)
	}
}

// warmUp runs n untimed repetitions, so heap growth and lazy set-up are paid
// before timing starts.
func warmUp(q query, on []target, n int) error {
	for i := 0; i < n; i++ {
		if _, err := q.run(on[i%len(on)].a, on[i%len(on)].b, q.opts, nil, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// untilSpent lets repetitions go on until the time budget is spent, and for
// at least minReps.
func untilSpent(budget time.Duration, minReps int) func(int, time.Duration) bool {
	return func(n int, elapsed time.Duration) bool { return n < minReps || elapsed < budget }
}

// wholeRounds lets repetitions go on in rounds of one repetition per sample,
// so every sample weighs the same in every figure: with seven repetitions on
// five samples, which two samples counted twice would move the pooled
// percentiles and the allocations per query from seed to seed. Another round
// is started while a quarter of it still fits into the budget. Where a
// round takes seconds that keeps the number of rounds the same on a fast
// and on a slow host phase: semi-drain's round of 9.5–12 s is made twice,
// join-drain-hybrid's of 17–21 s once.
func wholeRounds(budget time.Duration, samples int) func(int, time.Duration) bool {
	return func(n int, elapsed time.Duration) bool {
		if n == 0 || n%samples != 0 {
			return true
		}
		round := elapsed / time.Duration(n/samples)
		return elapsed+round/4 <= budget
	}
}

// repeat runs q, rotating over the samples, for as long as more — given the
// repetitions made and the time they took — says so (at most maxReps
// repetitions), logging each.
func repeat(q query, on []target, opts distjoin.Options, tr *tracer, more func(int, time.Duration) bool, maxReps int,
	log *repLog, res *result, each func(repetition)) error {
	start := time.Now()
	for n := 0; n < maxReps && more(n, time.Since(start)); n++ {
		sample := n % len(on)
		rep, err := q.run(on[sample].a, on[sample].b, opts, tr, &log.delays, nil)
		if err != nil {
			return err
		}
		res.Attempted += int64(rep.pairs) + 1
		if failed, why := log.record(rep, sample); failed > 0 {
			res.Failed += failed
			res.fail("repetition %d: %s", n, why)
		}
		if each != nil {
			each(rep)
		}
	}
	return nil
}

// prepared is an in-process workload ready to be measured: its samples
// indexed, its outputs checked against the oracle, the heap warmed up.
type prepared struct {
	set      *sampleSet
	on       []target // the samples, unwrapped
	q        query
	expected int     // pairs per repetition
	setupS   float64 // median set-up time
}

func prepare(cfg config, wl inProcessWorkload, sc scale, tmp string, res *result, host *hostClock) (*prepared, error) {
	set, setupS, err := setUpInProcess(cfg.seed, sc, host)
	if err != nil {
		return nil, err
	}
	if err := checkAgainstOracle(cfg.seed, sc, wl, tmp); err != nil {
		res.fail("oracle: %v", err)
	}
	p := &prepared{set: set, on: set.targets(nil), q: wl.query(sc, tmp), setupS: setupS}
	p.expected = p.q.expected(sc.water, sc.roads)
	if err := warmUp(p.q, p.on, wl.warmups); err != nil {
		set.Close()
		return nil, err
	}
	return p, nil
}

// runInProcess is the untraced run of one in-process workload: every
// telemetry sink is nil and nothing is wrapped.
func runInProcess(cfg config, wl inProcessWorkload, sc scale, tmp string) (*result, error) {
	res := newResult()
	host := newHostClock()
	p, err := prepare(cfg, wl, sc, tmp, res, host)
	if err != nil {
		return nil, err
	}
	defer p.set.Close()
	res.setScaled("setup_s", p.setupS, host.factor(), "median of %d set-ups, water %d × roads %d", numSamples, sc.water, sc.roads)
	host.reset()

	log := &repLog{expected: p.expected}
	log.delays = make([]uint32, 0, wl.maxReps*log.expected)
	log.reps = make([]repetition, 0, wl.maxReps)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpuBefore := selfCPUSeconds()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	// The host clock ticks between repetitions, outside every timed span;
	// its CPU is taken out of the CPU figure.
	var hostCPU float64
	tick := func(rep repetition) {
		start := selfCPUSeconds()
		host.between(rep.wall)
		hostCPU += selfCPUSeconds() - start
	}
	tick(repetition{})
	if err := repeat(p.q, p.on, p.q.opts, nil, wholeRounds(budget, len(p.on)), wl.maxReps, log, res, tick); err != nil {
		return nil, err
	}
	cpuAfter := selfCPUSeconds()
	runtime.ReadMemStats(&after)
	reps := float64(len(log.reps))
	f := host.factor()

	res.setScaled("ttfp_ms", median(log.column(func(r repetition) float64 { return r.first.Seconds() * 1e3 })), f,
		"median of %d repetitions", len(log.reps))
	res.setScaled("pairs_per_s", median(log.column(func(r repetition) float64 { return float64(r.pairs) / r.toLast.Seconds() })), 1/f,
		"median of %d repetitions of %d pairs", len(log.reps), log.expected)
	delayPercentiles(res, log.delays, "", "delay_p99_us", 0.99, f)
	res.set("allocs_per_query", float64(after.Mallocs-before.Mallocs)/reps)
	res.set("alloc_mb_per_query", float64(after.TotalAlloc-before.TotalAlloc)/reps/1e6)
	res.setScaled("cpu_s_per_query", (cpuAfter-cpuBefore-hostCPU)/reps, f, "%d repetitions", len(log.reps))

	live, queued, err := liveBytesPerQueuedPair(p.q, p.on[0].a, p.on[0].b)
	if err != nil {
		return nil, err
	}
	res.set("live_bytes_per_queued_pair", live)
	res.note("live_bytes_per_queued_pair", "%d pairs queued after the first pair", queued)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss)
	res.finish(endToEnd, true)
	return res, nil
}

// liveBytesPerQueuedPair runs one extra, untimed repetition up to its first
// pair and divides the heap the open query keeps alive by its queue length:
// the space side of the space–time trade the queue makes.
func liveBytesPerQueuedPair(q query, a, b distjoin.SpatialIndex) (bytesPerPair float64, queued int, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	it, err := q.open(a, b, q.opts)
	if err != nil {
		return 0, 0, err
	}
	defer it.Close()
	if _, _, err := it.Next(); err != nil {
		return 0, 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	queued = it.QueueLen()
	runtime.KeepAlive(it)
	if queued == 0 {
		return 0, 0, fmt.Errorf("queue is empty after the first pair")
	}
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(queued), queued, nil
}
