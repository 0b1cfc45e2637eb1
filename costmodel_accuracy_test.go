package distjoin_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"distjoin"
	"distjoin/internal/datagen"
)

// The sampling estimators document (internal/costmodel) that accuracy grows
// roughly with the square root of the sample size; at Sample=400 the
// internal tests pin uniform-data estimates within a factor of 2 of truth.
// These property tests re-assert that contract through the public API over
// several seeded workloads, and additionally check the skewed TIGER-like
// generators against a looser factor-3 bound (skew concentrates mass the
// uniform density model dilutes).
const (
	uniformFactor = 2.0
	skewedFactor  = 3.0
)

// workload is one seeded synthetic input pair plus its accuracy bound.
type accWorkload struct {
	name   string
	a, b   []distjoin.Point
	factor float64
}

func uniformWorkload(seed int64, n int) accWorkload {
	gen := func(s int64) []distjoin.Point {
		rnd := rand.New(rand.NewSource(s))
		pts := make([]distjoin.Point, n)
		for i := range pts {
			pts[i] = distjoin.Pt(rnd.Float64()*1000, rnd.Float64()*1000)
		}
		return pts
	}
	return accWorkload{
		name:   "uniform",
		a:      gen(seed),
		b:      gen(seed + 1),
		factor: uniformFactor,
	}
}

func tigerWorkload(seed int64, n int) accWorkload {
	return accWorkload{
		name:   "tiger",
		a:      datagen.Water(seed, n),
		b:      datagen.Roads(seed+1, 2*n),
		factor: skewedFactor,
	}
}

// allPairDistances brute-forces the sorted pair-distance list — the ground
// truth both estimators are judged against.
func allPairDistances(a, b []distjoin.Point) []float64 {
	ds := make([]float64, 0, len(a)*len(b))
	for _, p := range a {
		for _, q := range b {
			ds = append(ds, distjoin.Euclidean.Dist(p, q))
		}
	}
	sort.Float64s(ds)
	return ds
}

func withinFactor(est, truth, factor float64) bool {
	return est >= truth/factor && est <= truth*factor
}

func TestEstimatorAccuracyProperty(t *testing.T) {
	workloads := []accWorkload{
		uniformWorkload(101, 600),
		uniformWorkload(202, 600),
		uniformWorkload(303, 800),
		tigerWorkload(404, 500),
		tigerWorkload(505, 700),
	}
	cost := distjoin.CostOptions{Sample: 400, Seed: 99}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ia, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, w.a)
			if err != nil {
				t.Fatal(err)
			}
			defer ia.Close()
			ib, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, w.b)
			if err != nil {
				t.Fatal(err)
			}
			defer ib.Close()
			ds := allPairDistances(w.a, w.b)

			// EstimatePairsWithin at the 0.1%, 1% and 10% truth quantiles:
			// each must land within the workload's documented factor.
			for _, frac := range []float64{0.001, 0.01, 0.1} {
				idx := int(frac * float64(len(ds)))
				d := ds[idx]
				truth := float64(sort.SearchFloat64s(ds, math.Nextafter(d, math.Inf(1))))
				est, err := distjoin.EstimatePairsWithin(ia, ib, d, cost)
				if err != nil {
					t.Fatal(err)
				}
				if !withinFactor(est, truth, w.factor) {
					t.Errorf("pairs within %.3g: estimate %.0f vs truth %.0f (want within %.1fx)",
						d, est, truth, w.factor)
				}
			}

			// EstimateDistanceForK across three orders of magnitude of k.
			for _, k := range []int{100, 1_000, 10_000} {
				if k > len(ds) {
					continue
				}
				truth := ds[k-1]
				est, err := distjoin.EstimateDistanceForK(ia, ib, k, cost)
				if err != nil {
					t.Fatal(err)
				}
				if !withinFactor(est, truth, w.factor) {
					t.Errorf("distance for k=%d: estimate %.4g vs truth %.4g (want within %.1fx)",
						k, est, truth, w.factor)
				}
			}
		})
	}
}

// TestProfileExplainAgreesWithStats runs a real join under a QueryTracer and
// checks the two halves of the -explain document against the run's own Stats
// counters: the trace's resources must match the snapshot on every field
// they share, and the EXPLAIN actual columns must be the observed values the
// counters report.
func TestProfileExplainAgreesWithStats(t *testing.T) {
	w := tigerWorkload(606, 400)
	ia, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, w.a)
	if err != nil {
		t.Fatal(err)
	}
	defer ia.Close()
	ib, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, w.b)
	if err != nil {
		t.Fatal(err)
	}
	defer ib.Close()

	const maxDist = 40.0
	c := &distjoin.Stats{}
	ia.SetCounters(c)
	ib.SetCounters(c)
	tracer := distjoin.NewQueryTracer(distjoin.QueryTraceConfig{})
	j, err := distjoin.DistanceJoinIndexes(ia.AsSpatialIndex(), ib.AsSpatialIndex(), distjoin.Options{MaxDist: maxDist, Counters: c, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	var nPairs int64
	var lastDist float64
	for {
		p, ok, err := j.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		nPairs++
		lastDist = p.Dist
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if nPairs == 0 {
		t.Fatal("no pairs within maxDist; widen the bound")
	}
	// Snapshot before the estimators run: their sampling scans read index
	// nodes through the same pools.
	snap := c.Snapshot()
	rows, err := distjoin.BuildExplain(ia, ib, distjoin.ExplainConfig{
		K:           int(nPairs),
		KthDist:     lastDist,
		MaxDist:     maxDist,
		PairsWithin: nPairs,
	})
	if err != nil {
		t.Fatal(err)
	}

	got := tracer.Traces()[0].Resources
	want := distjoin.QueryResources{
		Pairs:          snap.PairsReported,
		DistCalcs:      snap.DistCalcs,
		NodeDistCalcs:  snap.NodeDistCalcs,
		NodeIO:         snap.NodeReads + snap.NodeWrites,
		BufferHits:     snap.BufferHits,
		QueueInserts:   snap.QueueInserts,
		QueuePops:      snap.QueuePops,
		QueueDiskPairs: snap.QueueDiskPairs,
		IOFaults:       snap.IOFaults,
		IORetries:      snap.IORetries,
		BatchPruned:    snap.BatchPruned,
		Filtered:       snap.Filtered,
		PeakQueueDepth: snap.MaxQueueSize,
	}
	if got != want {
		t.Errorf("trace resources disagree with Stats:\ntrace %+v\nstats %+v", got, want)
	}
	if got.Pairs != nPairs || got.NodeIO+got.BufferHits == 0 {
		t.Errorf("resources %+v: drained %d pairs, and the run must have touched index nodes", got, nPairs)
	}

	byMetric := map[string]distjoin.ExplainRow{}
	for _, r := range rows {
		byMetric[r.Metric] = r
	}
	pw, ok := byMetric["pairs_within_d"]
	if !ok {
		t.Fatal("no pairs_within_d row")
	}
	if pw.Actual != float64(snap.PairsReported) {
		t.Errorf("pairs_within_d actual %g, counters reported %d", pw.Actual, snap.PairsReported)
	}
	dk, ok := byMetric["distance_for_k"]
	if !ok {
		t.Fatal("no distance_for_k row")
	}
	if dk.Actual != lastDist {
		t.Errorf("distance_for_k actual %g, observed k-th distance %g", dk.Actual, lastDist)
	}
	for _, r := range rows {
		if r.Actual == 0 {
			continue
		}
		want := (r.Predicted - r.Actual) / r.Actual
		if math.Abs(r.RelErr-want) > 1e-12 {
			t.Errorf("%s: rel_err %g, want %g", r.Metric, r.RelErr, want)
		}
	}
	// The estimators feeding the EXPLAIN rows obey the same documented
	// bound the property test asserts.
	if !withinFactor(pw.Predicted, pw.Actual, skewedFactor) {
		t.Errorf("pairs_within_d prediction %g vs actual %g outside %.1fx", pw.Predicted, pw.Actual, skewedFactor)
	}
}
