package costmodel

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"distjoin/internal/distjoin"
	"distjoin/internal/geom"
	"distjoin/internal/rtree"
)

func buildTree(t testing.TB, pts []geom.Point) *rtree.Tree {
	t.Helper()
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{Rect: p.Rect(), Obj: rtree.ObjID(i)}
	}
	tr, err := rtree.BulkLoad(rtree.Config{Dims: 2, PageSize: 512, BufferFrames: 32}, items)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func uniformPts(seed int64, n int) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rnd.Float64()*1000, rnd.Float64()*1000)
	}
	return pts
}

func TestPairsWithinAccuracy(t *testing.T) {
	a, b := uniformPts(1, 800), uniformPts(2, 900)
	ta, tb := buildTree(t, a), buildTree(t, b)
	for _, d := range []float64{25, 60, 150} {
		est, err := PairsWithin(ta, tb, d, Options{Sample: 400, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		truth := 0.0
		for _, p := range a {
			for _, q := range b {
				if geom.Euclidean.Dist(p, q) <= d {
					truth++
				}
			}
		}
		if truth == 0 {
			continue
		}
		ratio := est / truth
		if ratio < 0.5 || ratio > 2.0 {
			t.Fatalf("d=%g: estimate %.0f vs truth %.0f (ratio %.2f)", d, est, truth, ratio)
		}
	}
}

func TestPairsWithinEdgeCases(t *testing.T) {
	empty := buildTree(t, nil)
	full := buildTree(t, uniformPts(3, 50))
	if est, err := PairsWithin(empty, full, 10, Options{}); err != nil || est != 0 {
		t.Fatalf("empty input: %g %v", est, err)
	}
	if _, err := PairsWithin(full, full, -1, Options{}); err == nil {
		t.Fatal("negative distance accepted")
	}
}

func TestDistanceForKConservative(t *testing.T) {
	a, b := uniformPts(4, 600), uniformPts(5, 600)
	ta, tb := buildTree(t, a), buildTree(t, b)
	// True k-th distances by brute force.
	ds := make([]float64, 0, len(a)*len(b))
	for _, p := range a {
		for _, q := range b {
			ds = append(ds, geom.Euclidean.Dist(p, q))
		}
	}
	sort.Float64s(ds)
	for _, k := range []int{100, 1000, 10000} {
		est, err := DistanceForK(ta, tb, k, Options{Sample: 400, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		truth := ds[k-1]
		// Sampling floors small quantiles, so the estimate should not be
		// wildly below the truth and not more than ~5x above for uniform
		// data.
		if est < truth/3 || est > truth*5 {
			t.Fatalf("k=%d: estimate %.2f vs truth %.2f", k, est, truth)
		}
	}
}

func TestDistanceForKValidation(t *testing.T) {
	tr := buildTree(t, uniformPts(6, 10))
	if _, err := DistanceForK(tr, tr, 0, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	empty := buildTree(t, nil)
	if _, err := DistanceForK(empty, tr, 1, Options{}); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSelectivity(t *testing.T) {
	tr := buildTree(t, uniformPts(7, 1000))
	est, err := Selectivity(tr, func(id rtree.ObjID) bool { return id%4 == 0 }, Options{Sample: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-0.25) > 0.1 {
		t.Fatalf("selectivity estimate %.3f, want ≈0.25", est)
	}
	empty := buildTree(t, nil)
	if est, err := Selectivity(empty, func(rtree.ObjID) bool { return true }, Options{}); err != nil || est != 0 {
		t.Fatalf("empty selectivity: %g %v", est, err)
	}
}

// TestSuggestMaxDistDrivesJoin is the end-to-end use: a suggested cap keeps
// the join correct while collapsing its queue (Figure 7's effect, obtained
// without knowing the true k-th distance).
func TestSuggestMaxDistDrivesJoin(t *testing.T) {
	a, b := uniformPts(8, 1000), uniformPts(9, 1000)
	ta, tb := buildTree(t, a), buildTree(t, b)
	const k = 500
	cap_, err := SuggestMaxDist(ta, tb, k, 2, Options{Sample: 400, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(cap_, 1) {
		t.Fatal("no cap suggested for well-behaved data")
	}

	run := func(maxDist float64) (dists []float64, queue int) {
		j, err := distjoin.NewJoinIndexes(distjoin.WrapRTree(ta), distjoin.WrapRTree(tb), distjoin.Options{MaxDist: maxDist})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		for len(dists) < k {
			p, ok, err := j.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			dists = append(dists, p.Dist)
			if q := j.QueueLen(); q > queue {
				queue = q
			}
		}
		return dists, queue
	}
	capped, cappedQueue := run(cap_)
	uncapped, uncappedQueue := run(0) // 0 = unlimited
	if len(capped) != k || len(uncapped) != k {
		t.Fatalf("runs returned %d and %d pairs", len(capped), len(uncapped))
	}
	for i := range capped {
		if capped[i] != uncapped[i] {
			t.Fatalf("capped join changed result at %d: %g vs %g", i, capped[i], uncapped[i])
		}
	}
	if cappedQueue >= uncappedQueue {
		t.Fatalf("cap did not shrink the queue: %d vs %d", cappedQueue, uncappedQueue)
	}
}

func TestSuggestMaxDistValidation(t *testing.T) {
	tr := buildTree(t, uniformPts(10, 20))
	if _, err := SuggestMaxDist(tr, tr, 5, 0.5, Options{}); err == nil {
		t.Fatal("safety < 1 accepted")
	}
	// Coincident data: suggestion degenerates to +Inf rather than 0.
	same := make([]geom.Point, 30)
	for i := range same {
		same[i] = geom.Pt(5, 5)
	}
	ts := buildTree(t, same)
	d, err := SuggestMaxDist(ts, ts, 3, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d, 1) {
		t.Fatalf("degenerate suggestion %g, want +Inf", d)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelErr(110,100) = %g", got)
	}
	if got := RelErr(90, 100); math.Abs(got+0.1) > 1e-12 {
		t.Fatalf("RelErr(90,100) = %g", got)
	}
	if got := RelErr(0, 0); got != 0 {
		t.Fatalf("RelErr(0,0) = %g", got)
	}
	if got := RelErr(5, 0); got != math.MaxFloat64 {
		t.Fatalf("RelErr(5,0) = %g", got)
	}
	if got := RelErr(math.Inf(1), 2); got != math.MaxFloat64 {
		t.Fatalf("RelErr(inf,2) = %g", got)
	}
}
