package distjoin

import (
	"math"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
)

// testEngine is the engine of a join built the way every operator builds
// one (newJoin), for tests that drive the engine or its queue directly. The
// test fails when the options are refused. Nothing closes the query's meter,
// so the run lands no query trace.
func testEngine(t testing.TB, t1, t2 SpatialIndex, opts Options, semi *semiState) *engine {
	t.Helper()
	j, err := newJoin(t1, t2, opts, semi)
	if err != nil {
		t.Fatal(err)
	}
	return j.e
}

// pairLess is the queue ordering the block queue keeps, on pairs: ascending
// key (descending for reverse), then the tie order. The tests hold the queue
// to it.
func pairLess(depthFirst, reverse bool) func(a, b qpair) bool {
	return func(a, b qpair) bool {
		if a.key != b.key {
			return a.key < b.key != reverse
		}
		return a.tieOrder().before(b.tieOrder(), depthFirst)
	}
}

func mkItem(kind itemKind, level int8, ref uint64) item {
	return newItem(kind, level, ref, geom.Pt(0, 0).Rect())
}

func TestPairLessOrdering(t *testing.T) {
	objPair := qpair{key: 5, i1: mkItem(kindObj, -1, 1), i2: mkItem(kindObj, -1, 2)}
	deepNodes := qpair{key: 5, i1: mkItem(kindNode, 0, 3), i2: mkItem(kindNode, 0, 4)}
	shallowNodes := qpair{key: 5, i1: mkItem(kindNode, 2, 5), i2: mkItem(kindNode, 2, 6)}
	farObj := qpair{key: 9, i1: mkItem(kindObj, -1, 7), i2: mkItem(kindObj, -1, 8)}

	df := pairLess(true, false)
	// Distance dominates everything.
	if !df(objPair, farObj) || df(farObj, deepNodes) {
		t.Fatal("distance ordering broken")
	}
	// At equal distance, object pairs outrank node pairs.
	if !df(objPair, deepNodes) || !df(objPair, shallowNodes) {
		t.Fatal("object pairs must come first at equal distance")
	}
	// Depth-first: deeper node pairs first.
	if !df(deepNodes, shallowNodes) {
		t.Fatal("depth-first must prefer deeper nodes")
	}
	// Breadth-first: shallower node pairs first, objects still first.
	bf := pairLess(false, false)
	if !bf(shallowNodes, deepNodes) || !bf(objPair, shallowNodes) {
		t.Fatal("breadth-first ordering broken")
	}
	// Reverse: larger keys first.
	rev := pairLess(true, true)
	if !rev(farObj, objPair) {
		t.Fatal("reverse ordering broken")
	}
	// Determinism tie-break on refs.
	twin := qpair{key: 5, i1: mkItem(kindObj, -1, 1), i2: mkItem(kindObj, -1, 9)}
	if df(objPair, twin) == df(twin, objPair) {
		t.Fatal("ref tie-break not antisymmetric")
	}
}

func TestEstimatorJoinMode(t *testing.T) {
	est := newEstimator(10, false)
	mk := func(r1, r2 uint64, key float64) qpair {
		return qpair{key: key, i1: mkItem(kindNode, 1, r1), i2: mkItem(kindNode, 1, r2)}
	}
	inf := math.Inf(1)
	// A pair guaranteeing 4 results within dmax 100.
	cur := est.observe(mk(1, 2, 5), 5, 100, 0, inf, 4)
	if !math.IsInf(cur, 1) {
		t.Fatalf("4 < 10 results must not tighten; got %g", cur)
	}
	// Another guaranteeing 8: total 12 > 10 → evict the larger dmax (100),
	// tightening to 100.
	cur = est.observe(mk(3, 4, 6), 6, 60, 0, cur, 8)
	if cur != 100 {
		t.Fatalf("expected tightening to 100, got %g", cur)
	}
	if est.total != 8 {
		t.Fatalf("total = %d, want 8", est.total)
	}
	// Ineligible pair (dmax beyond current bound) is ignored.
	cur2 := est.observe(mk(5, 6, 7), 7, 150, 0, cur, 4)
	if cur2 != cur || est.total != 8 {
		t.Fatal("ineligible pair entered M")
	}
	// Popping the tracked pair removes it.
	est.onPop(mk(3, 4, 6))
	if est.total != 0 {
		t.Fatalf("total after pop = %d", est.total)
	}
}

func TestEstimatorSemiModeUniqueFirst(t *testing.T) {
	est := newEstimator(5, true)
	inf := math.Inf(1)
	mk := func(r1, r2 uint64) qpair {
		return qpair{key: 5, i1: mkItem(kindNode, 1, r1), i2: mkItem(kindNode, 1, r2)}
	}
	cur := est.observe(mk(1, 99), 5, 100, 0, inf, 3)
	// Same first item with larger dmax: ignored.
	cur = est.observe(mk(1, 98), 5, 200, 0, cur, 3)
	if est.total != 3 {
		t.Fatalf("duplicate first item admitted: total %d", est.total)
	}
	// Same first item with smaller dmax: replaces.
	cur = est.observe(mk(1, 97), 5, 50, 0, cur, 3)
	if est.total != 3 || len(est.index) != 1 {
		t.Fatalf("replacement changed total: %d (%d entries)", est.total, len(est.index))
	}
	if h, ok := est.index[mKey{k1: kindNode, r1: 1}]; !ok || est.heap.Value(h).dmax != 50 {
		t.Fatal("replacement did not take effect")
	}
	// Popping any pair with the first node, here not the one in M, evicts
	// the node's entry: the node is processed from then on, and its
	// children's entries would count its objects a second time.
	est.onPop(mk(1, 99))
	if est.total != 0 || !est.processed[1] {
		t.Fatalf("pop of a sibling pair: total %d, processed %v", est.total, est.processed[1])
	}
	// A processed node may not enter M.
	est.processed[7] = true
	cur = est.observe(mk(7, 99), 5, 80, 0, cur, 3)
	if est.total != 0 {
		t.Fatal("processed node entered M")
	}
	// An OBR and the object fetched for it are one first item: reporting
	// the object removes the OBR pair from M.
	obr := qpair{key: 5, i1: mkItem(kindOBR, -1, 4), i2: mkItem(kindOBR, -1, 8)}
	cur = est.observe(obr, 5, 60, 0, cur, 1)
	if est.total != 1 {
		t.Fatalf("OBR pair not admitted: total %d", est.total)
	}
	// A first object's entry survives the pop of another pair with it: the
	// partner within its d_max is still to come.
	est.onPop(qpair{key: 5, i1: mkItem(kindOBR, -1, 4), i2: mkItem(kindOBR, -1, 9)})
	if est.total != 1 {
		t.Fatalf("pop of a sibling OBR pair evicted the object's entry: total %d", est.total)
	}
	est.onReport(qpair{key: 5, i1: mkItem(kindObj, -1, 4), i2: mkItem(kindObj, -1, 8)})
	if est.total != 0 || est.remaining != 4 {
		t.Fatalf("report of the fetched object: total %d, remaining %d", est.total, est.remaining)
	}
	_ = cur
}

// TestEstimatorReverse runs the farthest-first estimation of §2.2.5 the way
// the engine does: every distance negated. The bound it returns, negated
// back, is a lower bound on the K-th farthest distance.
func TestEstimatorReverse(t *testing.T) {
	est := newEstimator(10, false)
	mk := func(r1, r2 uint64, dmax float64) qpair {
		return qpair{key: dmax, i1: mkItem(kindNode, 1, r1), i2: mkItem(kindNode, 1, r2)}
	}
	inf := math.Inf(1)
	dmin := 0.0
	observe := func(p qpair, d, dmax float64, count int) {
		dmin = -est.observe(p, -dmax, -d, -inf, -dmin, count)
	}
	// 4 pairs at distance [20, 90]: fewer than 10, no bound.
	observe(mk(1, 2, 90), 20, 90, 4)
	if dmin != 0 || est.total != 4 {
		t.Fatalf("4 < 10 results must not raise the bound: dmin %g, total %d", dmin, est.total)
	}
	// 8 pairs at [30, 70]: 12 > 10 evicts the pair with the smallest
	// minimum distance (20) and raises the bound to it.
	observe(mk(3, 4, 70), 30, 70, 8)
	if dmin != 20 || est.total != 8 {
		t.Fatalf("expected bound 20 with 8 in M, got %g with %d", dmin, est.total)
	}
	// A pair whose minimum distance lies below the bound may produce pairs
	// under it, so it is ineligible: M and the bound stay.
	observe(mk(5, 6, 95), 10, 95, 4)
	if dmin != 20 || est.total != 8 || len(est.index) != 1 {
		t.Fatalf("ineligible pair entered M: dmin %g, total %d", dmin, est.total)
	}
	// 5 more at [40, 80]: 13 > 10 evicts the [30, 70] pair, bound 30.
	observe(mk(7, 8, 80), 40, 80, 5)
	if dmin != 30 || est.total != 5 {
		t.Fatalf("expected bound 30 with 5 in M, got %g with %d", dmin, est.total)
	}
	// Popping the tracked pair removes it.
	est.onPop(mk(7, 8, 80))
	if est.total != 0 || len(est.index) != 0 {
		t.Fatalf("total after pop = %d", est.total)
	}
}

func TestEngineAdmitWindowAndSelect(t *testing.T) {
	w := geom.R(geom.Pt(0, 0), geom.Pt(10, 10))
	e := &engine{opts: Options{
		Metric:  geom.Euclidean,
		Window1: &w,
		Select1: func(id rtree.ObjID) bool { return id%2 == 0 },
	}}
	inWindow := newItem(kindObj, 0, 2, geom.Pt(5, 5).Rect())
	outWindow := newItem(kindObj, 0, 2, geom.Pt(20, 5).Rect())
	oddID := newItem(kindObj, 0, 3, geom.Pt(5, 5).Rect())
	nodeTouching := newItem(kindNode, 0, 0, geom.R(geom.Pt(8, 8), geom.Pt(30, 30)))
	nodeOutside := newItem(kindNode, 0, 0, geom.R(geom.Pt(20, 20), geom.Pt(30, 30)))

	admit := func(it item, side int) bool {
		if side == 2 {
			return admitted(e.opts.Window2, e.opts.Select2, it.isNode(), it.ref, it.rect())
		}
		return admitted(e.opts.Window1, e.opts.Select1, it.isNode(), it.ref, it.rect())
	}
	if !admit(inWindow, 1) {
		t.Fatal("in-window even object rejected")
	}
	if admit(outWindow, 1) {
		t.Fatal("out-of-window object admitted")
	}
	if admit(oddID, 1) {
		t.Fatal("odd-id object admitted")
	}
	if !admit(nodeTouching, 1) {
		t.Fatal("window-intersecting node rejected")
	}
	if admit(nodeOutside, 1) {
		t.Fatal("window-disjoint node admitted")
	}
	// Side 2 has no restrictions here.
	if !admit(outWindow, 2) || !admit(oddID, 2) {
		t.Fatal("side-2 items wrongly restricted")
	}
}

func TestMinOverFacesMaxDistTightness(t *testing.T) {
	m := geom.Euclidean
	region := geom.R(geom.Pt(0, 0), geom.Pt(10, 10))
	// Point obr: fast path equals MaxDist to the point.
	pt := geom.Pt(20, 5).Rect()
	if got, want := minOverFacesMaxDist(m, region, pt), m.MaxDist(region, pt); got != want {
		t.Fatalf("point obr: %g != %g", got, want)
	}
	// Extended obr: face bound is no larger than the full MaxDist and no
	// smaller than MinDist.
	obr := geom.R(geom.Pt(20, 0), geom.Pt(30, 10))
	got := minOverFacesMaxDist(m, region, obr)
	if got > m.MaxDist(region, obr) || got < m.MinDist(region, obr) {
		t.Fatalf("face bound %g outside [%g, %g]", got, m.MinDist(region, obr), m.MaxDist(region, obr))
	}
}
