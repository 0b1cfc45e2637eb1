package distjoin

import (
	"math"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
)

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
	cur := est.observe(mk(1, 2, 5), 100, 0, inf, 4)
	if !math.IsInf(cur, 1) {
		t.Fatalf("4 < 10 results must not tighten; got %g", cur)
	}
	// Another guaranteeing 8: total 12 > 10 → evict the larger dmax (100),
	// tightening to 100.
	cur = est.observe(mk(3, 4, 6), 60, 0, cur, 8)
	if cur != 100 {
		t.Fatalf("expected tightening to 100, got %g", cur)
	}
	if est.total != 8 {
		t.Fatalf("total = %d, want 8", est.total)
	}
	// Ineligible pair (dmax beyond current bound) is ignored.
	cur2 := est.observe(mk(5, 6, 7), 150, 0, cur, 4)
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
	mk := func(r1 uint64, key, dmax float64) (qpair, float64) {
		p := qpair{key: key, i1: mkItem(kindNode, 1, r1), i2: mkItem(kindNode, 1, 99)}
		return p, dmax
	}
	p1, d1 := mk(1, 5, 100)
	cur := est.observe(p1, d1, 0, inf, 3)
	// Same first item with larger dmax: ignored.
	p2, d2 := mk(1, 5, 200)
	cur = est.observe(p2, d2, 0, cur, 3)
	if est.total != 3 {
		t.Fatalf("duplicate first item admitted: total %d", est.total)
	}
	// Same first item with smaller dmax: replaces.
	p3, d3 := mk(1, 5, 50)
	cur = est.observe(p3, d3, 0, cur, 3)
	if est.total != 3 {
		t.Fatalf("replacement changed total: %d", est.total)
	}
	if n, ok := est.byFirst[firstKeyOf(p3.i1)]; !ok || est.heap.Value(n).dmax != 50 {
		t.Fatal("replacement did not take effect")
	}
	// A processed node may not enter M.
	est.processed[7] = true
	p4, d4 := mk(7, 5, 80)
	cur = est.observe(p4, d4, 0, cur, 3)
	if est.total != 3 {
		t.Fatal("processed node entered M")
	}
	_ = cur
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
