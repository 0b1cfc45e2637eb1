package distjoin

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
)

func TestJoinWithWindows(t *testing.T) {
	a := clusteredPoints(51, 200)
	b := clusteredPoints(52, 200)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	w1 := geom.R(geom.Pt(100, 100), geom.Pt(600, 600))
	w2 := geom.R(geom.Pt(0, 0), geom.Pt(500, 900))
	j, err := NewJoinIndexes(ta, tb, Options{Window1: &w1, Window2: &w2})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainJoin(t, j, 0)

	// Brute force over the restricted sets.
	var want []bruteResult
	for i, p := range a {
		if !w1.ContainsPoint(p) {
			continue
		}
		for k, q := range b {
			if !w2.ContainsPoint(q) {
				continue
			}
			want = append(want, bruteResult{i: i, j: k, d: geom.Euclidean.Dist(p, q)})
		}
	}
	sort.Slice(want, func(x, y int) bool { return want[x].d < want[y].d })
	if len(got) != len(want) {
		t.Fatalf("windowed join: %d pairs, want %d", len(got), len(want))
	}
	assertDistancesMatch(t, got, want)
	for _, p := range got {
		if !w1.ContainsPoint(a[p.Obj1]) || !w2.ContainsPoint(b[p.Obj2]) {
			t.Fatalf("pair (%d, %d) escapes its window", p.Obj1, p.Obj2)
		}
	}
}

func TestJoinWithSelectPredicates(t *testing.T) {
	a := clusteredPoints(53, 150)
	b := clusteredPoints(54, 150)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	sel1 := func(id rtree.ObjID) bool { return id%3 == 0 }
	sel2 := func(id rtree.ObjID) bool { return id%2 == 1 }
	j, err := NewJoinIndexes(ta, tb, Options{Select1: sel1, Select2: sel2})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainJoin(t, j, 0)
	var want []bruteResult
	for i, p := range a {
		if i%3 != 0 {
			continue
		}
		for k, q := range b {
			if k%2 != 1 {
				continue
			}
			want = append(want, bruteResult{i: i, j: k, d: geom.Euclidean.Dist(p, q)})
		}
	}
	sort.Slice(want, func(x, y int) bool { return want[x].d < want[y].d })
	if len(got) != len(want) {
		t.Fatalf("selective join: %d pairs, want %d", len(got), len(want))
	}
	assertDistancesMatch(t, got, want)
	for _, p := range got {
		if p.Obj1%3 != 0 || p.Obj2%2 != 1 {
			t.Fatalf("pair (%d, %d) violates predicates", p.Obj1, p.Obj2)
		}
	}
}

func TestSemiJoinWithWindowAndSelect(t *testing.T) {
	a := clusteredPoints(55, 150)
	b := clusteredPoints(56, 200)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	w2 := geom.R(geom.Pt(0, 0), geom.Pt(600, 600))
	sel1 := func(id rtree.ObjID) bool { return id%2 == 0 }
	s, err := NewSemiJoinIndexes(ta, tb, FilterGlobalAll, Options{Select1: sel1, Window2: &w2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := drainJoin(t, s, 0)
	// Brute force: even-id objects of a, nearest among b ∩ window.
	var want []float64
	for i, p := range a {
		if i%2 != 0 {
			continue
		}
		best := math.Inf(1)
		for _, q := range b {
			if !w2.ContainsPoint(q) {
				continue
			}
			if d := geom.Euclidean.Dist(p, q); d < best {
				best = d
			}
		}
		if !math.IsInf(best, 1) {
			want = append(want, best)
		}
	}
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("restricted semi-join: %d pairs, want %d", len(got), len(want))
	}
	for i, p := range got {
		if math.Abs(p.Dist-want[i]) > 1e-9 {
			t.Fatalf("pair %d: %g want %g", i, p.Dist, want[i])
		}
	}
}

// TestIntersectionOrdering exercises the §2.2.5 secondary-ordering mode on
// rectangle objects: only intersecting pairs, ordered by distance of the
// intersection from an anchor point.
func TestIntersectionOrdering(t *testing.T) {
	rnd := rand.New(rand.NewSource(57))
	mkRects := func(n int, seed int64) []geom.Rect {
		r := rand.New(rand.NewSource(seed))
		out := make([]geom.Rect, n)
		for i := range out {
			x, y := r.Float64()*500, r.Float64()*500
			out[i] = geom.R(geom.Pt(x, y), geom.Pt(x+5+r.Float64()*30, y+5+r.Float64()*30))
		}
		return out
	}
	ra, rb := mkRects(120, 58), mkRects(120, 59)
	mkTree := func(rects []geom.Rect) *rtree.Tree {
		items := make([]rtree.Item, len(rects))
		for i, r := range rects {
			items[i] = rtree.Item{Rect: r, Obj: rtree.ObjID(i)}
		}
		tr, err := rtree.BulkLoad(rtree.Config{Dims: 2, PageSize: 512, BufferFrames: 32}, items)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	ta, tb := mkTree(ra), mkTree(rb)
	anchor := geom.Pt(rnd.Float64()*500, rnd.Float64()*500)

	j, err := NewJoinIndexes(WrapRTree(ta), WrapRTree(tb), Options{OrderIntersectionsFrom: anchor})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainJoin(t, j, 0)

	// Brute force: intersecting pairs keyed by anchor distance of the
	// intersection.
	var want []float64
	for _, p := range ra {
		for _, q := range rb {
			if x, ok := p.Intersection(q); ok {
				want = append(want, geom.Euclidean.MinDistPR(anchor, x))
			}
		}
	}
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("intersection join: %d pairs, want %d", len(got), len(want))
	}
	for i, p := range got {
		if math.Abs(p.Dist-want[i]) > 1e-9 {
			t.Fatalf("pair %d: key %g, want %g", i, p.Dist, want[i])
		}
		// The reported pair must genuinely intersect.
		if !ra[p.Obj1].Intersects(rb[p.Obj2]) {
			t.Fatalf("pair (%d, %d) does not intersect", p.Obj1, p.Obj2)
		}
	}
}

func TestIntersectionOrderingValidation(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(60, 10)))
	tb := WrapRTree(buildTree(t, clusteredPoints(61, 10)))
	anchor := geom.Pt(0, 0)
	bad := []Options{
		{OrderIntersectionsFrom: anchor, Reverse: true},
		{OrderIntersectionsFrom: anchor, MaxPairs: 5},
		{OrderIntersectionsFrom: anchor, MaxDist: 10},
		{OrderIntersectionsFrom: geom.Pt(1, 2, 3)},
	}
	for i, o := range bad {
		if _, err := NewJoinIndexes(ta, tb, o); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewSemiJoinIndexes(ta, tb, FilterInside2, Options{OrderIntersectionsFrom: anchor}); err == nil {
		t.Error("semi-join with intersection ordering accepted")
	}
}

func TestWindowValidation(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(62, 10)))
	tb := WrapRTree(buildTree(t, clusteredPoints(63, 10)))
	bad := geom.Rect{Lo: geom.Pt(1, 1), Hi: geom.Pt(0, 0)}
	if _, err := NewJoinIndexes(ta, tb, Options{Window1: &bad}); err == nil {
		t.Error("invalid window accepted")
	}
	wrongDim := geom.R(geom.Pt(0), geom.Pt(1))
	if _, err := NewJoinIndexes(ta, tb, Options{Window2: &wrongDim}); err == nil {
		t.Error("wrong-dimension window accepted")
	}
}

func TestWindowExcludesEverything(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(64, 50)))
	tb := WrapRTree(buildTree(t, clusteredPoints(65, 50)))
	w := geom.R(geom.Pt(-100, -100), geom.Pt(-50, -50))
	j, err := NewJoinIndexes(ta, tb, Options{Window1: &w})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, ok, _ := j.Next(); ok {
		t.Fatal("empty window produced a pair")
	}
}

// TestJoinRestartWithSelection forces the §2.2.4 restart on a PLAIN join:
// attribute selection makes the minimum-fan-out counting overcount, the
// estimation over-tightens, and the engine must transparently restart and
// still deliver exactly MaxPairs correct results. It also pins the other
// side of the rule: a run that falls short of MaxPairs because the caller's
// own range holds fewer pairs, with the estimator's bound never moved, ends
// without a restart.
func TestJoinRestartWithSelection(t *testing.T) {
	a := clusteredPoints(81, 150)
	b := clusteredPoints(82, 150)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	// Keep 1 in 25 objects: subtree counts overstate qualifying pairs 625x.
	sel := func(id rtree.ObjID) bool { return id%25 == 0 }
	var want []bruteResult
	for i, p := range a {
		if i%25 != 0 {
			continue
		}
		for k, q := range b {
			if k%25 != 0 {
				continue
			}
			want = append(want, bruteResult{i: i, j: k, d: geom.Euclidean.Dist(p, q)})
		}
	}
	sort.Slice(want, func(x, y int) bool { return want[x].d < want[y].d })

	restartSeen := false
	for _, k := range []int{1, 5, 20, len(want)} {
		j, err := NewJoinIndexes(ta, tb, Options{Select1: sel, Select2: sel, MaxPairs: k})
		if err != nil {
			t.Fatal(err)
		}
		got := drainJoin(t, j, 0)
		if j.Restarted() {
			restartSeen = true
		}
		j.Close()
		if len(got) != k {
			t.Fatalf("MaxPairs=%d delivered %d", k, len(got))
		}
		for i, p := range got {
			if math.Abs(p.Dist-want[i].d) > 1e-9 {
				t.Fatalf("MaxPairs=%d pair %d: %g want %g", k, i, p.Dist, want[i].d)
			}
		}
	}
	if !restartSeen {
		t.Fatal("no run restarted: the over-tightened bound this test exists for no longer occurs")
	}

	// Fewer than K pairs within the caller's own bounds: a restart would
	// replay the same sequence.
	ta, tb = WrapRTree(buildTree(t, clusteredPoints(81, 300))), WrapRTree(buildTree(t, clusteredPoints(82, 300)))
	for name, o := range map[string]Options{
		"max-dist":         {MaxDist: 2},
		"reverse-min-dist": {Reverse: true, MinDist: 1e9},
	} {
		j, err := NewJoinIndexes(ta, tb, o)
		if err != nil {
			t.Fatal(err)
		}
		want := drainJoin(t, j, 0)
		j.Close()
		o.MaxPairs = 100_000
		j, err = NewJoinIndexes(ta, tb, o)
		if err != nil {
			t.Fatal(err)
		}
		got := drainJoin(t, j, 0)
		restarted := j.Restarted()
		j.Close()
		if restarted {
			t.Errorf("%s: restarted with the estimator's bound unmoved", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d pairs, want the %d of the unbounded run", name, len(got), len(want))
		}
	}
}
