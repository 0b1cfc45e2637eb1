package distjoin

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
	"distjoin/internal/stats"
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

// TestMaxPairsExactDistWithSelection bounds a PLAIN join under attribute
// selections by MaxPairs, with an ExactDist hook that reports each pair
// farther than its bounding rectangles' MINMAXDIST, the d_max §2.2.4 counts
// on. No rectangle bounds what the hook returns, so no estimator runs, and
// the run must deliver exactly the MaxPairs nearest pairs. A run that falls
// short of MaxPairs because the caller's own range holds fewer pairs must
// deliver all of them.
func TestMaxPairsExactDistWithSelection(t *testing.T) {
	a := clusteredPoints(81, 150)
	b := clusteredPoints(82, 150)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	sel := func(id rtree.ObjID) bool { return id%3 != 0 }
	// Points are their own bounding rectangles, so MINMAXDIST is the point
	// distance and any positive margin lies beyond it.
	exact := func(o1, o2 rtree.ObjID) float64 {
		return geom.Euclidean.Dist(a[o1], b[o2]) + float64((7*o1+13*o2)%5)
	}
	var want []bruteResult
	for i := range a {
		for k := range b {
			if i%3 != 0 && k%3 != 0 {
				want = append(want, bruteResult{i: i, j: k, d: exact(rtree.ObjID(i), rtree.ObjID(k))})
			}
		}
	}
	sort.Slice(want, func(x, y int) bool { return want[x].d < want[y].d })

	for _, k := range []int{1, 5, 20, len(want)} {
		j, err := NewJoinIndexes(ta, tb, Options{
			Select1: sel, Select2: sel, MaxPairs: k,
			ExactDist: func(o1, o2 rtree.ObjID) (float64, error) { return exact(o1, o2), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		got := drainJoin(t, j, 0)
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

	// Fewer than K pairs within the caller's own bounds.
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
		j.Close()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d pairs, want the %d of the unbounded run", name, len(got), len(want))
		}
	}
}

// TestSubtreeCountRule pins what the §2.2.4 estimator counts for a pair: a
// lower bound on the pairs the query can report from it. A node on a side
// with a predicate, or whose region that side's window does not contain,
// guarantees nothing; so, in semi mode, does a pair whose second item
// guarantees nothing; equal-id omission takes min(c1, c2) off a pair with a
// node; and a pair that guarantees nothing stays out of M.
func TestSubtreeCountRule(t *testing.T) {
	ta, tb := WrapRTree(buildTree(t, clusteredPoints(91, 300))), WrapRTree(buildTree(t, clusteredPoints(92, 300)))
	child := func(tr SpatialIndex, i int) (node, obj item) {
		root, err := tr.Root()
		if err != nil {
			t.Fatal(err)
		}
		n, err := tr.Node(root.Ref)
		if err != nil {
			t.Fatal(err)
		}
		node = childItem(n, i, len(n.Coords)/len(n.Refs), kindObj)
		for !n.Leaf {
			if n, err = tr.Node(n.Refs[0]); err != nil {
				t.Fatal(err)
			}
		}
		return node, childItem(n, 0, len(n.Coords)/len(n.Refs), kindObj)
	}
	n1, o1 := child(ta, 0)
	n2, o2 := child(tb, 1)
	m1, m2 := ta.MinObjectsUnder(int(n1.level)), tb.MinObjectsUnder(int(n2.level))
	if m1 < 2 || m2 < 2 {
		t.Fatalf("minimum subtree sizes %d and %d: no count to pin", m1, m2)
	}
	all := func(rtree.ObjID) bool { return true }
	in1, in2 := n1.rect(), n2.rect()
	cut1 := geom.R(in1.Lo, geom.Pt((in1.Lo[0]+in1.Hi[0])/2, in1.Hi[1]))
	cut2 := geom.R(in2.Lo, geom.Pt((in2.Lo[0]+in2.Hi[0])/2, in2.Hi[1]))
	pair := func(a, b item) qpair { return qpair{i1: a, i2: b} }
	for _, c := range []struct {
		name string
		opts Options
		semi bool
		p    qpair
		want int
	}{
		{"nodes", Options{}, false, pair(n1, n2), m1 * m2},
		{"object-node", Options{}, false, pair(o1, n2), m2},
		{"objects", Options{}, false, pair(o1, o2), 1},
		{"select1-nodes", Options{Select1: all}, false, pair(n1, n2), 0},
		{"select1-object", Options{Select1: all}, false, pair(o1, n2), m2},
		{"select2-nodes", Options{Select2: all}, false, pair(n1, n2), 0},
		{"window1-contains", Options{Window1: &in1}, false, pair(n1, n2), m1 * m2},
		{"window1-cuts", Options{Window1: &cut1}, false, pair(n1, n2), 0},
		{"window2-cuts", Options{Window2: &cut2}, false, pair(n1, n2), 0},
		{"omit-nodes", Options{OmitEqualIDs: true}, false, pair(n1, n2), m1*m2 - min(m1, m2)},
		{"omit-object-node", Options{OmitEqualIDs: true}, false, pair(o1, n2), m2 - 1},
		{"omit-objects", Options{OmitEqualIDs: true}, false, pair(o1, o2), 1},
		{"semi-nodes", Options{}, true, pair(n1, n2), m1},
		{"semi-select2-nodes", Options{Select2: all}, true, pair(n1, n2), 0},
		{"semi-select2-object", Options{Select2: all}, true, pair(n1, o2), m1},
		{"semi-window2-cuts", Options{Window2: &cut2}, true, pair(n1, n2), 0},
		{"semi-window2-contains", Options{Window2: &in2}, true, pair(n1, n2), m1},
	} {
		c.opts.MaxPairs = 1 << 20
		var semi *semiState
		if c.semi {
			semi = &semiState{filter: FilterInside2, k: 1}
		}
		e := testEngine(t, ta, tb, c.opts, semi)
		if got := e.guaranteed(c.p); got != c.want {
			t.Errorf("%s: count %d, want %d", c.name, got, c.want)
		}
		before := len(e.est.index) // the seed pair may be in M already
		e.observe(c.p, 0, 1)
		if in := len(e.est.index) > before; in != (c.want > 0) {
			t.Errorf("%s: in M %v with count %d", c.name, in, c.want)
		}
		e.close()
	}
}

// TestMaxPairsDoesNoMoreWork pins the payoff of sound §2.2.4 counts: every
// operator bounded by MaxPairs = K delivers the unbounded run's first K pairs
// bit for bit, and computes no more distances and expands no more pairs than
// the unbounded run did to deliver them. Nothing recovers from a bound the
// estimator tightened too far, so an over-count anywhere shows here as a
// short or wrong prefix. The table below runs a plain join in either order
// under selections, windows and equal-id omission; boundedPrefixCases runs
// every operator over R*-trees and quadtrees, with and without deletions.
func TestMaxPairsDoesNoMoreWork(t *testing.T) {
	for seed := int64(97); seed < 101; seed += 2 {
		boundedPrefixCases(t, seed)
	}

	a, b := clusteredPoints(93, 400), clusteredPoints(94, 500)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	qa := WrapQuadtree(buildQuadtree(t, a))
	sparse := func(id rtree.ObjID) bool { return id%7 == 0 }
	west := geom.R(geom.Pt(-100, -100), geom.Pt(450, 1100))
	for _, c := range []struct {
		name   string
		t1, t2 SpatialIndex
		opts   Options
	}{
		{"select1", ta, tb, Options{Select1: sparse}},
		{"select2", ta, tb, Options{Select2: sparse}},
		{"window1", ta, tb, Options{Window1: &west}},
		{"window2", ta, tb, Options{Window2: &west}},
		{"omit-self-rtree", ta, ta, Options{OmitEqualIDs: true}},
		{"omit-self-quadtree", qa, qa, Options{OmitEqualIDs: true}},
	} {
		for _, reverse := range []bool{false, true} {
			for _, k := range []int{1, 10, 100, 1000} {
				name := fmt.Sprintf("%s/reverse=%v/K=%d", c.name, reverse, k)
				o := c.opts
				o.Reverse = reverse
				free := &stats.Counters{}
				o.Counters = free
				j, err := NewJoinIndexes(c.t1, c.t2, o)
				if err != nil {
					t.Fatal(err)
				}
				want := drainJoin(t, j, k)
				j.Close()
				bounded := &stats.Counters{}
				o.Counters, o.MaxPairs = bounded, k
				if j, err = NewJoinIndexes(c.t1, c.t2, o); err != nil {
					t.Fatal(err)
				}
				got := drainJoin(t, j, 0)
				j.Close()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %d pairs differ from the unbounded run's first %d", name, len(got), len(want))
				}
				checkNoMoreWork(t, name, bounded, free)
			}
		}
	}
}

// checkNoMoreWork fails a MaxPairs run that computed more distances or
// expanded more pairs than the unbounded run did to deliver as many pairs.
func checkNoMoreWork(t *testing.T, name string, bounded, free *stats.Counters) {
	t.Helper()
	if bounded.DistCalcs+bounded.NodeDistCalcs > free.DistCalcs+free.NodeDistCalcs || bounded.Expansions > free.Expansions {
		t.Errorf("%s: %d distances and %d expansions, unbounded %d and %d", name,
			bounded.DistCalcs+bounded.NodeDistCalcs, bounded.Expansions, free.DistCalcs+free.NodeDistCalcs, free.Expansions)
	}
}

// indexPair is one kind of index built over both inputs of a join.
type indexPair struct {
	name   string
	t1, t2 SpatialIndex
}

// boundedIndexes builds, over the same two point sets, the index kinds a
// MaxPairs run is checked on: a bulk-loaded R*-tree, an insertion-built one,
// the same with every third object deleted, and a quadtree without and with
// those deletions. The last kind's deletions empty whole quadtree leaves,
// which Delete leaves in place: every first-input object west of x = 500
// and every second-input object east of x = 450 goes.
func boundedIndexes(t *testing.T, a, b []geom.Point) []indexPair {
	third := func(i int, _ geom.Point) bool { return i%3 == 0 }
	inserted := func(pts []geom.Point, drop func(int, geom.Point) bool) SpatialIndex {
		tr, err := rtree.New(rtree.Config{Dims: 2, PageSize: 512, BufferFrames: 32})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		for i, p := range pts {
			if err := tr.InsertPoint(p, rtree.ObjID(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range pts {
			if drop != nil && drop(i, p) {
				if ok, err := tr.Delete(p.Rect(), rtree.ObjID(i)); !ok || err != nil {
					t.Fatalf("delete %d: %v %v", i, ok, err)
				}
			}
		}
		return WrapRTree(tr)
	}
	quad := func(pts []geom.Point, drop func(int, geom.Point) bool) SpatialIndex {
		tr := buildQuadtree(t, pts)
		for i, p := range pts {
			if drop != nil && drop(i, p) && !tr.Delete(p, uint64(i)) {
				t.Fatalf("delete %d", i)
			}
		}
		return WrapQuadtree(tr)
	}
	return []indexPair{
		{"rtree-bulk", WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))},
		{"rtree-insert", inserted(a, nil), inserted(b, nil)},
		{"rtree-deleted", inserted(a, third), inserted(b, third)},
		{"quadtree", quad(a, nil), quad(b, nil)},
		{"quadtree-deleted", quad(a, third), quad(b, third)},
		{"quadtree-emptied",
			quad(a, func(_ int, p geom.Point) bool { return p[0] < 500 }),
			quad(b, func(_ int, p geom.Point) bool { return p[0] >= 450 })},
	}
}

// boundedPrefixCases runs every operator a MaxPairs bound applies to — the
// join, the farthest-first join, the semi-join at each rung, the kNN join
// (k = 3) and the clustering join — over each index kind of boundedIndexes,
// under each of a few option sets and, but for the farthest-first join, an
// ExactDist hook that lies beyond its pairs' MINMAXDIST. Each run bounded by
// MaxPairs = K must deliver exactly the unbounded run's first K pairs, and do
// no more work than it did to deliver them.
func boundedPrefixCases(t *testing.T, seed int64) {
	a, b := clusteredPoints(seed, 150), clusteredPoints(seed+1, 200)
	west := geom.R(geom.Pt(-100, -100), geom.Pt(450, 1100))
	exact := func(o1, o2 rtree.ObjID) (float64, error) {
		return geom.Euclidean.Dist(a[o1], b[o2]) + float64((7*o1+13*o2)%5), nil
	}
	type boundedOp struct {
		name string
		open func(t1, t2 SpatialIndex, o Options) (*Join, error)
	}
	ops := []boundedOp{
		{"join", NewJoinIndexes},
		{"reverse", func(t1, t2 SpatialIndex, o Options) (*Join, error) {
			o.Reverse = true
			return NewJoinIndexes(t1, t2, o)
		}},
		{"knn3", func(t1, t2 SpatialIndex, o Options) (*Join, error) {
			return NewKNearestJoinIndexes(t1, t2, 3, FilterGlobalAll, o)
		}},
		{"clustering", func(t1, t2 SpatialIndex, o Options) (*Join, error) {
			return NewClusteringJoinIndexes(t1, t2, FilterOutside, o)
		}},
	}
	for _, f := range allFilters {
		ops = append(ops, boundedOp{"semi-" + f.String(), func(t1, t2 SpatialIndex, o Options) (*Join, error) {
			return NewSemiJoinIndexes(t1, t2, f, o)
		}})
	}
	optSets := []struct {
		name string
		opts Options
	}{
		{"none", Options{}},
		{"window1", Options{Window1: &west}},
		{"select2", Options{Select2: func(id rtree.ObjID) bool { return id%7 != 3 }}},
		{"omit", Options{OmitEqualIDs: true}},
		{"mindist", Options{MinDist: 25}},
		{"exactdist", Options{ExactDist: exact}},
	}
	ks := []int{1, 7, 30, 90}
	for _, ix := range boundedIndexes(t, a, b) {
		for _, op := range ops {
			for _, os := range optSets {
				if op.name == "reverse" && os.opts.ExactDist != nil {
					continue // refused: ExactDist has no farthest-first order
				}
				// One unbounded run, its counters taken as it passes each K.
				o := os.opts
				free := &stats.Counters{}
				o.Counters = free
				j, err := op.open(ix.t1, ix.t2, o)
				if err != nil {
					t.Fatal(err)
				}
				var want []Pair
				freeAt := make([]stats.Counters, len(ks))
				for i, k := range ks {
					want = append(want, drainJoin(t, j, k-len(want))...)
					freeAt[i] = free.Snapshot()
				}
				j.Close()
				for i, k := range ks {
					name := fmt.Sprintf("seed=%d/%s/%s/%s/K=%d", seed, ix.name, op.name, os.name, k)
					bounded := &stats.Counters{}
					o.Counters, o.MaxPairs = bounded, k
					if j, err = op.open(ix.t1, ix.t2, o); err != nil {
						t.Fatal(err)
					}
					got := drainJoin(t, j, 0)
					j.Close()
					if w := want[:min(k, len(want))]; !reflect.DeepEqual(got, w) {
						t.Errorf("%s: %d pairs differ from the unbounded run's first %d", name, len(got), len(w))
					}
					checkNoMoreWork(t, name, bounded, &freeAt[i])
				}
			}
		}
	}
}
