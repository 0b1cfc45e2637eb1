package distjoin

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
	"distjoin/internal/rtree"
	"distjoin/internal/stats"
)

// memQueueStore is the Options.QueueStore of hermetic hybrid-queue tests:
// the disk tier runs and counts its page I/O on an in-memory store.
func memQueueStore(pageSize int) (pager.Store, error) { return pager.NewMemStore(pageSize) }

// buildTree bulk-loads points into a small-node tree.
func buildTree(t testing.TB, pts []geom.Point) *rtree.Tree {
	t.Helper()
	rects := make([]geom.Rect, len(pts))
	for i, p := range pts {
		rects[i] = p.Rect()
	}
	return buildRectTree(t, rects)
}

// buildRectTree bulk-loads rectangles into a small-node tree, rectangle i as
// object i.
func buildRectTree(t testing.TB, rects []geom.Rect) *rtree.Tree {
	t.Helper()
	items := make([]rtree.Item, len(rects))
	for i, r := range rects {
		items[i] = rtree.Item{Rect: r, Obj: rtree.ObjID(i)}
	}
	dims := 2
	if len(rects) > 0 {
		dims = rects[0].Dim()
	}
	tr, err := rtree.BulkLoad(rtree.Config{Dims: dims, PageSize: 512, BufferFrames: 32}, items)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func clusteredPoints(seed int64, n int) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		// A few clusters plus uniform noise, mimicking skewed spatial data.
		if rnd.Intn(4) == 0 {
			pts[i] = geom.Pt(rnd.Float64()*1000, rnd.Float64()*1000)
		} else {
			cx := float64(100 + 200*rnd.Intn(4))
			cy := float64(150 + 250*rnd.Intn(3))
			pts[i] = geom.Pt(cx+rnd.NormFloat64()*30, cy+rnd.NormFloat64()*30)
		}
	}
	return pts
}

// bruteJoin returns all pairs sorted ascending by Euclidean distance.
type bruteResult struct {
	i, j int
	d    float64
}

func bruteJoin(a, b []geom.Point, m geom.Metric) []bruteResult {
	out := make([]bruteResult, 0, len(a)*len(b))
	for i, p := range a {
		for j, q := range b {
			out = append(out, bruteResult{i: i, j: j, d: m.Dist(p, q)})
		}
	}
	sort.Slice(out, func(x, y int) bool { return out[x].d < out[y].d })
	return out
}

// drainJoin pulls up to limit pairs.
func drainJoin(t *testing.T, j *Join, limit int) []Pair {
	t.Helper()
	var out []Pair
	for limit <= 0 || len(out) < limit {
		p, ok, err := j.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, p)
	}
	return out
}

// assertDistancesMatch verifies the result distance sequence equals the
// brute-force prefix (pairs at equal distance may come in any order).
func assertDistancesMatch(t *testing.T, got []Pair, want []bruteResult) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("got %d pairs, brute force has %d", len(got), len(want))
	}
	for i, p := range got {
		if math.Abs(p.Dist-want[i].d) > 1e-9 {
			t.Fatalf("pair %d: dist %g, want %g", i, p.Dist, want[i].d)
		}
	}
}

func TestJoinMatchesBruteForce(t *testing.T) {
	a := clusteredPoints(1, 150)
	b := clusteredPoints(2, 180)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	want := bruteJoin(a, b, geom.Euclidean)

	variants := []struct {
		name string
		opts Options
	}{
		{"Even/DepthFirst", Options{}},
		{"Even/BreadthFirst", Options{TieBreak: BreadthFirst}},
		{"Basic/DepthFirst", Options{Traversal: TraverseBasic}},
		{"Simultaneous/DepthFirst", Options{Traversal: TraverseSimultaneous}},
		{"Simultaneous/NoSweep", Options{Traversal: TraverseSimultaneous, NoPlaneSweep: true}},
		{"Hybrid", Options{Queue: QueueHybrid, HybridDT: 25, QueueStore: memQueueStore}},
		{"HybridAdaptive", Options{Queue: QueueHybrid, QueueStore: memQueueStore}},
		{"HybridSmallPages", Options{Queue: QueueHybrid, HybridDT: 25, QueueStore: memQueueStore, QueuePageSize: 512}},
		{"ParallelHybrid", Options{Parallelism: 3, Queue: QueueHybrid, HybridDT: 25, QueueStore: memQueueStore, QueuePageSize: 1024}},
	}
	// ParallelHybrid sets the deprecated Options.Parallelism, which must
	// change nothing: its pairs and Stats equal the same options without it.
	run := func(t *testing.T, opts Options) ([]Pair, stats.Counters) {
		t.Helper()
		var c stats.Counters
		opts.Counters = &c
		j, err := NewJoinIndexes(ta, tb, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		return drainJoin(t, j, 2000), c.Snapshot()
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			got, st := run(t, v.opts)
			if len(got) != 2000 {
				t.Fatalf("drained %d pairs", len(got))
			}
			if v.opts.Parallelism != 0 {
				seq := v.opts
				seq.Parallelism = 0
				if want, wantSt := run(t, seq); !reflect.DeepEqual(got, want) || st != wantSt {
					t.Fatalf("Parallelism %d changed the run:\n stats %+v\n want  %+v", v.opts.Parallelism, st, wantSt)
				}
			}
			assertDistancesMatch(t, got, want)
			// Verify the pairs themselves, not just distances: each
			// reported pair's true distance must equal the reported one.
			for _, p := range got {
				if d := geom.Euclidean.Dist(a[p.Obj1], b[p.Obj2]); math.Abs(d-p.Dist) > 1e-9 {
					t.Fatalf("pair (%d,%d): reported %g, actual %g", p.Obj1, p.Obj2, p.Dist, d)
				}
			}
		})
	}
}

func TestJoinFullResult(t *testing.T) {
	a := clusteredPoints(3, 40)
	b := clusteredPoints(4, 50)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	j, err := NewJoinIndexes(ta, tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainJoin(t, j, 0)
	if len(got) != 40*50 {
		t.Fatalf("full join produced %d pairs, want %d", len(got), 40*50)
	}
	want := bruteJoin(a, b, geom.Euclidean)
	assertDistancesMatch(t, got, want)
	// Every pair of the Cartesian product appears exactly once.
	seen := map[[2]rtree.ObjID]bool{}
	for _, p := range got {
		k := [2]rtree.ObjID{p.Obj1, p.Obj2}
		if seen[k] {
			t.Fatalf("pair %v reported twice", k)
		}
		seen[k] = true
	}
}

func TestJoinOtherMetrics(t *testing.T) {
	a := clusteredPoints(5, 60)
	b := clusteredPoints(6, 70)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	for _, m := range []geom.Metric{geom.Manhattan, geom.Chessboard} {
		t.Run(m.Name(), func(t *testing.T) {
			j, err := NewJoinIndexes(ta, tb, Options{Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			got := drainJoin(t, j, 500)
			assertDistancesMatch(t, got, bruteJoin(a, b, m))
		})
	}
}

func TestJoinDistanceRange(t *testing.T) {
	a := clusteredPoints(7, 100)
	b := clusteredPoints(8, 100)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	const dmin, dmax = 50.0, 120.0
	j, err := NewJoinIndexes(ta, tb, Options{MinDist: dmin, MaxDist: dmax})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainJoin(t, j, 0)
	var want []bruteResult
	for _, r := range bruteJoin(a, b, geom.Euclidean) {
		if r.d >= dmin && r.d <= dmax {
			want = append(want, r)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("range join returned %d pairs, want %d", len(got), len(want))
	}
	assertDistancesMatch(t, got, want)
	for _, p := range got {
		if p.Dist < dmin || p.Dist > dmax {
			t.Fatalf("pair outside range: %g", p.Dist)
		}
	}
}

func TestJoinMaxPairs(t *testing.T) {
	a := clusteredPoints(9, 200)
	b := clusteredPoints(10, 220)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	want := bruteJoin(a, b, geom.Euclidean)
	for _, k := range []int{1, 10, 100, 1000} {
		j, err := NewJoinIndexes(ta, tb, Options{MaxPairs: k})
		if err != nil {
			t.Fatal(err)
		}
		got := drainJoin(t, j, 0)
		if len(got) != k {
			t.Fatalf("MaxPairs=%d returned %d pairs", k, len(got))
		}
		assertDistancesMatch(t, got, want)
		if !math.IsInf(j.EffectiveMaxDist(), 1) && j.EffectiveMaxDist() < got[len(got)-1].Dist {
			t.Fatalf("estimation overtightened: bound %g < kth dist %g",
				j.EffectiveMaxDist(), got[len(got)-1].Dist)
		}
		j.Close()
	}
}

func TestJoinMaxPairsTightensBound(t *testing.T) {
	a := clusteredPoints(11, 300)
	b := clusteredPoints(12, 300)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	j, err := NewJoinIndexes(ta, tb, Options{MaxPairs: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	drainJoin(t, j, 0)
	if math.IsInf(j.EffectiveMaxDist(), 1) {
		t.Fatal("estimation never tightened the maximum distance")
	}
}

func TestJoinReverse(t *testing.T) {
	a := clusteredPoints(13, 60)
	b := clusteredPoints(14, 70)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	j, err := NewJoinIndexes(ta, tb, Options{Reverse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainJoin(t, j, 500)
	brute := bruteJoin(a, b, geom.Euclidean)
	// Farthest first: compare against the descending prefix.
	for i, p := range got {
		want := brute[len(brute)-1-i].d
		if math.Abs(p.Dist-want) > 1e-9 {
			t.Fatalf("reverse pair %d: dist %g, want %g", i, p.Dist, want)
		}
	}
}

func TestJoinReverseFull(t *testing.T) {
	a := clusteredPoints(15, 25)
	b := clusteredPoints(16, 30)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	j, err := NewJoinIndexes(ta, tb, Options{Reverse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainJoin(t, j, 0)
	if len(got) != 25*30 {
		t.Fatalf("reverse full join produced %d pairs", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Dist > got[i-1].Dist+1e-9 {
			t.Fatalf("reverse order violated at %d: %g then %g", i, got[i-1].Dist, got[i].Dist)
		}
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	empty := buildTree(t, nil)
	full := buildTree(t, clusteredPoints(17, 20))
	for _, pair := range [][2]*rtree.Tree{{empty, full}, {full, empty}, {empty, empty}} {
		j, err := NewJoinIndexes(WrapRTree(pair[0]), WrapRTree(pair[1]), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := j.Next(); ok {
			t.Fatal("join of empty input produced a pair")
		}
		j.Close()
	}
}

func TestJoinSingleObjects(t *testing.T) {
	ta := WrapRTree(buildTree(t, []geom.Point{geom.Pt(0, 0)}))
	tb := WrapRTree(buildTree(t, []geom.Point{geom.Pt(3, 4)}))
	j, err := NewJoinIndexes(ta, tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	p, ok, err := j.Next()
	if err != nil || !ok {
		t.Fatalf("Next: %v %v", ok, err)
	}
	if math.Abs(p.Dist-5) > 1e-9 {
		t.Fatalf("Dist = %g, want 5", p.Dist)
	}
	if _, ok, _ := j.Next(); ok {
		t.Fatal("more than one pair from singletons")
	}
}

func TestJoinDuplicatePoints(t *testing.T) {
	// Many coincident points: distances tie at 0; every pair must still be
	// reported exactly once.
	pts := make([]geom.Point, 20)
	for i := range pts {
		pts[i] = geom.Pt(5, 5)
	}
	ta, tb := WrapRTree(buildTree(t, pts)), WrapRTree(buildTree(t, pts))
	j, err := NewJoinIndexes(ta, tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainJoin(t, j, 0)
	if len(got) != 400 {
		t.Fatalf("got %d pairs, want 400", len(got))
	}
	for _, p := range got {
		if p.Dist != 0 {
			t.Fatalf("expected zero distance, got %g", p.Dist)
		}
	}
}

func TestJoinSelfJoin(t *testing.T) {
	pts := clusteredPoints(19, 80)
	tr := WrapRTree(buildTree(t, pts))
	j, err := NewJoinIndexes(tr, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainJoin(t, j, 100)
	// The first 80 pairs of a self join are the (i, i) pairs at distance 0.
	zero := 0
	for _, p := range got {
		if p.Dist == 0 {
			zero++
		}
	}
	if zero < 80 {
		t.Fatalf("self join found %d zero-distance pairs, want >= 80", zero)
	}
}

func TestJoinOBRMode(t *testing.T) {
	// Extended objects: leaves store bounding rectangles; exact geometry
	// (smaller rects nested inside) comes from fetch callbacks.
	rnd := rand.New(rand.NewSource(23))
	type obj struct{ obr, exact geom.Rect }
	mkObjs := func(n int) []obj {
		out := make([]obj, n)
		for i := range out {
			x, y := rnd.Float64()*800, rnd.Float64()*800
			w, h := 4+rnd.Float64()*10, 4+rnd.Float64()*10
			exact := geom.R(geom.Pt(x+1, y+1), geom.Pt(x+w-1, y+h-1))
			out[i] = obj{obr: geom.R(geom.Pt(x, y), geom.Pt(x+w, y+h)), exact: exact}
		}
		return out
	}
	// Note the OBR must minimally bound the object for MINMAXDIST pruning;
	// here it does not (1-unit slack), so run without MinDist to stay in
	// territory where only plain MINDIST consistency is required.
	oa, ob := mkObjs(60), mkObjs(70)
	mkTree := func(objs []obj) *rtree.Tree {
		items := make([]rtree.Item, len(objs))
		for i, o := range objs {
			items[i] = rtree.Item{Rect: o.obr, Obj: rtree.ObjID(i)}
		}
		tr, err := rtree.BulkLoad(rtree.Config{Dims: 2, PageSize: 512, BufferFrames: 32}, items)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	ta, tb := mkTree(oa), mkTree(ob)
	fetches := 0
	j, err := NewJoinIndexes(WrapRTree(ta), WrapRTree(tb), Options{
		Fetch1: func(id rtree.ObjID) (geom.Rect, error) { fetches++; return oa[id].exact, nil },
		Fetch2: func(id rtree.ObjID) (geom.Rect, error) { fetches++; return ob[id].exact, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainJoin(t, j, 300)
	if fetches == 0 {
		t.Fatal("OBR mode never fetched exact geometry")
	}
	// Brute force on exact geometry.
	var want []float64
	for _, a := range oa {
		for _, b := range ob {
			want = append(want, geom.Euclidean.MinDist(a.exact, b.exact))
		}
	}
	sort.Float64s(want)
	for i, p := range got {
		if math.Abs(p.Dist-want[i]) > 1e-9 {
			t.Fatalf("OBR pair %d: dist %g, want %g", i, p.Dist, want[i])
		}
	}
}

func TestJoinOptionValidation(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(25, 10)))
	tb := WrapRTree(buildTree(t, clusteredPoints(26, 10)))
	cases := []Options{
		{MinDist: -1},
		{MinDist: 10, MaxDist: 5},
		{MaxPairs: -1},
		{Reverse: true, Queue: QueueHybrid},
		{Fetch1: func(rtree.ObjID) (geom.Rect, error) { return geom.Rect{}, nil }},
		{QueuePageSize: -1},
	}
	for i, o := range cases {
		if _, err := NewJoinIndexes(ta, tb, o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	if _, err := NewJoinIndexes(WrapRTree(nil), tb, Options{}); err == nil {
		t.Error("nil tree accepted")
	}
	t3d, _ := rtree.New(rtree.Config{Dims: 3})
	defer t3d.Close()
	if _, err := NewJoinIndexes(ta, WrapRTree(t3d), Options{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestJoinStopAfterMaxPairsThenDone(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(27, 50)))
	tb := WrapRTree(buildTree(t, clusteredPoints(28, 50)))
	j, err := NewJoinIndexes(ta, tb, Options{MaxPairs: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainJoin(t, j, 0)
	if len(got) != 7 {
		t.Fatalf("got %d", len(got))
	}
	// Next keeps returning done.
	if _, ok, _ := j.Next(); ok {
		t.Fatal("iterator resurrected after MaxPairs")
	}
	if j.Reported() != 7 {
		t.Fatalf("Reported = %d", j.Reported())
	}
}

// TestAccountingSemantics pins the paper's counting rules: object distance
// calculations (Table 1's "Dist. Calc.") count only leaf-entry pairs; node
// distance computations are tracked separately; queue inserts and the
// high-water mark are recorded by the queue.
func TestAccountingSemantics(t *testing.T) {
	a := clusteredPoints(91, 100)
	b := clusteredPoints(92, 100)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	c := &stats.Counters{}
	j, err := NewJoinIndexes(ta, tb, Options{Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 50; i++ {
		if _, ok, err := j.Next(); err != nil || !ok {
			t.Fatalf("Next %d: %v %v", i, ok, err)
		}
	}
	if c.DistCalcs == 0 {
		t.Fatal("no object distance calcs counted")
	}
	if c.NodeDistCalcs == 0 {
		t.Fatal("no node distance calcs counted")
	}
	if c.QueueInserts == 0 || c.MaxQueueSize == 0 || c.QueuePops == 0 {
		t.Fatalf("queue accounting missing: %+v", c)
	}
	if c.PairsReported != 50 {
		t.Fatalf("PairsReported = %d", c.PairsReported)
	}
	// Queue inserts can never exceed total distance computations: every
	// enqueued pair had its key computed exactly once.
	if c.QueueInserts > c.DistCalcs+c.NodeDistCalcs {
		t.Fatalf("inserts %d exceed distance computations %d",
			c.QueueInserts, c.DistCalcs+c.NodeDistCalcs)
	}
}

// TestCountersNilSafe runs a join with no counters attached end to end.
func TestCountersNilSafe(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(93, 50)))
	tb := WrapRTree(buildTree(t, clusteredPoints(94, 50)))
	j, err := NewJoinIndexes(ta, tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 20; i++ {
		if _, ok, err := j.Next(); err != nil || !ok {
			t.Fatal(ok, err)
		}
	}
}

// TestJoinDeferLeaves checks the §2.2.2 deferred-leaf strategy produces the
// standard result on both traversal policies.
func TestJoinDeferLeaves(t *testing.T) {
	a := clusteredPoints(95, 120)
	b := clusteredPoints(96, 140)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	want := bruteJoin(a, b, geom.Euclidean)
	for _, opts := range []Options{
		{DeferLeaves: true},
		{DeferLeaves: true, Traversal: TraverseBasic},
		{DeferLeaves: true, TieBreak: BreadthFirst},
	} {
		j, err := NewJoinIndexes(ta, tb, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := drainJoin(t, j, 1000)
		j.Close()
		assertDistancesMatch(t, got, want)
	}
	// And a semi-join with deferral.
	s, err := NewSemiJoinIndexes(ta, tb, FilterInside2, Options{DeferLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := drainJoin(t, s, 0)
	wantSemi := bruteSemiJoin(a, b, geom.Euclidean)
	if len(got) != len(wantSemi) {
		t.Fatalf("deferred semi-join: %d pairs, want %d", len(got), len(wantSemi))
	}
	for i, p := range got {
		if math.Abs(p.Dist-wantSemi[i].d) > 1e-9 {
			t.Fatalf("pair %d: %g want %g", i, p.Dist, wantSemi[i].d)
		}
	}
}

// TestJoinReverseWithMaxPairs exercises the §2.2.5 minimum-distance
// estimation: a reverse join bounded to K pairs must deliver exactly the K
// farthest, with the estimation raising the minimum-distance bound.
func TestJoinReverseWithMaxPairs(t *testing.T) {
	a := clusteredPoints(131, 150)
	b := clusteredPoints(132, 170)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	brute := bruteJoin(a, b, geom.Euclidean)
	for _, k := range []int{1, 10, 200, 2000} {
		j, err := NewJoinIndexes(ta, tb, Options{Reverse: true, MaxPairs: k})
		if err != nil {
			t.Fatal(err)
		}
		got := drainJoin(t, j, 0)
		j.Close()
		if len(got) != k {
			t.Fatalf("k=%d delivered %d", k, len(got))
		}
		for i, p := range got {
			want := brute[len(brute)-1-i].d
			if math.Abs(p.Dist-want) > 1e-9 {
				t.Fatalf("k=%d pair %d: %g want %g", k, i, p.Dist, want)
			}
		}
	}
	// The estimation must actually raise the bound (prune something) for a
	// modest K on this data.
	c := &stats.Counters{}
	jBounded, err := NewJoinIndexes(ta, tb, Options{Reverse: true, MaxPairs: 50, Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	drainJoin(t, jBounded, 0)
	boundedQueue := c.MaxQueueSize
	jBounded.Close()
	c2 := &stats.Counters{}
	jFree, err := NewJoinIndexes(ta, tb, Options{Reverse: true, Counters: c2})
	if err != nil {
		t.Fatal(err)
	}
	drainJoin(t, jFree, 50)
	jFree.Close()
	if boundedQueue >= c2.MaxQueueSize {
		t.Fatalf("reverse estimation did not shrink the queue: %d vs %d", boundedQueue, c2.MaxQueueSize)
	}
}

// TestReverseSelfPrune pins the one rule of the farthest-first estimation
// that only rectangles reach: engine.observe dropping the very pair whose
// observation raised the minimum distance above that pair's upper bound. It
// takes a pair that was reported but never entered M — a rectangle pair
// within the caller's MaxDist whose far bound lies beyond it — to leave M
// guaranteeing more pairs than are still needed; the next observation then
// shrinks M past the observed pair (DESIGN.md §5). On each case below the
// rule fires once: without it the dead pair is queued, and QueueInserts
// reads one more and Filtered one less.
func TestReverseSelfPrune(t *testing.T) {
	for _, c := range []struct {
		seed              int64
		extent, maxDist   float64
		k                 int
		inserts, filtered int64
	}{
		{seed: 8, extent: 8, maxDist: 300, k: 10, inserts: 114, filtered: 477},
		{seed: 1, extent: 64, maxDist: 500, k: 30, inserts: 225, filtered: 636},
		{seed: 4, extent: 200, maxDist: 500, k: 100, inserts: 442, filtered: 519},
	} {
		a, b := metaRects(c.seed, 30, 2, c.extent), metaRects(c.seed+1000, 30, 2, c.extent)
		cnt := &stats.Counters{}
		j, err := NewJoinIndexes(metaRTree(t, a, 2), metaRTree(t, b, 2),
			Options{Reverse: true, MaxPairs: c.k, MaxDist: c.maxDist, Counters: cnt})
		if err != nil {
			t.Fatal(err)
		}
		got := drainJoin(t, j, 0)
		j.Close()
		var want []float64
		for _, d := range metaBrute(metaOp{}, a, b, geom.Euclidean) {
			if d <= c.maxDist {
				want = append(want, d)
			}
		}
		if len(got) != c.k {
			t.Fatalf("seed %d: %d pairs, want %d", c.seed, len(got), c.k)
		}
		for i, p := range got {
			if w := want[len(want)-1-i]; p.Dist != w {
				t.Fatalf("seed %d pair %d: %g want %g", c.seed, i, p.Dist, w)
			}
		}
		if cnt.QueueInserts != c.inserts || cnt.Filtered != c.filtered {
			t.Errorf("seed %d: QueueInserts %d Filtered %d, want %d and %d",
				c.seed, cnt.QueueInserts, cnt.Filtered, c.inserts, c.filtered)
		}
	}
}

// TestSemiJoinReverseMaxPairsStillRejected pins the unsupported combination.
func TestSemiJoinReverseMaxPairsStillRejected(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(133, 10)))
	tb := WrapRTree(buildTree(t, clusteredPoints(134, 10)))
	if _, err := NewSemiJoinIndexes(ta, tb, FilterInside2, Options{Reverse: true, MaxPairs: 3}); err == nil {
		t.Fatal("reverse semi-join with MaxPairs accepted")
	}
}

// TestJoinRectanglesMinDist pins report's minimum-distance test. A pair of
// rectangle objects is admitted by its far bound: MINMAXDIST can reach
// MinDist while the rectangles themselves lie closer, so such a pair is
// queued and must be dropped when it pops. Both queues deliver exactly the
// brute-force distances in [MinDist, MaxDist].
func TestJoinRectanglesMinDist(t *testing.T) {
	const minDist, maxDist = 5, 40
	a, b := metaRects(61, 300, 2, 24), metaRects(62, 400, 2, 24)
	var want []float64
	for _, d := range metaBrute(metaOp{}, a, b, geom.Euclidean) {
		if d >= minDist && d <= maxDist {
			want = append(want, d)
		}
	}
	ta, tb := metaRTree(t, a, 2), metaRTree(t, b, 2)
	for _, q := range metaQueues {
		opts := q.opts(1)
		opts.MinDist, opts.MaxDist = minDist, maxDist
		j, err := NewJoinIndexes(ta, tb, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := drainJoin(t, j, 0)
		j.Close()
		if len(got) != len(want) {
			t.Fatalf("%s: %d pairs, want %d", q.name, len(got), len(want))
		}
		for i, p := range got {
			if p.Dist != want[i] {
				t.Fatalf("%s pair %d: %g want %g", q.name, i, p.Dist, want[i])
			}
		}
	}
}

// TestJoinOBRExactDistRange pins resolveOBR's range test. An ExactDist hook
// may put a pair beyond MaxDist although its bounding rectangles lie within
// it; such a pair must be dropped once its distance is known, not reported
// because nothing queued is nearer. Where the hook shrinks with the
// rectangles' distance, the last pair resolved is nearer than every pair
// re-queued before it, and without the test it would be reported.
func TestJoinOBRExactDistRange(t *testing.T) {
	near := clusteredPoints(99, 60)
	for i, p := range near {
		near[i] = geom.Pt(p[0]/4, p[1]/4) // every distance below 500
	}
	for _, c := range []struct {
		name    string
		a, b    []geom.Point
		maxDist float64
		exact   func(d float64, o1, o2 rtree.ObjID) float64
	}{
		{"margin", clusteredPoints(97, 120), clusteredPoints(98, 140), 60,
			func(d float64, o1, o2 rtree.ObjID) float64 { return d + float64((7*o1+13*o2)%5) }},
		{"inverse", near, near[:40], 1500,
			func(d float64, _, _ rtree.ObjID) float64 { return 2000 - d }},
	} {
		exact := func(o1, o2 rtree.ObjID) float64 { return c.exact(geom.Euclidean.Dist(c.a[o1], c.b[o2]), o1, o2) }
		var want []float64
		for i := range c.a {
			for k := range c.b {
				if d := exact(rtree.ObjID(i), rtree.ObjID(k)); d <= c.maxDist {
					want = append(want, d)
				}
			}
		}
		sort.Float64s(want)
		j, err := NewJoinIndexes(WrapRTree(buildTree(t, c.a)), WrapRTree(buildTree(t, c.b)), Options{
			MaxDist:   c.maxDist,
			ExactDist: func(o1, o2 rtree.ObjID) (float64, error) { return exact(o1, o2), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		got := drainJoin(t, j, 0)
		j.Close()
		if len(got) != len(want) {
			t.Fatalf("%s: %d pairs, want %d", c.name, len(got), len(want))
		}
		for i, p := range got {
			if p.Dist != want[i] {
				t.Fatalf("%s pair %d: %g want %g", c.name, i, p.Dist, want[i])
			}
		}
	}
}
