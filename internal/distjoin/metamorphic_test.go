package distjoin

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/quadtree"
	"distjoin/internal/rtree"
	"distjoin/internal/stats"
)

// The engine's metamorphic suite: relations that must hold between runs of
// the same query on transformed inputs, other index structures, the other
// queue, or another rung of the semi-join ladder. None of them needs to know
// what the right answer is, only how two answers relate — which is what
// makes them a guard for rewrites of the read path and the queue: they pin
// order, identity and geometry of every reported pair, on every operation
// (join, semi-join, kNN join) and both queues.

// metaOp is one operation of the suite's matrix.
type metaOp struct {
	name string
	k    int // partners per first object; 0 = plain join
}

var metaOps = []metaOp{{"join", 0}, {"semi", 1}, {"knn", 3}}

// metaQueue is one queue configuration of the matrix. scale multiplies the
// hybrid queue's distance increment, so a scaled dataset tiers identically.
type metaQueue struct {
	name string
	opts func(scale float64) Options
}

var metaQueues = []metaQueue{
	{"memory", func(float64) Options { return Options{} }},
	{"hybrid", func(scale float64) Options {
		return Options{Queue: QueueHybrid, HybridDT: 20 * scale, QueueStore: memQueueStore, QueuePageSize: 1024}
	}},
}

// forEachMetaCase runs fn once per operation × queue.
func forEachMetaCase(t *testing.T, fn func(t *testing.T, op metaOp, q metaQueue)) {
	for _, op := range metaOps {
		for _, q := range metaQueues {
			t.Run(op.name+"/"+q.name, func(t *testing.T) { fn(t, op, q) })
		}
	}
}

// metaRun opens op over (a, b), drains up to limit pairs (all when 0) and
// closes it.
func metaRun(t *testing.T, op metaOp, a, b SpatialIndex, filter SemiFilter, opts Options, limit int) []Pair {
	t.Helper()
	var next func() (Pair, bool, error)
	var closeFn func() error
	if op.k == 0 {
		j, err := NewJoinIndexes(a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		next, closeFn = j.Next, j.Close
	} else {
		s, err := NewKNearestJoinIndexes(a, b, op.k, filter, opts)
		if err != nil {
			t.Fatal(err)
		}
		next, closeFn = s.Next, s.Close
	}
	var out []Pair
	for limit <= 0 || len(out) < limit {
		p, ok, err := next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, p)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	return out
}

// metaRects draws n rectangles in dims dimensions on a 1/8 grid inside
// [0, 1024)^dims: every coordinate, difference, square and sum of squares is
// then exact in float64, so translating by a grid vector or scaling by a
// power of two changes no comparison the index build or the engine makes.
// extent 0 yields points.
func metaRects(seed int64, n, dims int, extent float64) []geom.Rect {
	rnd := rand.New(rand.NewSource(seed))
	grid := func(max float64) float64 { return math.Floor(rnd.Float64()*max*8) / 8 }
	out := make([]geom.Rect, n)
	for i := range out {
		lo, hi := make(geom.Point, dims), make(geom.Point, dims)
		for d := range lo {
			lo[d] = grid(1024)
			hi[d] = lo[d]
			if extent > 0 {
				hi[d] += grid(extent)
			}
		}
		out[i] = geom.Rect{Lo: lo, Hi: hi}
	}
	return out
}

// mapRects applies f to every coordinate.
func mapRects(rs []geom.Rect, f func(float64) float64) []geom.Rect {
	out := make([]geom.Rect, len(rs))
	for i, r := range rs {
		lo, hi := make(geom.Point, r.Dim()), make(geom.Point, r.Dim())
		for d := range lo {
			lo[d], hi[d] = f(r.Lo[d]), f(r.Hi[d])
		}
		out[i] = geom.Rect{Lo: lo, Hi: hi}
	}
	return out
}

// metaRTree bulk-loads rectangles into a small-node R*-tree (object i gets
// id i) and wraps it.
func metaRTree(t *testing.T, rs []geom.Rect, dims int) SpatialIndex {
	t.Helper()
	items := make([]rtree.Item, len(rs))
	for i, r := range rs {
		items[i] = rtree.Item{Rect: r, Obj: rtree.ObjID(i)}
	}
	tr, err := rtree.BulkLoad(rtree.Config{Dims: dims, PageSize: 512, BufferFrames: 16}, items)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return WrapRTree(tr)
}

// metaQuadtree indexes point rectangles in a bucket PR quadtree.
func metaQuadtree(t *testing.T, rs []geom.Rect) SpatialIndex {
	t.Helper()
	tr, err := quadtree.New(quadtree.Config{
		Bounds:     geom.R(geom.Pt(-1, -1), geom.Pt(1025, 1025)),
		BucketSize: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if err := tr.Insert(r.Lo, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return WrapQuadtree(tr)
}

// metaBrute is the oracle: the distance sequence op must report over
// (a, b), where the distance of two stored rectangles is their MINDIST
// (exact for the points and axis-parallel boxes the suite stores).
func metaBrute(op metaOp, a, b []geom.Rect, m geom.Metric) []float64 {
	var out []float64
	for _, ra := range a {
		ds := make([]float64, len(b))
		for j, rb := range b {
			ds[j] = m.MinDist(ra, rb)
		}
		if op.k > 0 {
			sort.Float64s(ds)
			if len(ds) > op.k {
				ds = ds[:op.k]
			}
		}
		out = append(out, ds...)
	}
	sort.Float64s(out)
	return out
}

// checkGeometry verifies every pair carries the stored rectangles of its two
// objects and their true distance.
func checkGeometry(t *testing.T, got []Pair, a, b []geom.Rect, m geom.Metric) {
	t.Helper()
	for i, p := range got {
		if !p.Rect1.Equal(a[p.Obj1]) || !p.Rect2.Equal(b[p.Obj2]) {
			t.Fatalf("pair %d (%d,%d): rects %v %v, stored %v %v", i, p.Obj1, p.Obj2, p.Rect1, p.Rect2, a[p.Obj1], b[p.Obj2])
		}
		if d := m.MinDist(a[p.Obj1], b[p.Obj2]); d != p.Dist {
			t.Fatalf("pair %d (%d,%d): reported %v, actual %v", i, p.Obj1, p.Obj2, p.Dist, d)
		}
	}
}

// checkDists verifies got's distance sequence equals want's prefix exactly.
func checkDists(t *testing.T, got []Pair, want []float64) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("%d pairs, oracle has %d", len(got), len(want))
	}
	for i, p := range got {
		if p.Dist != want[i] {
			t.Fatalf("pair %d: dist %v, want %v", i, p.Dist, want[i])
		}
	}
}

// sameAnswers verifies two runs agree: identical distance sequence, and
// within every run of equal distances the same set of object pairs (the
// order inside a tie is the one thing a different tree shape, queue or
// filter may legitimately change). A run of ties cut by the drain limit is
// compared on distances only.
func sameAnswers(t *testing.T, what string, got, want []Pair, complete bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
	}
	type ids struct{ a, b rtree.ObjID }
	for lo := 0; lo < len(got); {
		hi := lo
		for hi < len(got) && want[hi].Dist == want[lo].Dist {
			if got[hi].Dist != want[hi].Dist {
				t.Fatalf("%s: pair %d: dist %v, want %v", what, hi, got[hi].Dist, want[hi].Dist)
			}
			hi++
		}
		if hi < len(got) || complete {
			set := map[ids]int{}
			for i := lo; i < hi; i++ {
				set[ids{want[i].Obj1, want[i].Obj2}]++
				set[ids{got[i].Obj1, got[i].Obj2}]--
			}
			for k, v := range set {
				if v != 0 {
					t.Fatalf("%s: pairs %d..%d at distance %v differ at (%d,%d)", what, lo, hi, want[lo].Dist, k.a, k.b)
				}
			}
		}
		lo = hi
	}
}

// sameSequence verifies two runs report the same object pairs in the same
// order, got's distances being want's times scale.
func sameSequence(t *testing.T, what string, got, want []Pair, scale float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Obj1 != want[i].Obj1 || got[i].Obj2 != want[i].Obj2 || got[i].Dist != want[i].Dist*scale {
			t.Fatalf("%s: pair %d: (%d,%d) at %v, want (%d,%d) at %v", what, i,
				got[i].Obj1, got[i].Obj2, got[i].Dist, want[i].Obj1, want[i].Obj2, want[i].Dist*scale)
		}
	}
}

const metaLimit = 1200 // pairs drained from a plain join

func limitFor(op metaOp) int {
	if op.k == 0 {
		return metaLimit
	}
	return 0
}

// TestMetamorphicSwapInputs: a join of (B, A) is the mirror image of the
// join of (A, B). The semi-join and kNN join are not symmetric; their
// relation to the join is that they are its per-object prefix: the first k
// pairs the join reports for each first object, in the join's order.
func TestMetamorphicSwapInputs(t *testing.T) {
	a, b := metaRects(1, 90, 2, 0), metaRects(2, 110, 2, 0)
	forEachMetaCase(t, func(t *testing.T, op metaOp, q metaQueue) {
		ia, ib := metaRTree(t, a, 2), metaRTree(t, b, 2)
		if op.k == 0 {
			fwd := metaRun(t, op, ia, ib, 0, q.opts(1), metaLimit)
			rev := metaRun(t, op, ib, ia, 0, q.opts(1), metaLimit)
			for i := range rev {
				rev[i].Obj1, rev[i].Obj2 = rev[i].Obj2, rev[i].Obj1
				rev[i].Rect1, rev[i].Rect2 = rev[i].Rect2, rev[i].Rect1
			}
			checkGeometry(t, rev, a, b, geom.Euclidean)
			sameAnswers(t, "swapped", rev, fwd, false)
			return
		}
		full := metaRun(t, metaOps[0], ia, ib, 0, q.opts(1), 0)
		taken := map[rtree.ObjID]int{}
		var want []Pair
		for _, p := range full {
			if taken[p.Obj1] < op.k {
				taken[p.Obj1]++
				want = append(want, p)
			}
		}
		got := metaRun(t, op, ia, ib, FilterGlobalAll, q.opts(1), 0)
		checkGeometry(t, got, a, b, geom.Euclidean)
		sameAnswers(t, "per-object prefix of the join", got, want, true)
	})
}

// TestMetamorphicTranslateScale: moving both inputs by the same grid vector,
// or scaling them by a power of two, changes no comparison anywhere, so the
// very same object pairs come out in the very same order.
func TestMetamorphicTranslateScale(t *testing.T) {
	a, b := metaRects(3, 100, 2, 6), metaRects(4, 120, 2, 0)
	moves := []struct {
		name  string
		f     func(float64) float64
		scale float64
	}{
		{"translate", func(x float64) float64 { return x + 4096.5 }, 1},
		{"translate-negative", func(x float64) float64 { return x - 700.25 }, 1},
		{"scale-up", func(x float64) float64 { return x * 64 }, 64},
		{"scale-down", func(x float64) float64 { return x / 32 }, 1.0 / 32},
	}
	forEachMetaCase(t, func(t *testing.T, op metaOp, q metaQueue) {
		base := metaRun(t, op, metaRTree(t, a, 2), metaRTree(t, b, 2), FilterGlobalAll, q.opts(1), limitFor(op))
		checkGeometry(t, base, a, b, geom.Euclidean)
		for _, mv := range moves {
			ma, mb := mapRects(a, mv.f), mapRects(b, mv.f)
			got := metaRun(t, op, metaRTree(t, ma, 2), metaRTree(t, mb, 2), FilterGlobalAll, q.opts(mv.scale), limitFor(op))
			checkGeometry(t, got, ma, mb, geom.Euclidean)
			sameSequence(t, mv.name, got, base, mv.scale)
		}
	})
}

// TestMetamorphicIndexStructures: the R*-tree, the quadtree, either mix of
// the two and brute force agree on the distance sequence and on which
// objects are paired at each distance.
func TestMetamorphicIndexStructures(t *testing.T) {
	a, b := metaRects(5, 80, 2, 0), metaRects(6, 100, 2, 0)
	forEachMetaCase(t, func(t *testing.T, op metaOp, q metaQueue) {
		want := metaBrute(op, a, b, geom.Euclidean)
		var ref []Pair
		for _, c := range []struct {
			name   string
			ia, ib SpatialIndex
		}{
			{"rtree×rtree", metaRTree(t, a, 2), metaRTree(t, b, 2)},
			{"quad×quad", metaQuadtree(t, a), metaQuadtree(t, b)},
			{"rtree×quad", metaRTree(t, a, 2), metaQuadtree(t, b)},
			{"quad×rtree", metaQuadtree(t, a), metaRTree(t, b, 2)},
		} {
			// Inside2 is the strongest rung every structure supports alike
			// (a quadtree's regions are not minimal, which the ladder test
			// covers on R*-trees).
			got := metaRun(t, op, c.ia, c.ib, FilterInside2, q.opts(1), limitFor(op))
			checkGeometry(t, got, a, b, geom.Euclidean)
			checkDists(t, got, want)
			if op.k > 0 && len(got) != len(want) {
				t.Fatalf("%s: %d pairs, oracle has %d", c.name, len(got), len(want))
			}
			if ref == nil {
				ref = got
				continue
			}
			sameAnswers(t, c.name, got, ref, op.k > 0)
		}
	})
}

// TestMetamorphicQueues: the hybrid queue, however it is tiered and paged,
// reports what the memory queue reports.
func TestMetamorphicQueues(t *testing.T) {
	a, b := metaRects(7, 100, 2, 4), metaRects(8, 120, 2, 4)
	hybrids := []Options{
		{Queue: QueueHybrid, HybridDT: 5, QueueStore: memQueueStore, QueuePageSize: 512},
		{Queue: QueueHybrid, HybridDT: 60, QueueStore: memQueueStore},
		{Queue: QueueHybrid, QueueStore: memQueueStore, QueuePageSize: 1024}, // adaptive D_T
		{Queue: QueueHybrid, HybridDT: 1e9, QueueStore: memQueueStore},       // never spills
	}
	for _, op := range metaOps {
		t.Run(op.name, func(t *testing.T) {
			ia, ib := metaRTree(t, a, 2), metaRTree(t, b, 2)
			want := metaRun(t, op, ia, ib, FilterGlobalAll, Options{}, limitFor(op))
			for i, h := range hybrids {
				got := metaRun(t, op, ia, ib, FilterGlobalAll, h, limitFor(op))
				checkGeometry(t, got, a, b, geom.Euclidean)
				sameSequence(t, fmt.Sprintf("hybrid config %d", i), got, want, 1)
			}
		})
	}
}

// TestMetamorphicNoOpOptions: an option that excludes nothing — a window
// covering everything, a predicate that is always true, the distance range
// [0, +Inf] — changes neither what is reported nor what it costs: the same
// pairs in the same order and the same Stats snapshot, field for field, as the
// zero Options. The d_max rungs of the ladder are unsound under a selection
// on the second input and the engine degrades them, whatever the selection
// lets through, so those rows are compared at Inside2.
func TestMetamorphicNoOpOptions(t *testing.T) {
	a, b := metaRects(37, 110, 2, 0), metaRects(38, 140, 2, 5)
	all := geom.R(geom.Pt(-1, -1), geom.Pt(2048, 2048))
	always := func(rtree.ObjID) bool { return true }
	rows := []struct {
		name   string
		second bool // a selection on the second input
		set    func(*Options)
	}{
		{"window1", false, func(o *Options) { o.Window1 = &all }},
		{"window2", true, func(o *Options) { o.Window2 = &all }},
		{"select1", false, func(o *Options) { o.Select1 = always }},
		{"select2", true, func(o *Options) { o.Select2 = always }},
		{"windows-and-selects", true, func(o *Options) {
			o.Window1, o.Window2, o.Select1, o.Select2 = &all, &all, always, always
		}},
		{"full-range", false, func(o *Options) { o.MinDist, o.MaxDist = 0, math.Inf(1) }},
	}
	forEachMetaCase(t, func(t *testing.T, op metaOp, q metaQueue) {
		ia, ib := metaRTree(t, a, 2), metaRTree(t, b, 2)
		run := func(filter SemiFilter, set func(*Options)) ([]Pair, stats.Counters) {
			opts := q.opts(1)
			opts.Counters = &stats.Counters{}
			if set != nil {
				set(&opts)
			}
			return metaRun(t, op, ia, ib, filter, opts, limitFor(op)), opts.Counters.Snapshot()
		}
		type result struct {
			pairs []Pair
			stats stats.Counters
		}
		zero := map[SemiFilter]result{}
		for _, f := range []SemiFilter{FilterGlobalAll, FilterInside2} {
			pairs, st := run(f, nil)
			zero[f] = result{pairs, st}
		}
		for _, row := range rows {
			filter := FilterGlobalAll
			if row.second {
				filter = FilterInside2
			}
			want, wantStats := zero[filter].pairs, zero[filter].stats
			got, gotStats := run(filter, row.set)
			sameSequence(t, row.name, got, want, 1)
			if gotStats != wantStats {
				t.Fatalf("%s: stats diverge from the zero Options:\n got %+v\nwant %+v", row.name, gotStats, wantStats)
			}
		}
	})
}

// TestMetamorphicFilterLadder: every rung of the §4.2.1 ladder, Outside to
// GlobalAll, gives the same answers on both queues — for the semi-join, and
// for the kNN join (which degrades the d_max rungs internally).
func TestMetamorphicFilterLadder(t *testing.T) {
	a, b := metaRects(9, 110, 2, 0), metaRects(10, 140, 2, 5)
	forEachMetaCase(t, func(t *testing.T, op metaOp, q metaQueue) {
		if op.k == 0 {
			t.Skip("the plain join has no filter ladder")
		}
		ia, ib := metaRTree(t, a, 2), metaRTree(t, b, 2)
		brute := metaBrute(op, a, b, geom.Euclidean)
		var ref []Pair
		for _, f := range allFilters {
			got := metaRun(t, op, ia, ib, f, q.opts(1), 0)
			if len(got) != len(brute) {
				t.Fatalf("%v: %d pairs, oracle has %d", f, len(got), len(brute))
			}
			checkGeometry(t, got, a, b, geom.Euclidean)
			checkDists(t, got, brute)
			if ref == nil {
				ref = got
				continue
			}
			sameAnswers(t, f.String(), got, ref, true)
		}
	})
}

// TestMetamorphicDegenerate: inputs at the edges of the engine's domain
// still satisfy the oracle — on every operation and both queues.
func TestMetamorphicDegenerate(t *testing.T) {
	dup := func(n, dims int) []geom.Rect {
		out := make([]geom.Rect, n)
		for i := range out {
			p := make(geom.Point, dims)
			for d := range p {
				p[d] = 512
			}
			out[i] = p.Rect()
		}
		return out
	}
	flatten := func(rs []geom.Rect, axis int) []geom.Rect {
		out := mapRects(rs, func(x float64) float64 { return x })
		for _, r := range out {
			r.Hi[axis] = r.Lo[axis]
		}
		return out
	}
	cases := []struct {
		name string
		dims int
		a, b []geom.Rect
	}{
		{"empty-first", 2, nil, metaRects(11, 40, 2, 0)},
		{"empty-second", 2, metaRects(12, 40, 2, 0), nil},
		{"empty-both", 2, nil, nil},
		{"one-point-first", 2, metaRects(13, 1, 2, 0), metaRects(14, 60, 2, 0)},
		{"one-point-second", 2, metaRects(15, 60, 2, 0), metaRects(16, 1, 2, 0)},
		{"one-point-both", 2, metaRects(17, 1, 2, 0), metaRects(18, 1, 2, 0)},
		{"all-duplicates", 2, dup(40, 2), dup(30, 2)},
		{"duplicates-vs-spread", 2, dup(40, 2), metaRects(19, 50, 2, 0)},
		{"self-join", 2, metaRects(20, 60, 2, 0), metaRects(20, 60, 2, 0)},
		{"zero-width-rects", 2, flatten(metaRects(21, 50, 2, 9), 0), flatten(metaRects(22, 60, 2, 9), 1)},
		{"rects", 2, metaRects(23, 50, 2, 30), metaRects(24, 60, 2, 30)},
		{"3d-points", 3, metaRects(25, 60, 3, 0), metaRects(26, 70, 3, 0)},
		{"3d-rects", 3, metaRects(27, 50, 3, 12), metaRects(28, 50, 3, 12)},
		{"4d-points", 4, metaRects(29, 50, 4, 0), metaRects(30, 60, 4, 0)},
		{"4d-rects", 4, metaRects(31, 40, 4, 12), metaRects(32, 40, 4, 0)},
	}
	for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan, geom.Chessboard} {
		for _, c := range cases {
			if m != geom.Euclidean && c.dims == 2 && c.name != "rects" {
				continue // the other metrics get the box cases and the higher dimensions
			}
			t.Run(m.Name()+"/"+c.name, func(t *testing.T) {
				forEachMetaCase(t, func(t *testing.T, op metaOp, q metaQueue) {
					opts := q.opts(1)
					opts.Metric = m
					want := metaBrute(op, c.a, c.b, m)
					got := metaRun(t, op, metaRTree(t, c.a, c.dims), metaRTree(t, c.b, c.dims), FilterGlobalAll, opts, 0)
					if len(got) != len(want) {
						t.Fatalf("%d pairs, oracle has %d", len(got), len(want))
					}
					checkGeometry(t, got, c.a, c.b, m)
					checkDists(t, got, want)
				})
			})
		}
	}

	// Rows outside the domain: non-finite input is refused at the boundary
	// it would enter by, before any work. A row with geometry must be turned
	// away by every index builder; a row that spoils the options, by every
	// constructor over valid indexes, on both queues.
	nan, inf := math.NaN(), math.Inf(1)
	refused := []struct {
		name  string
		rect  geom.Rect
		spoil func(*Options)
	}{
		{"nan-point", geom.Pt(nan, 1).Rect(), nil},
		{"inf-point", geom.Pt(inf, 1).Rect(), nil},
		{"neg-inf-point", geom.Pt(1, -inf).Rect(), nil},
		{"half-infinite-rect", geom.R(geom.Pt(0, 0), geom.Pt(inf, 1)), nil},
		{"nan-min-dist", geom.Rect{}, func(o *Options) { o.MinDist = nan }},
		{"nan-max-dist", geom.Rect{}, func(o *Options) { o.MaxDist = nan }},
		{"nan-hybrid-dt", geom.Rect{}, func(o *Options) { o.Queue, o.HybridDT = QueueHybrid, nan }},
	}
	for _, c := range refused {
		t.Run("refused/"+c.name, func(t *testing.T) {
			if c.spoil == nil {
				metaRefusedByIndexes(t, c.rect)
				return
			}
			a, b := metaRTree(t, metaRects(35, 20, 2, 0), 2), metaRTree(t, metaRects(36, 20, 2, 0), 2)
			forEachMetaCase(t, func(t *testing.T, op metaOp, q metaQueue) {
				opts := q.opts(1)
				c.spoil(&opts)
				var err error
				if op.k == 0 {
					_, err = NewJoinIndexes(a, b, opts)
				} else {
					_, err = NewKNearestJoinIndexes(a, b, op.k, FilterGlobalAll, opts)
				}
				if err == nil {
					t.Fatal("constructor accepted the options")
				}
			})
		})
	}
}

// metaRefusedByIndexes: no index builder may store r — R*-tree bulk load and
// insert, and quadtree insert when r is a point.
func metaRefusedByIndexes(t *testing.T, r geom.Rect) {
	cfg := rtree.Config{Dims: 2, PageSize: 512, BufferFrames: 16}
	if _, err := rtree.BulkLoad(cfg, []rtree.Item{{Rect: r}}); err == nil {
		t.Errorf("R*-tree bulk load accepted %v", r)
	}
	tr, err := rtree.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Insert(r, 0); err == nil {
		t.Errorf("R*-tree insert accepted %v", r)
	}
	if r.Lo.IsFinite() {
		return // the quadtree stores points, and this corner is a valid one
	}
	qt, err := quadtree.New(quadtree.Config{Bounds: geom.R(geom.Pt(-1, -1), geom.Pt(1025, 1025))})
	if err != nil {
		t.Fatal(err)
	}
	if err := qt.Insert(r.Lo, 0); err == nil {
		t.Errorf("quadtree insert accepted %v", r.Lo)
	}
}

// TestMetamorphicDimensionMismatch: every constructor refuses two indexes of
// different dimensionality, on both queues, before any work is done.
func TestMetamorphicDimensionMismatch(t *testing.T) {
	i2, i3 := metaRTree(t, metaRects(33, 20, 2, 0), 2), metaRTree(t, metaRects(34, 20, 3, 0), 3)
	forEachMetaCase(t, func(t *testing.T, op metaOp, q metaQueue) {
		for _, pair := range [][2]SpatialIndex{{i2, i3}, {i3, i2}} {
			var err error
			if op.k == 0 {
				_, err = NewJoinIndexes(pair[0], pair[1], q.opts(1))
			} else {
				_, err = NewKNearestJoinIndexes(pair[0], pair[1], op.k, FilterGlobalAll, q.opts(1))
			}
			if err == nil {
				t.Fatal("dimension mismatch accepted")
			}
		}
	})
}
