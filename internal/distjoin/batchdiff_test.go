package distjoin

import (
	"math"
	"runtime"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/geom/kernel"
	"distjoin/internal/racecheck"
	"distjoin/internal/rtree"
	"distjoin/internal/stats"
)

// The differential suite pins the batched (row-kernel) expansion — the child
// generator of every side expansion, and the simultaneous expansion over the
// same kernels — against the one-at-a-time scalar expansion pair for pair:
// the same trees and options are drained through two engines, one with
// scalarExpand set, and the result streams and full counter snapshots must
// agree. On amd64 the
// agreement is exact (the kernels replicate the scalar delta expressions
// and accumulation order bit for bit); architectures whose compilers fuse
// floating-point operations may differ by an ulp in L2 sums, so there the
// Euclidean cases compare distances with a small ulp tolerance and skip
// strict counter equality (a 1-ulp distance can land on the other side of
// a prune threshold).

type diffCase struct {
	name         string
	opts         Options
	semi         func() *semiState
	self         bool // self join: both sides read the same tree
	quad1, quad2 bool // that side is indexed by a quadtree, not an R-tree
	rect1, rect2 bool // that side's objects are non-degenerate rectangles around its points
	dims3        bool // both sides hold the points lifted into three dimensions
	limit        int  // max pairs to drain; 0 = full drain
}

func diffCases(pts1, pts2 []geom.Point) []diffCase {
	sel := func(id rtree.ObjID) bool { return id%3 != 0 }
	win := geom.R(geom.Pt(0, 0), geom.Pt(700, 800))
	// An exact distance at or above the bounding rectangles' (the points'
	// own), by a different margin per pair: dequeued OBR pairs do not all
	// beat the queue head, so resolveOBR both reports and re-queues.
	exact := func(o1, o2 rtree.ObjID) (float64, error) {
		return geom.Euclidean.Dist(pts1[o1], pts2[o2]) + float64((7*o1+13*o2)%5), nil
	}
	fetch := func(pts []geom.Point) func(rtree.ObjID) (geom.Rect, error) {
		return func(id rtree.ObjID) (geom.Rect, error) { return pts[id].Rect(), nil }
	}
	cases := []diffCase{
		// The side expansions, which on the memory queue enter as blocks:
		// siblings on different levels (quadtrees) under both tie-breaks,
		// descending keys, keys that are not distances, pairs re-queued
		// past a peeked block head.
		{name: "quadtree-rtree", opts: Options{}, quad1: true},
		{name: "rtree-quadtree-basic", opts: Options{Traversal: TraverseBasic}, quad2: true},
		{name: "quadtrees-breadthfirst", opts: Options{TieBreak: BreadthFirst}, quad1: true, quad2: true},
		{name: "reverse-drain", opts: Options{Reverse: true}},
		{name: "reverse-quadtree-breadthfirst", opts: Options{Reverse: true, TieBreak: BreadthFirst}, quad2: true, limit: 2000},
		{name: "intersection-order-even", opts: Options{OrderIntersectionsFrom: geom.Pt(300, 400)}, self: true, limit: 500},
		{name: "obr-exactdist", opts: Options{ExactDist: exact}},
		{name: "obr-fetch", opts: Options{Fetch1: fetch(pts1), Fetch2: fetch(pts2), MaxDist: 150}},
		// MaxPairs where the §2.2.4 counts cannot hold, so no estimator runs:
		// an exact distance beyond the bounding rectangles' MINMAXDIST, and
		// the clustering join, whose consumed second objects break them.
		{name: "maxpairs-exactdist", opts: Options{Select1: sel, Select2: sel, ExactDist: exact, MaxPairs: 20}, limit: 20},
		{name: "maxpairs-clustering", opts: Options{MaxPairs: 40}, semi: func() *semiState { return &semiState{filter: FilterOutside, k: 1, symmetric: true} }, limit: 40},
		{name: "even-default", opts: Options{}},
		{name: "basic", opts: Options{Traversal: TraverseBasic}},
		{name: "simultaneous-maxdist", opts: Options{Traversal: TraverseSimultaneous, MaxDist: 120}},
		{name: "simultaneous-nosweep", opts: Options{Traversal: TraverseSimultaneous, MaxDist: 120, NoPlaneSweep: true}},
		{name: "even-maxpairs", opts: Options{MaxPairs: 400}, limit: 400},
		{name: "simultaneous-maxpairs", opts: Options{Traversal: TraverseSimultaneous, MaxPairs: 400}, limit: 400},
		{name: "reverse-maxpairs", opts: Options{Reverse: true, MaxPairs: 300}, limit: 300},
		{name: "reverse-range", opts: Options{Reverse: true, MinDist: 40, MaxDist: 200, Traversal: TraverseSimultaneous}},
		{name: "range", opts: Options{MinDist: 50, MaxDist: 200, Traversal: TraverseSimultaneous}},
		{name: "manhattan-sweep", opts: Options{Metric: geom.Manhattan, Traversal: TraverseSimultaneous, MaxDist: 150}},
		{name: "chessboard-sweep", opts: Options{Metric: geom.Chessboard, Traversal: TraverseSimultaneous, MaxDist: 100}},
		{name: "lp3-generic-sweep", opts: Options{Metric: geom.Lp(3), Traversal: TraverseSimultaneous, MaxDist: 120}},
		{name: "defer-leaves", opts: Options{DeferLeaves: true, Traversal: TraverseSimultaneous, MaxDist: 120}},
		{name: "omit-equal-self", opts: Options{OmitEqualIDs: true, Traversal: TraverseSimultaneous, MaxDist: 80}, self: true},
		{name: "window-select", opts: Options{Traversal: TraverseSimultaneous, MaxDist: 150, Window1: &win, Select2: sel}},
		{name: "intersection-order", opts: Options{Traversal: TraverseSimultaneous, OrderIntersectionsFrom: geom.Pt(300, 400)}, limit: 500},
		{name: "hybrid-queue-sweep", opts: Options{Traversal: TraverseSimultaneous, MaxDist: 120, Queue: QueueHybrid, QueueStore: memQueueStore, HybridDT: 40}},
		{
			name: "semi-local",
			opts: Options{Traversal: TraverseSimultaneous, MaxDist: 200},
			semi: func() *semiState { return &semiState{filter: FilterLocal, k: 1} },
		},
		{
			name: "semi-global",
			opts: Options{},
			semi: func() *semiState { return &semiState{filter: FilterGlobalAll, k: 1} },
		},
		{
			name:  "semi-maxpairs",
			opts:  Options{MaxPairs: 60},
			semi:  func() *semiState { return &semiState{filter: FilterInside2, k: 1} },
			limit: 60,
		},
	}

	// The semi-join family: every rung of the filter ladder under both
	// side-expanding traversals and all three kernel metrics, the scalar d_max
	// fallback (rectangle objects, a generic metric), quadtrees, the kNN and
	// clustering joins — and a semi-join with a window on either input.
	semiOf := func(f SemiFilter, k int, symmetric bool) func() *semiState {
		return func() *semiState { return &semiState{filter: f, k: k, symmetric: symmetric} }
	}
	global := semiOf(FilterGlobalAll, 1, false)
	for f := FilterOutside; f <= FilterGlobalAll; f++ {
		for _, tr := range []Traversal{TraverseEven, TraverseBasic} {
			for _, m := range []geom.Metric{geom.Manhattan, geom.Chessboard, geom.Euclidean} {
				cases = append(cases, diffCase{
					name: "semi-" + f.String() + "-" + tr.String() + "-" + m.Name(),
					opts: Options{Traversal: tr, Metric: m},
					semi: semiOf(f, 1, false),
				})
			}
		}
	}
	// Side expansions under an option, on both side-expanding traversals: the
	// §2.2.5 selections on either input, equal-id omission, a distance range
	// with a minimum, the estimator and the reverse order with a window — each
	// changes what the enqueue ladder does to a child, none may change what the
	// scalar reference delivers or counts.
	win2 := geom.R(geom.Pt(100, 50), geom.Pt(900, 950))
	for _, tr := range []Traversal{TraverseEven, TraverseBasic} {
		cases = append(cases,
			diffCase{name: "side-" + tr.String() + "-window1-select2", opts: Options{Traversal: tr, Window1: &win, Select2: sel}},
			diffCase{name: "side-" + tr.String() + "-omit-equal-self", opts: Options{Traversal: tr, OmitEqualIDs: true}, self: true, limit: 3000},
			diffCase{name: "side-" + tr.String() + "-mindist-maxdist", opts: Options{Traversal: tr, MinDist: 50, MaxDist: 200}},
			diffCase{name: "side-" + tr.String() + "-maxpairs", opts: Options{Traversal: tr, MaxPairs: 350}, limit: 350},
			diffCase{name: "side-" + tr.String() + "-reverse-window2", opts: Options{Traversal: tr, Reverse: true, Window2: &win2}, limit: 2500},
		)
	}
	// The same expansions feeding the hybrid queue, pair by pair.
	hybrid := func(o Options) Options {
		o.Queue, o.QueueStore, o.HybridDT, o.QueuePageSize = QueueHybrid, memQueueStore, 40, 1024
		return o
	}
	local := semiOf(FilterLocal, 1, false)
	cases = append(cases,
		diffCase{name: "hybrid-join", opts: hybrid(Options{})},
		diffCase{name: "hybrid-maxpairs", opts: hybrid(Options{MaxPairs: 350}), limit: 350},
		diffCase{name: "hybrid-semi-local", opts: hybrid(Options{}), semi: local},
		diffCase{name: "hybrid-semi-global", opts: hybrid(Options{}), semi: global},
		diffCase{name: "hybrid-semi-local-rects", opts: hybrid(Options{}), semi: local, rect1: true, rect2: true},
		diffCase{name: "hybrid-semi-global-rects", opts: hybrid(Options{}), semi: global, rect1: true, rect2: true},
		diffCase{name: "hybrid-knn-join-3", opts: hybrid(Options{}), semi: semiOf(FilterGlobalAll, 3, false)},
		diffCase{name: "hybrid-quad2", opts: hybrid(Options{}), quad2: true},
		// D_T chosen from the first insertions: whatever the queue holds when
		// it is fixed is re-tiered.
		diffCase{name: "hybrid-adaptive", opts: Options{Queue: QueueHybrid, QueueStore: memQueueStore, QueuePageSize: 1024}},
		diffCase{name: "hybrid-breadthfirst", opts: hybrid(Options{TieBreak: BreadthFirst})},
		diffCase{name: "hybrid-3d", opts: hybrid(Options{}), dims3: true},
		diffCase{name: "hybrid-intersection-order", opts: hybrid(Options{OrderIntersectionsFrom: geom.Pt(300, 400)}), self: true, limit: 500},
		diffCase{name: "hybrid-window1-select2", opts: hybrid(Options{Window1: &win, Select2: sel})},
		// Small pages and a small D_T: an expansion's survivors span many
		// buckets, descend several radix classes and fill many pages.
		diffCase{name: "hybrid-small-pages", opts: Options{Queue: QueueHybrid, QueueStore: memQueueStore, HybridDT: 5, QueuePageSize: 512}},
	)
	return append(cases,
		diffCase{name: "semi-global-lp3", opts: Options{Metric: geom.Lp(3)}, semi: global},
		diffCase{name: "semi-global-maxdist", opts: Options{MaxDist: 60}, semi: global},
		diffCase{name: "semi-global-breadthfirst", opts: Options{TieBreak: BreadthFirst}, semi: global},
		diffCase{name: "semi-global-self", opts: Options{}, semi: global, self: true},
		diffCase{name: "semi-global-rects1", opts: Options{}, semi: global, rect1: true},
		diffCase{name: "semi-global-rects2", opts: Options{}, semi: global, rect2: true},
		diffCase{name: "semi-global-rects-both-manhattan", opts: Options{Metric: geom.Manhattan, Traversal: TraverseBasic}, semi: global, rect1: true, rect2: true},
		diffCase{name: "semi-global-quad1", opts: Options{}, semi: global, quad1: true},
		diffCase{name: "semi-global-quad2", opts: Options{}, semi: global, quad2: true},
		diffCase{name: "semi-local-quadtrees-chessboard", opts: Options{Metric: geom.Chessboard}, semi: semiOf(FilterLocal, 1, false), quad1: true, quad2: true},
		diffCase{name: "knn-join-3", opts: Options{}, semi: semiOf(FilterGlobalAll, 3, false)},
		diffCase{name: "knn-join-3-basic-manhattan", opts: Options{Traversal: TraverseBasic, Metric: geom.Manhattan}, semi: semiOf(FilterInside2, 3, false)},
		diffCase{name: "clustering-join", opts: Options{}, semi: semiOf(FilterGlobalAll, 1, true)},
		diffCase{name: "clustering-join-quad2-inside1", opts: Options{}, semi: semiOf(FilterInside1, 1, true), quad2: true},
		diffCase{name: "semi-global-window", opts: Options{Window1: &win}, semi: global},
		diffCase{name: "semi-global-window2", opts: Options{Window2: &win}, semi: global},
	)
}

// rectsAround gives every point a non-degenerate rectangle of its own size
// with the point as its low corner.
func rectsAround(pts []geom.Point) []geom.Rect {
	out := make([]geom.Rect, len(pts))
	for i, p := range pts {
		out[i] = geom.R(p, geom.Pt(p[0]+float64(1+i%7), p[1]+float64(1+i%11)))
	}
	return out
}

// lift3 lifts points into three dimensions, their third coordinate a
// function of the other two.
func lift3(pts []geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point{p[0], p[1], math.Mod(7*p[0]+3*p[1], 500)}
	}
	return out
}

// drainEngineVariant runs one engine over the trees with scalarExpand as
// given and returns the delivered pairs and the final counter snapshot.
func drainEngineVariant(t *testing.T, t1, t2 SpatialIndex, tc diffCase, scalar bool) ([]Pair, stats.Counters) {
	t.Helper()
	opts := tc.opts
	opts.Counters = &stats.Counters{}
	var semi *semiState
	if tc.semi != nil {
		semi = tc.semi()
	}
	e := testEngine(t, t1, t2, opts, semi)
	defer e.close()
	e.scalarExpand = scalar
	var out []Pair
	for tc.limit <= 0 || len(out) < tc.limit {
		p, ok, err := e.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, p)
	}
	return out, opts.Counters.Snapshot()
}

func TestBatchedExpansionMatchesScalar(t *testing.T) {
	pts1 := clusteredPoints(41, 130)
	pts2 := clusteredPoints(42, 110)
	tr1 := WrapRTree(buildTree(t, pts1))
	tr2 := WrapRTree(buildTree(t, pts2))

	for _, tc := range diffCases(pts1, pts2) {
		t.Run(tc.name, func(t *testing.T) {
			i1, i2 := tr1, tr2
			if tc.quad1 {
				i1 = WrapQuadtree(buildQuadtree(t, pts1))
			}
			if tc.quad2 {
				i2 = WrapQuadtree(buildQuadtree(t, pts2))
			}
			if tc.rect1 {
				i1 = WrapRTree(buildRectTree(t, rectsAround(pts1)))
			}
			if tc.rect2 {
				i2 = WrapRTree(buildRectTree(t, rectsAround(pts2)))
			}
			if tc.dims3 {
				i1, i2 = WrapRTree(buildTree(t, lift3(pts1))), WrapRTree(buildTree(t, lift3(pts2)))
			}
			if tc.self {
				i2 = i1
			}
			batch, cb := drainEngineVariant(t, i1, i2, tc, false)
			scalar, cs := drainEngineVariant(t, i1, i2, tc, true)

			m := tc.opts.Metric
			strict := runtime.GOARCH == "amd64" || (m != nil && m != geom.Euclidean)

			if len(batch) != len(scalar) {
				t.Fatalf("batch delivered %d pairs, scalar %d", len(batch), len(scalar))
			}
			for i := range batch {
				b, s := batch[i], scalar[i]
				if b.Obj1 != s.Obj1 || b.Obj2 != s.Obj2 {
					t.Fatalf("pair %d: batch (%d,%d), scalar (%d,%d)", i, b.Obj1, b.Obj2, s.Obj1, s.Obj2)
				}
				if strict {
					if b.Dist != s.Dist {
						t.Fatalf("pair %d: batch dist %v, scalar %v", i, b.Dist, s.Dist)
					}
				} else if diff := math.Abs(b.Dist - s.Dist); diff > 4e-16*math.Max(b.Dist, 1) {
					t.Fatalf("pair %d: batch dist %v, scalar %v (diff %g)", i, b.Dist, s.Dist, diff)
				}
			}
			// The counters the two may disagree on are those that tell them
			// apart: the scalar expansion queues every pair as its own
			// element — on the hybrid queue, spills it as a record of its
			// own — the batched one a block, and a record per radix class,
			// per expansion.
			if cb.MaxQueueElements > cs.MaxQueueElements || (tc.opts.Queue == QueueMemory && cs.MaxQueueElements != cs.MaxQueueSize) {
				t.Fatalf("queue elements: batch %d, scalar %d (of %d pairs)", cb.MaxQueueElements, cs.MaxQueueElements, cs.MaxQueueSize)
			}
			if cb.QueueWrites > cs.QueueWrites {
				t.Fatalf("queue page writes: batch %d, scalar %d", cb.QueueWrites, cs.QueueWrites)
			}
			cb.MaxQueueElements, cb.QueueReads, cb.QueueWrites = cs.MaxQueueElements, cs.QueueReads, cs.QueueWrites
			if strict && cb != cs {
				t.Fatalf("counter snapshots diverge:\nbatch:  %+v\nscalar: %+v", cb, cs)
			}
		})
	}
}

// unflagged is an index that never says its leaves hold points, as a
// third-party SpatialIndex written before IndexNode.Points would not.
type unflagged struct{ SpatialIndex }

func (u unflagged) Node(ref uint64) (*IndexNode, error) {
	n, err := u.SpatialIndex.Node(ref)
	if err != nil {
		return nil, err
	}
	c := *n
	c.Points = false
	return &c, nil
}

// TestSemiJoinUnflaggedIndex pins the zero value of IndexNode.Points: over
// point data, an index that leaves it unset takes the scalar d_max and must
// deliver the flagged index's sequence and move the same counters.
func TestSemiJoinUnflaggedIndex(t *testing.T) {
	i1 := WrapRTree(buildTree(t, clusteredPoints(41, 130)))
	i2 := WrapRTree(buildTree(t, clusteredPoints(42, 110)))
	metrics := []geom.Metric{geom.Manhattan, geom.Chessboard}
	if runtime.GOARCH == "amd64" { // elsewhere a fused L2 sum may sit an ulp off the scalar's
		metrics = append(metrics, geom.Euclidean)
	}
	for _, m := range metrics {
		tc := diffCase{opts: Options{Metric: m}, semi: func() *semiState { return &semiState{filter: FilterGlobalAll, k: 1} }}
		want, cw := drainEngineVariant(t, i1, i2, tc, false)
		for name, pair := range map[string][2]SpatialIndex{
			"first":  {unflagged{i1}, i2},
			"second": {i1, unflagged{i2}},
			"both":   {unflagged{i1}, unflagged{i2}},
		} {
			got, cg := drainEngineVariant(t, pair[0], pair[1], tc, false)
			if len(got) != len(want) || len(want) == 0 {
				t.Fatalf("%s/%s: %d pairs, want %d", m.Name(), name, len(got), len(want))
			}
			for i := range got {
				if got[i].Obj1 != want[i].Obj1 || got[i].Obj2 != want[i].Obj2 || got[i].Dist != want[i].Dist {
					t.Fatalf("%s/%s pair %d: %+v, want %+v", m.Name(), name, i, got[i], want[i])
				}
			}
			if cg != cw {
				t.Fatalf("%s/%s: counters diverge:\n got %+v\nwant %+v", m.Name(), name, cg, cw)
			}
		}
	}
}

// TestBatchScratchPreSized pins the constructor's sizing contract: the item
// scratch, the sweep's row scratch and both kernel output buffers all start
// with at least the trees' max fan-out of capacity, so first expansions do not
// grow buffers mid-join.
func TestBatchScratchPreSized(t *testing.T) {
	tr := buildTree(t, clusteredPoints(7, 300))
	e := testEngine(t, WrapRTree(tr), WrapRTree(tr), Options{}, nil)
	defer e.close()
	want := tr.MaxFanout()
	if want <= 0 {
		t.Fatalf("tree reports max entries %d", want)
	}
	if cap(e.scratch1) < want || cap(e.scratch2) < want {
		t.Fatalf("scratch caps %d/%d, want >= %d", cap(e.scratch1), cap(e.scratch2), want)
	}
	if len(e.dbuf) < want || len(e.mbuf) < want {
		t.Fatalf("dbuf/mbuf len %d/%d, want >= %d", len(e.dbuf), len(e.mbuf), want)
	}
	// The row scratch must hold a full node's worth of rectangles without
	// growing: gathering fan-out of them allocates nothing.
	if cap(e.rows) < want*4 {
		t.Fatalf("row scratch holds %d coordinates, want >= %d", cap(e.rows), want*4)
	}
	r := newItem(kindObj, -1, 0, geom.R(geom.Pt(0, 0), geom.Pt(1, 1)))
	avg := testing.AllocsPerRun(10, func() {
		e.rows = e.rows[:0]
		for i := 0; i < want; i++ {
			e.rows = append(e.rows, r.c...)
		}
	})
	if avg != 0 {
		t.Fatalf("gathering %d rows allocates %.1f times, want 0", want, avg)
	}
}

// TestMinDistRowsSubRun pins what the plane sweep relies on: the row kernel
// over a sub-run of a block of rows computes, for each row, the value it
// computes for that row in the whole block — and allocates nothing.
func TestMinDistRowsSubRun(t *testing.T) {
	tr := WrapRTree(buildTree(t, clusteredPoints(9, 400)))
	e := testEngine(t, tr, tr, Options{}, nil)
	defer e.close()
	root, err := e.t1.Root()
	if err != nil {
		t.Fatal(err)
	}
	n, err := e.t1.Node(root.Ref)
	if err != nil {
		t.Fatal(err)
	}
	count := len(n.Coords) / 4
	if count < 3 {
		t.Fatalf("root has %d entries, need >= 3", count)
	}
	q := geom.R(geom.Pt(100, 100), geom.Pt(300, 300))
	for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan, geom.Chessboard, geom.Lp(3)} {
		kern := kernel.For(m)
		whole, part := make([]float64, count), make([]float64, count-2)
		kern.MinDistRows(q, n.Coords, whole)
		kern.MinDistRows(q, n.Coords[4:4*(count-1)], part)
		for i, d := range part {
			if d != whole[i+1] {
				t.Fatalf("%s: row %d is %v in the sub-run, %v in the block", m.Name(), i+1, d, whole[i+1])
			}
		}
		if avg := testing.AllocsPerRun(200, func() {
			kern.MinDistRows(q, n.Coords, whole)
			kern.MinDistRows(q, n.Coords[4:4*(count-1)], part)
		}); avg != 0 && !racecheck.Enabled {
			t.Fatalf("%s: the row kernel allocates %.1f times per run, want 0", m.Name(), avg)
		}
	}
}

// TestBatchedExpansionZeroAllocs pins the steady-state allocation contract
// of child generation beyond the zero Options (whose expansions
// TestAllocBlockQueue gates): once the engine is constructed, a side
// expansion allocates nothing when the query carries options the ladder
// consults per child, and nothing on the hybrid queue when its survivors go
// to the disk tier's open page — a pair is encoded from the node's
// coordinate block where it lies. (A survivor that lands in the hybrid
// queue's memory tiers is given its own copy of its coordinates; that is the
// queue's doing, DESIGN.md §16.)
func TestBatchedExpansionZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	// Mallocs is the whole process's: keep what other tests left running off
	// the processor while it is read, as testing.AllocsPerRun does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ta, tb := WrapRTree(buildTree(t, clusteredPoints(51, 300))), WrapRTree(buildTree(t, clusteredPoints(52, 300)))
	win := geom.R(geom.Pt(0, 0), geom.Pt(700, 800))
	sel := func(id rtree.ObjID) bool { return id%3 != 0 }
	for _, c := range []struct {
		name string
		opts Options
		semi *semiState
		side int
		// far: expand the root on that side against an object far away —
		// farther every run, since the hybrid queue's tiers only move up —
		// instead of against the other root, so that every survivor is beyond
		// the memory tiers.
		far bool
	}{
		{"window and predicate, side 1", Options{Window1: &win, Select1: sel}, nil, 1, false},
		{"window, range with a minimum, equal ids, side 2", Options{Window2: &win, MinDist: 5, MaxDist: 900, OmitEqualIDs: true}, nil, 2, false},
		{"reverse", Options{Reverse: true}, nil, 1, false},
		{"semi-join with a window", Options{Window1: &win}, &semiState{filter: FilterGlobalAll, k: 1}, 2, false},
		{"hybrid queue", Options{Queue: QueueHybrid, QueueStore: memQueueStore, HybridDT: 1, QueuePageSize: 1 << 16}, nil, 1, true},
		{"hybrid queue, semi-join", Options{Queue: QueueHybrid, QueueStore: memQueueStore, HybridDT: 1, QueuePageSize: 1 << 16}, &semiState{filter: FilterGlobalAll, k: 1}, 2, true},
	} {
		e := testEngine(t, ta, tb, c.opts, c.semi)
		defer e.close()
		seed, _, _ := e.q.Pop() // the root/root pair
		var allocs uint64
		var before, after runtime.MemStats
		for run := 0; run < 100; run++ {
			if c.far {
				far := newItem(kindObj, -1, 7, geom.Pt(5000+4000*float64(run), 5000).Rect())
				if c.side == 1 {
					seed.i2 = far
				} else {
					seed.i1 = far
				}
			}
			runtime.ReadMemStats(&before)
			err := e.expandSide(seed, c.side)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if e.q.Len() == 0 {
				t.Fatalf("%s: the expansion queued nothing", c.name)
			}
			if run > 0 { // the first run sizes the queue's storage
				allocs += after.Mallocs - before.Mallocs
			}
			for e.q.Len() > 0 {
				if _, _, err := e.q.Pop(); err != nil {
					t.Fatal(err)
				}
			}
			if c.semi != nil { // the bounds the Global rules keep would reject a farther rerun
				clear(c.semi.bestNode)
				clear(c.semi.bestObj)
			}
		}
		if allocs != 0 {
			t.Errorf("%s: 99 expansions allocate %d times, want 0", c.name, allocs)
		}
	}
}
