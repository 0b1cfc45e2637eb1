package distjoin

import (
	"errors"
	"math"
	"sort"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
	"distjoin/internal/rtree"
	"distjoin/internal/stats"
)

// semiOp is one operator of the semi-join family: the distance semi-join at
// one rung of the §4.2.1 ladder, the k-nearest-neighbours join, or the
// clustering join.
type semiOp struct {
	name      string
	k         int  // partners per first object
	symmetric bool // the clustering join
	filter    SemiFilter
}

// semiOps is every rung of the semi-join, kNN at k = 1 and 3, and the
// clustering join.
func semiOps() []semiOp {
	var ops []semiOp
	for _, f := range allFilters {
		ops = append(ops, semiOp{name: "semi-" + f.String(), k: 1, filter: f})
	}
	return append(ops,
		semiOp{name: "knn1", k: 1, filter: FilterInside2},
		semiOp{name: "knn3", k: 3, filter: FilterGlobalAll},
		semiOp{name: "clustering", k: 1, symmetric: true, filter: FilterGlobalAll},
	)
}

func (op semiOp) open(a, b SpatialIndex, opts Options) (*Join, error) {
	if op.symmetric {
		return NewClusteringJoinIndexes(a, b, op.filter, opts)
	}
	return NewKNearestJoinIndexes(a, b, op.k, op.filter, opts)
}

// brute is the operator's brute force over first objects a and second
// objects b: the distances it reports, ascending. omit drops the pair of an
// object with itself, for a self join (b is a) under OmitEqualIDs.
func (op semiOp) brute(a, b []geom.Point, omit bool) []float64 {
	var ds []float64
	switch {
	case omit && op.symmetric:
		usedA, usedB := map[int]bool{}, map[int]bool{}
		for _, c := range bruteJoin(a, b, geom.Euclidean) {
			if c.i == c.j || usedA[c.i] || usedB[c.j] {
				continue
			}
			usedA[c.i], usedB[c.j] = true, true
			ds = append(ds, c.d)
		}
		return ds
	case omit:
		for i := range a {
			rest := append(append([]geom.Point{}, b[:i]...), b[i+1:]...)
			ds = append(ds, op.brute(a[i:i+1], rest, false)...)
		}
	case op.symmetric:
		for _, r := range bruteClusteringJoin(a, b, geom.Euclidean) {
			ds = append(ds, r.d)
		}
	case op.k == 1:
		for _, r := range bruteSemiJoin(a, b, geom.Euclidean) {
			if !math.IsInf(r.d, 1) { // no second object at all
				ds = append(ds, r.d)
			}
		}
	default:
		ds = bruteKNNJoin(a, b, op.k, geom.Euclidean)
	}
	sort.Float64s(ds)
	return ds
}

// semiQueues are the two queue kinds, the hybrid one with a small page and
// distance increment so that the drains spill.
var semiQueues = []struct {
	name string
	opts Options
}{
	{"memory", Options{}},
	{"hybrid", Options{Queue: QueueHybrid, HybridDT: 10, QueueStore: memQueueStore, QueuePageSize: 256}},
}

// TestSemiFamilyDrainMatchesBrute drains every operator of the semi-join
// family until Next returns false, on both queues, under options that leave
// every first object a partner and options that leave some without one —
// a predicate and a window on the first input, a finite maximum distance,
// equal-ID omission in a self join, an empty second input and a second
// input smaller than k — and checks the pairs against brute force: the
// distance sequence, each pair's geometry, what the options exclude, and
// how often an object may appear.
func TestSemiFamilyDrainMatchesBrute(t *testing.T) {
	a, b := clusteredPoints(4601, 90), clusteredPoints(4602, 120)
	small := b[:2]
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	tSmall, tEmpty := WrapRTree(buildTree(t, small)), WrapRTree(buildTree(t, nil))
	even := func(id rtree.ObjID) bool { return id%2 == 0 }
	west := geom.R(geom.Pt(-1, -1), geom.Pt(420, 1001))

	cases := []struct {
		name   string
		t2     SpatialIndex
		b      []geom.Point
		admit  func(i int) bool // the first objects the options let through
		maxD   float64
		omit   bool
		setOpt func(*Options)
	}{
		{name: "none", t2: tb, b: b},
		{name: "select1", t2: tb, b: b, admit: func(i int) bool { return i%2 == 0 },
			setOpt: func(o *Options) { o.Select1 = even }},
		{name: "window1", t2: tb, b: b, admit: func(i int) bool { return west.Contains(a[i].Rect()) },
			setOpt: func(o *Options) { o.Window1 = &west }},
		{name: "maxdist", t2: tb, b: b, maxD: 25, setOpt: func(o *Options) { o.MaxDist = 25 }},
		{name: "omit-self", t2: ta, b: a, omit: true, setOpt: func(o *Options) { o.OmitEqualIDs = true }},
		{name: "empty2", t2: tEmpty},
		{name: "small2", t2: tSmall, b: small},
	}
	for _, op := range semiOps() {
		for _, q := range semiQueues {
			for _, tc := range cases {
				t.Run(op.name+"/"+q.name+"/"+tc.name, func(t *testing.T) {
					opts := q.opts
					if tc.setOpt != nil {
						tc.setOpt(&opts)
					}
					first := a
					if tc.admit != nil {
						first = nil
						for i, p := range a {
							if tc.admit(i) {
								first = append(first, p)
							}
						}
					}
					want := op.brute(first, tc.b, tc.omit)
					if tc.maxD > 0 {
						n := sort.SearchFloat64s(want, math.Nextafter(tc.maxD, math.Inf(1)))
						want = want[:n]
					}

					j, err := op.open(ta, tc.t2, opts)
					if err != nil {
						t.Fatal(err)
					}
					got := drainJoin(t, j, 0)
					if _, ok, err := j.Next(); ok || err != nil {
						t.Fatalf("Next after the end: ok %v, err %v", ok, err)
					}
					if err := j.Close(); err != nil {
						t.Fatal(err)
					}

					if len(got) != len(want) {
						t.Fatalf("%d pairs, brute force has %d", len(got), len(want))
					}
					per1, seen2 := map[rtree.ObjID]int{}, map[rtree.ObjID]bool{}
					for i, p := range got {
						if math.Abs(p.Dist-want[i]) > 1e-9 {
							t.Fatalf("pair %d: dist %g, want %g", i, p.Dist, want[i])
						}
						if d := geom.Euclidean.Dist(a[p.Obj1], tc.b[p.Obj2]); math.Abs(d-p.Dist) > 1e-9 {
							t.Fatalf("pair %d (%d, %d): dist %g, the objects are %g apart", i, p.Obj1, p.Obj2, p.Dist, d)
						}
						if tc.admit != nil && !tc.admit(int(p.Obj1)) {
							t.Fatalf("pair %d: first object %d is excluded by the options", i, p.Obj1)
						}
						if tc.omit && p.Obj1 == p.Obj2 {
							t.Fatalf("pair %d pairs object %d with itself", i, p.Obj1)
						}
						if per1[p.Obj1]++; per1[p.Obj1] > op.k {
							t.Fatalf("first object %d reported %d times, k is %d", p.Obj1, per1[p.Obj1], op.k)
						}
						if op.symmetric {
							if seen2[p.Obj2] {
								t.Fatalf("second object %d consumed twice", p.Obj2)
							}
							seen2[p.Obj2] = true
						}
					}
				})
			}
		}
	}
}

// TestSemiEndDoesNoWorkAfterLastPair: once S_A holds every first object, the
// Next that returns false pops, expands and reads nothing. Stats are
// snapshotted at the last pair of an unrestricted drain and after the end,
// for every operator whose every first object completes (kNN with k ≤ |B|),
// on both queues, with no option, an always-true Select1 and a covering
// Window1. The early end leaves pairs queued; on the hybrid queue Close must
// still release every page of its store.
func TestSemiEndDoesNoWorkAfterLastPair(t *testing.T) {
	a, b := clusteredPoints(4611, 90), clusteredPoints(4612, 120)
	tra, trb := buildTree(t, a), buildTree(t, b)
	ta, tb := WrapRTree(tra), WrapRTree(trb)
	all := geom.R(geom.Pt(-1e4, -1e4), geom.Pt(1e4, 1e4))
	rows := []struct {
		name string
		set  func(*Options)
	}{
		{"none", func(*Options) {}},
		{"select1-always", func(o *Options) { o.Select1 = func(rtree.ObjID) bool { return true } }},
		{"window1-covering", func(o *Options) { o.Window1 = &all }},
	}
	for _, op := range semiOps() {
		for _, q := range semiQueues {
			for _, row := range rows {
				t.Run(op.name+"/"+q.name+"/"+row.name, func(t *testing.T) {
					c := &stats.Counters{}
					for _, tr := range []*rtree.Tree{tra, trb} {
						if err := tr.DropCache(); err != nil {
							t.Fatal(err)
						}
						tr.Pool().SetCounters(stats.NodeSink(c))
						defer tr.Pool().SetCounters(nil)
					}
					opts := q.opts
					opts.Counters = c
					var store *pager.MemStore
					if opts.Queue == QueueHybrid {
						opts.QueueStore = func(pageSize int) (pager.Store, error) {
							var err error
							store, err = pager.NewMemStore(pageSize)
							return store, err
						}
					}
					row.set(&opts)
					j, err := op.open(ta, tb, opts)
					if err != nil {
						t.Fatal(err)
					}
					var last stats.Counters
					n := 0
					for {
						_, ok, err := j.Next()
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							break
						}
						n++
						last = c.Snapshot()
					}
					end := c.Snapshot()
					if want := len(a) * op.k; n != want {
						t.Fatalf("%d pairs, want %d", n, want)
					}
					if end.QueuePops != last.QueuePops || end.Expansions != last.Expansions ||
						end.NodeReads != last.NodeReads || end.BufferHits != last.BufferHits {
						t.Fatalf("the end cost work after the last pair:\n last pair %+v\n end       %+v", last, end)
					}
					if j.QueueLen() == 0 {
						t.Fatalf("the queue is empty at the end: the drain did not end early")
					}
					if store != nil && store.NumAllocated() == 0 {
						t.Fatalf("no queue page is in use at the end: the case does not test the release")
					}
					if err := j.Close(); err != nil {
						t.Fatal(err)
					}
					if store != nil {
						if _, err := store.Allocate(); !errors.Is(err, pager.ErrClosed) {
							t.Fatalf("the queue store is still open after Close: Allocate gave %v", err)
						}
					}
				})
			}
		}
	}
}
