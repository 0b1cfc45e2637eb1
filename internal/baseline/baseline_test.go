package baseline

import (
	"math"
	"math/rand"
	"testing"

	"distjoin/internal/distjoin"
	"distjoin/internal/geom"
	"distjoin/internal/rtree"
	"distjoin/internal/stats"
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

func randPts(seed int64, n int) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rnd.Float64()*500, rnd.Float64()*500)
	}
	return pts
}

// incrementalJoin drains the incremental algorithm for comparison.
func incrementalJoin(t *testing.T, t1, t2 *rtree.Tree, limit int, opts distjoin.Options) []distjoin.Pair {
	t.Helper()
	j, err := distjoin.NewJoinIndexes(distjoin.WrapRTree(t1), distjoin.WrapRTree(t2), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var out []distjoin.Pair
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

func TestNestedLoopMatchesIncremental(t *testing.T) {
	a, b := randPts(1, 60), randPts(2, 70)
	ta, tb := buildTree(t, a), buildTree(t, b)
	nl, err := NestedLoopJoin(ta, tb, 500, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc := incrementalJoin(t, ta, tb, 500, distjoin.Options{})
	if len(nl) != len(inc) {
		t.Fatalf("lengths differ: %d vs %d", len(nl), len(inc))
	}
	for i := range nl {
		if math.Abs(nl[i].Dist-inc[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: NL %g, incremental %g", i, nl[i].Dist, inc[i].Dist)
		}
	}
}

func TestNestedLoopFullCount(t *testing.T) {
	ta, tb := buildTree(t, randPts(3, 25)), buildTree(t, randPts(4, 30))
	all, err := NestedLoopJoin(ta, tb, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 25*30 {
		t.Fatalf("full NL join: %d pairs", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Dist < all[i-1].Dist {
			t.Fatal("NL output not sorted")
		}
	}
}

func TestNestedLoopScanOnly(t *testing.T) {
	ta, tb := buildTree(t, randPts(5, 40)), buildTree(t, randPts(6, 50))
	c := &stats.Counters{}
	n, err := NestedLoopScanOnly(ta, tb, Options{Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	if n != 40*50 {
		t.Fatalf("scan computed %d distances, want %d", n, 40*50)
	}
	if c.DistCalcs != n {
		t.Fatalf("counter %d != returned %d", c.DistCalcs, n)
	}
}

func TestWithinJoinSortMatchesIncrementalRange(t *testing.T) {
	a, b := randPts(7, 80), randPts(8, 90)
	ta, tb := buildTree(t, a), buildTree(t, b)
	const dmax = 40.0
	within, err := WithinJoinSort(ta, tb, dmax, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc := incrementalJoin(t, ta, tb, 0, distjoin.Options{MaxDist: dmax})
	if len(within) != len(inc) {
		t.Fatalf("within %d pairs, incremental %d", len(within), len(inc))
	}
	for i := range within {
		if math.Abs(within[i].Dist-inc[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: %g vs %g", i, within[i].Dist, inc[i].Dist)
		}
	}
	for _, p := range within {
		if p.Dist > dmax {
			t.Fatalf("pair beyond range: %g", p.Dist)
		}
	}
}

func TestWithinJoinZeroDistance(t *testing.T) {
	// maxDist 0 degenerates to an intersection join; coincident points
	// intersect.
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 3)}
	ta, tb := buildTree(t, pts), buildTree(t, pts)
	within, err := WithinJoinSort(ta, tb, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(within) != 3 {
		t.Fatalf("intersection join found %d pairs, want 3", len(within))
	}
}

func TestWithinJoinUnbalancedTrees(t *testing.T) {
	// Very different cardinalities produce trees of different heights,
	// exercising the unbalanced-descent path.
	a, b := randPts(9, 5), randPts(10, 2000)
	ta, tb := buildTree(t, a), buildTree(t, b)
	if ta.Height() == tb.Height() {
		t.Skip("trees unexpectedly balanced")
	}
	const dmax = 25.0
	within, err := WithinJoinSort(ta, tb, dmax, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, p := range a {
		for _, q := range b {
			if geom.Euclidean.Dist(p, q) <= dmax {
				want++
			}
		}
	}
	if len(within) != want {
		t.Fatalf("unbalanced within join: %d, want %d", len(within), want)
	}
}

func TestWithinJoinValidation(t *testing.T) {
	ta := buildTree(t, randPts(11, 5))
	if _, err := WithinJoinSort(ta, ta, -1, Options{}); err == nil {
		t.Fatal("negative maxDist accepted")
	}
}

func TestNNSemiJoinMatchesIncremental(t *testing.T) {
	a, b := randPts(12, 80), randPts(13, 100)
	ta, tb := buildTree(t, a), buildTree(t, b)
	nn, err := NNSemiJoin(ta, tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := distjoin.NewSemiJoinIndexes(distjoin.WrapRTree(ta), distjoin.WrapRTree(tb), distjoin.FilterGlobalAll, distjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var inc []distjoin.Pair
	for {
		p, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		inc = append(inc, p)
	}
	if len(nn) != len(inc) {
		t.Fatalf("NN semi-join %d pairs, incremental %d", len(nn), len(inc))
	}
	for i := range nn {
		if math.Abs(nn[i].Dist-inc[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: %g vs %g", i, nn[i].Dist, inc[i].Dist)
		}
	}
}

func TestNNSemiJoinEmptyInner(t *testing.T) {
	ta := buildTree(t, randPts(14, 10))
	tb := buildTree(t, nil)
	pairs, err := NNSemiJoin(ta, tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Fatalf("semi-join against empty inner returned %d pairs", len(pairs))
	}
}

// TestResultRectsAreCopies: a baseline's result pairs own their rectangles,
// as distjoin.Pair documents. Writing every coordinate of every returned
// rectangle leaves the indexes reading as they did.
func TestResultRectsAreCopies(t *testing.T) {
	scan := func(t *testing.T, tr *rtree.Tree) []rtree.Entry {
		t.Helper()
		var out []rtree.Entry
		if err := tr.Scan(func(e rtree.Entry) bool {
			out = append(out, rtree.Entry{Rect: e.Rect.Clone(), Obj: e.Obj})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		run  func(t1, t2 *rtree.Tree) ([]distjoin.Pair, error)
	}{
		{"NestedLoopJoin", func(t1, t2 *rtree.Tree) ([]distjoin.Pair, error) { return NestedLoopJoin(t1, t2, 0, Options{}) }},
		{"WithinJoinSort", func(t1, t2 *rtree.Tree) ([]distjoin.Pair, error) { return WithinJoinSort(t1, t2, 60, Options{}) }},
		{"NNSemiJoin", func(t1, t2 *rtree.Tree) ([]distjoin.Pair, error) { return NNSemiJoin(t1, t2, Options{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t1, t2 := buildTree(t, randPts(5, 80)), buildTree(t, randPts(6, 90))
			want := [][]rtree.Entry{scan(t, t1), scan(t, t2)}
			pairs, err := tc.run(t1, t2)
			if err != nil {
				t.Fatal(err)
			}
			if len(pairs) == 0 {
				t.Fatal("no pairs")
			}
			for _, p := range pairs {
				for _, r := range []geom.Rect{p.Rect1, p.Rect2} {
					for i := range r.Lo {
						r.Lo[i], r.Hi[i] = -1, -1
					}
				}
			}
			for i, got := range [][]rtree.Entry{scan(t, t1), scan(t, t2)} {
				if len(got) != len(want[i]) {
					t.Fatalf("tree %d scans %d entries, was %d", i+1, len(got), len(want[i]))
				}
				for k, w := range want[i] {
					if got[k].Obj != w.Obj || !got[k].Rect.Equal(w.Rect) {
						t.Fatalf("after writing the results, tree %d reads entry %d as %v, was %v", i+1, k, got[k], w)
					}
				}
			}
		})
	}
}
