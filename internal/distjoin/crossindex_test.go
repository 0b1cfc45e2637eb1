package distjoin

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distjoin/internal/geom"
	"distjoin/internal/quadtree"
)

// buildQuadtree indexes points in a bucket PR quadtree over the test world.
func buildQuadtree(t *testing.T, pts []geom.Point) *quadtree.Tree {
	t.Helper()
	tr, err := quadtree.New(quadtree.Config{
		Bounds:     geom.R(geom.Pt(-200, -200), geom.Pt(1400, 1400)),
		BucketSize: 6,
		MaxDepth:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestJoinQuadtreeQuadtree runs the incremental join over two quadtrees —
// the paper's §2.2 generality claim for unbalanced decompositions.
func TestJoinQuadtreeQuadtree(t *testing.T) {
	a := clusteredPoints(71, 150)
	b := clusteredPoints(72, 180)
	qa, qb := buildQuadtree(t, a), buildQuadtree(t, b)
	j, err := NewJoinIndexes(WrapQuadtree(qa), WrapQuadtree(qb), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainJoin(t, j, 1500)
	want := bruteJoin(a, b, geom.Euclidean)
	assertDistancesMatch(t, got, want)
	for _, p := range got {
		if d := geom.Euclidean.Dist(a[p.Obj1], b[p.Obj2]); math.Abs(d-p.Dist) > 1e-9 {
			t.Fatalf("pair (%d,%d): reported %g, actual %g", p.Obj1, p.Obj2, p.Dist, d)
		}
	}
}

// TestJoinMixedRTreeQuadtree joins an R-tree against a quadtree, exercising
// completely different node levels and region semantics on the two sides.
func TestJoinMixedRTreeQuadtree(t *testing.T) {
	a := clusteredPoints(73, 120)
	b := clusteredPoints(74, 160)
	ta := WrapRTree(buildTree(t, a)) // R-tree
	qb := buildQuadtree(t, b)
	for _, variants := range []struct {
		name string
		opts Options
	}{
		{"Even", Options{}},
		{"Basic", Options{Traversal: TraverseBasic}},
		{"Simultaneous", Options{Traversal: TraverseSimultaneous}},
		{"BreadthFirst", Options{TieBreak: BreadthFirst}},
	} {
		t.Run(variants.name, func(t *testing.T) {
			j, err := NewJoinIndexes(ta, WrapQuadtree(qb), variants.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			got := drainJoin(t, j, 800)
			assertDistancesMatch(t, got, bruteJoin(a, b, geom.Euclidean))
		})
	}
}

// TestSemiJoinOverQuadtrees checks the semi-join with every filter on
// quadtree inputs, including the MaxPairs estimation (where a quadtree node
// other than the root counts no object: quadtrees have no minimum fill).
func TestSemiJoinOverQuadtrees(t *testing.T) {
	a := clusteredPoints(75, 90)
	b := clusteredPoints(76, 110)
	qa, qb := buildQuadtree(t, a), buildQuadtree(t, b)
	want := bruteSemiJoin(a, b, geom.Euclidean)
	for _, f := range allFilters {
		s, err := NewSemiJoinIndexes(WrapQuadtree(qa), WrapQuadtree(qb), f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := drainJoin(t, s, 0)
		s.Close()
		if len(got) != len(a) {
			t.Fatalf("filter %v: %d pairs, want %d", f, len(got), len(a))
		}
		for i, p := range got {
			if math.Abs(p.Dist-want[i].d) > 1e-9 {
				t.Fatalf("filter %v pair %d: %g want %g", f, i, p.Dist, want[i].d)
			}
		}
	}
	// MaxPairs over quadtrees.
	for _, k := range []int{1, 7, 40} {
		s, err := NewSemiJoinIndexes(WrapQuadtree(qa), WrapQuadtree(qb), FilterInside2, Options{MaxPairs: k})
		if err != nil {
			t.Fatal(err)
		}
		got := drainJoin(t, s, 0)
		s.Close()
		if len(got) != k {
			t.Fatalf("MaxPairs=%d delivered %d", k, len(got))
		}
		for i, p := range got {
			if math.Abs(p.Dist-want[i].d) > 1e-9 {
				t.Fatalf("MaxPairs=%d pair %d wrong", k, i)
			}
		}
	}
}

// TestJoinQuadtreeMaxPairsAndRange covers estimation and range pruning on
// quadtree region semantics (node regions are not minimal bounding boxes).
func TestJoinQuadtreeMaxPairsAndRange(t *testing.T) {
	a := clusteredPoints(77, 100)
	b := clusteredPoints(78, 100)
	qa, qb := buildQuadtree(t, a), buildQuadtree(t, b)
	want := bruteJoin(a, b, geom.Euclidean)

	j, err := NewJoinIndexes(WrapQuadtree(qa), WrapQuadtree(qb), Options{MaxPairs: 200})
	if err != nil {
		t.Fatal(err)
	}
	got := drainJoin(t, j, 0)
	j.Close()
	if len(got) != 200 {
		t.Fatalf("MaxPairs join: %d pairs", len(got))
	}
	assertDistancesMatch(t, got, want)

	const dmin, dmax = 30.0, 90.0
	j, err = NewJoinIndexes(WrapQuadtree(qa), WrapQuadtree(qb), Options{MinDist: dmin, MaxDist: dmax})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got = drainJoin(t, j, 0)
	var inRange []bruteResult
	for _, r := range want {
		if r.d >= dmin && r.d <= dmax {
			inRange = append(inRange, r)
		}
	}
	if len(got) != len(inRange) {
		t.Fatalf("range join over quadtrees: %d pairs, want %d", len(got), len(inRange))
	}
	assertDistancesMatch(t, got, inRange)
}

// TestJoinQuadtreeReverse checks farthest-first ordering over quadtrees
// (node keys use region-based upper bounds).
func TestJoinQuadtreeReverse(t *testing.T) {
	a := clusteredPoints(79, 40)
	b := clusteredPoints(80, 50)
	qa, qb := buildQuadtree(t, a), buildQuadtree(t, b)
	j, err := NewJoinIndexes(WrapQuadtree(qa), WrapQuadtree(qb), Options{Reverse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainJoin(t, j, 300)
	brute := bruteJoin(a, b, geom.Euclidean)
	for i, p := range got {
		want := brute[len(brute)-1-i].d
		if math.Abs(p.Dist-want) > 1e-9 {
			t.Fatalf("reverse pair %d: %g, want %g", i, p.Dist, want)
		}
	}
}

func TestWrapNil(t *testing.T) {
	if WrapRTree(nil) != nil {
		t.Fatal("WrapRTree(nil) not nil")
	}
	if WrapQuadtree(nil) != nil {
		t.Fatal("WrapQuadtree(nil) not nil")
	}
	if _, err := NewJoinIndexes(nil, nil, Options{}); err == nil {
		t.Fatal("nil indexes accepted")
	}
}

// TestPropRTreeQuadtreeAgree cross-validates the two index structures: for
// random data and random variants, joins over R-trees and joins over
// quadtrees must produce identical distance sequences.
func TestPropRTreeQuadtreeAgree(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		na, nb := 20+rnd.Intn(80), 20+rnd.Intn(80)
		a := clusteredPoints(seed*5+1, na)
		b := clusteredPoints(seed*5+2, nb)
		taR := WrapRTree(buildTree(t, a))
		tbR := WrapRTree(buildTree(t, b))
		taQ, tbQ := buildQuadtree(t, a), buildQuadtree(t, b)

		opts := Options{
			Traversal: Traversal(rnd.Intn(3)),
			TieBreak:  TieBreak(rnd.Intn(2)),
		}
		limit := 1 + rnd.Intn(na*nb)
		run := func(ix1, ix2 SpatialIndex) []float64 {
			j, err := NewJoinIndexes(ix1, ix2, opts)
			if err != nil {
				return nil
			}
			defer j.Close()
			var out []float64
			for len(out) < limit {
				p, ok, err := j.Next()
				if err != nil || !ok {
					break
				}
				out = append(out, p.Dist)
			}
			return out
		}
		dr := run(taR, tbR)
		dq := run(WrapQuadtree(taQ), WrapQuadtree(tbQ))
		dm := run(taR, WrapQuadtree(tbQ))
		if len(dr) != len(dq) || len(dr) != len(dm) {
			return false
		}
		for i := range dr {
			if math.Abs(dr[i]-dq[i]) > 1e-9 || math.Abs(dr[i]-dm[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
