package distjoin

import (
	"math"
	"testing"

	"distjoin/internal/geom"
)

// bruteClusteringJoin runs the greedy mutual pairing: repeatedly take the
// globally closest pair among unconsumed objects and consume both.
func bruteClusteringJoin(a, b []geom.Point, m geom.Metric) []bruteResult {
	type cand struct {
		i, j int
		d    float64
	}
	var all []cand
	for i, p := range a {
		for j, q := range b {
			all = append(all, cand{i: i, j: j, d: m.Dist(p, q)})
		}
	}
	// Stable greedy: sort ascending, sweep, consume.
	for x := 1; x < len(all); x++ {
		for y := x; y > 0 && all[y].d < all[y-1].d; y-- {
			all[y], all[y-1] = all[y-1], all[y]
		}
	}
	usedA := map[int]bool{}
	usedB := map[int]bool{}
	var out []bruteResult
	for _, c := range all {
		if usedA[c.i] || usedB[c.j] {
			continue
		}
		usedA[c.i] = true
		usedB[c.j] = true
		out = append(out, bruteResult{i: c.i, j: c.j, d: c.d})
	}
	return out
}

func TestClusteringJoinMatchesGreedy(t *testing.T) {
	a := clusteredPoints(121, 60)
	b := clusteredPoints(122, 80)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	want := bruteClusteringJoin(a, b, geom.Euclidean)

	for _, f := range allFilters {
		s, err := NewClusteringJoinIndexes(ta, tb, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := drainJoin(t, s, 0)
		s.Close()
		if len(got) != len(want) {
			t.Fatalf("filter %v: %d pairs, want %d (= min cardinality %d)",
				f, len(got), len(want), len(a))
		}
		seenA := map[uint64]bool{}
		seenB := map[uint64]bool{}
		for i, p := range got {
			if math.Abs(p.Dist-want[i].d) > 1e-9 {
				t.Fatalf("filter %v pair %d: %g want %g", f, i, p.Dist, want[i].d)
			}
			if seenA[uint64(p.Obj1)] || seenB[uint64(p.Obj2)] {
				t.Fatalf("filter %v: object reused in pair %d", f, i)
			}
			seenA[uint64(p.Obj1)] = true
			seenB[uint64(p.Obj2)] = true
		}
	}
}

func TestClusteringJoinCardinality(t *testing.T) {
	// The clustering join pairs up min(|A|, |B|) objects.
	a := clusteredPoints(123, 25)
	b := clusteredPoints(124, 90)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	s, err := NewClusteringJoinIndexes(ta, tb, FilterInside2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := len(drainJoin(t, s, 0)); got != 25 {
		t.Fatalf("clustering join produced %d pairs, want 25", got)
	}
	// Reversed operands: still min cardinality.
	s2, err := NewClusteringJoinIndexes(tb, ta, FilterInside2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(drainJoin(t, s2, 0)); got != 25 {
		t.Fatalf("reversed clustering join produced %d pairs, want 25", got)
	}
}

func TestClusteringJoinSymmetryOfDistances(t *testing.T) {
	// Unlike the semi-join, the clustering join's DISTANCE MULTISET is
	// operand-order independent (the operation is symmetric, §1).
	a := clusteredPoints(125, 40)
	b := clusteredPoints(126, 40)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	s1, err := NewClusteringJoinIndexes(ta, tb, FilterInside2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d1 := []float64{}
	for _, p := range drainJoin(t, s1, 0) {
		d1 = append(d1, p.Dist)
	}
	s1.Close()
	s2, err := NewClusteringJoinIndexes(tb, ta, FilterInside2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d2 := []float64{}
	for _, p := range drainJoin(t, s2, 0) {
		d2 = append(d2, p.Dist)
	}
	s2.Close()
	if len(d1) != len(d2) {
		t.Fatalf("cardinalities differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if math.Abs(d1[i]-d2[i]) > 1e-9 {
			t.Fatalf("distance sequence differs at %d: %g vs %g", i, d1[i], d2[i])
		}
	}
}

func TestClusteringJoinWithMaxPairs(t *testing.T) {
	a := clusteredPoints(127, 50)
	b := clusteredPoints(128, 50)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	want := bruteClusteringJoin(a, b, geom.Euclidean)
	for _, k := range []int{1, 7, 30} {
		s, err := NewClusteringJoinIndexes(ta, tb, FilterInside2, Options{MaxPairs: k})
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
