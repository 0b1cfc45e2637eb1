package distjoin

import (
	"math"
	"sort"
	"testing"

	"distjoin/internal/geom"
)

// bruteKNNJoin computes, for each point of a, its k nearest partners in b,
// all flattened and sorted ascending by distance.
func bruteKNNJoin(a, b []geom.Point, k int, m geom.Metric) []float64 {
	var out []float64
	for _, p := range a {
		ds := make([]float64, len(b))
		for j, q := range b {
			ds[j] = m.Dist(p, q)
		}
		sort.Float64s(ds)
		n := k
		if n > len(ds) {
			n = len(ds)
		}
		out = append(out, ds[:n]...)
	}
	sort.Float64s(out)
	return out
}

func TestKNearestJoinMatchesBruteForce(t *testing.T) {
	a := clusteredPoints(101, 60)
	b := clusteredPoints(102, 90)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	for _, k := range []int{1, 2, 3, 7} {
		for _, f := range []SemiFilter{FilterOutside, FilterInside1, FilterInside2} {
			s, err := NewKNearestJoinIndexes(ta, tb, k, f, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := drainJoin(t, s, 0)
			s.Close()
			want := bruteKNNJoin(a, b, k, geom.Euclidean)
			if len(got) != len(want) {
				t.Fatalf("k=%d filter=%v: %d pairs, want %d", k, f, len(got), len(want))
			}
			for i, p := range got {
				if math.Abs(p.Dist-want[i]) > 1e-9 {
					t.Fatalf("k=%d filter=%v pair %d: %g want %g", k, f, i, p.Dist, want[i])
				}
			}
			// Each first object appears exactly k times.
			counts := map[uint64]int{}
			for _, p := range got {
				counts[uint64(p.Obj1)]++
			}
			for id, c := range counts {
				if c != k {
					t.Fatalf("k=%d: object %d reported %d times", k, id, c)
				}
			}
		}
	}
}

// TestKNearestJoinPartnersDistinct checks each first object's k partners
// are k distinct second objects (its true k nearest).
func TestKNearestJoinPartnersDistinct(t *testing.T) {
	a := clusteredPoints(103, 40)
	b := clusteredPoints(104, 60)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	const k = 4
	s, err := NewKNearestJoinIndexes(ta, tb, k, FilterInside2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	partners := map[uint64]map[uint64]bool{}
	for _, p := range drainJoin(t, s, 0) {
		if partners[uint64(p.Obj1)] == nil {
			partners[uint64(p.Obj1)] = map[uint64]bool{}
		}
		if partners[uint64(p.Obj1)][uint64(p.Obj2)] {
			t.Fatalf("object %d paired with %d twice", p.Obj1, p.Obj2)
		}
		partners[uint64(p.Obj1)][uint64(p.Obj2)] = true
	}
	for i, p := range a {
		// The partner set must be exactly the k nearest in b.
		type dj struct {
			d float64
			j int
		}
		ds := make([]dj, len(b))
		for j, q := range b {
			ds[j] = dj{d: geom.Euclidean.Dist(p, q), j: j}
		}
		sort.Slice(ds, func(x, y int) bool { return ds[x].d < ds[y].d })
		for _, want := range ds[:k] {
			if !partners[uint64(i)][uint64(want.j)] {
				// Ties make the exact set ambiguous; accept a partner at
				// the same distance.
				found := false
				for j := range partners[uint64(i)] {
					if math.Abs(geom.Euclidean.Dist(p, b[j])-want.d) < 1e-9 {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("object %d missing k-NN partner %d", i, want.j)
				}
			}
		}
	}
}

// TestKNearestJoinClampsAggressiveFilters verifies k > 1 degrades
// Local/Global filters to a sound level and still returns correct results.
func TestKNearestJoinClampsAggressiveFilters(t *testing.T) {
	a := clusteredPoints(105, 50)
	b := clusteredPoints(106, 70)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	want := bruteKNNJoin(a, b, 3, geom.Euclidean)
	for _, f := range []SemiFilter{FilterLocal, FilterGlobalNodes, FilterGlobalAll} {
		s, err := NewKNearestJoinIndexes(ta, tb, 3, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := drainJoin(t, s, 0)
		s.Close()
		if len(got) != len(want) {
			t.Fatalf("filter %v: %d pairs, want %d", f, len(got), len(want))
		}
		for i, p := range got {
			if math.Abs(p.Dist-want[i]) > 1e-9 {
				t.Fatalf("filter %v pair %d wrong", f, i)
			}
		}
	}
}

func TestKNearestJoinKLargerThanInner(t *testing.T) {
	a := clusteredPoints(107, 20)
	b := clusteredPoints(108, 5)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	s, err := NewKNearestJoinIndexes(ta, tb, 10, FilterInside2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := drainJoin(t, s, 0)
	// Only 5 partners exist per object.
	if len(got) != 20*5 {
		t.Fatalf("got %d pairs, want %d", len(got), 20*5)
	}
}

func TestKNearestJoinValidation(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(109, 5)))
	tb := WrapRTree(buildTree(t, clusteredPoints(110, 5)))
	if _, err := NewKNearestJoinIndexes(ta, tb, 0, FilterInside2, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestKNearestJoinWithMaxPairs(t *testing.T) {
	a := clusteredPoints(111, 80)
	b := clusteredPoints(112, 80)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	want := bruteKNNJoin(a, b, 2, geom.Euclidean)
	for _, mp := range []int{1, 15, 60} {
		s, err := NewKNearestJoinIndexes(ta, tb, 2, FilterInside2, Options{MaxPairs: mp})
		if err != nil {
			t.Fatal(err)
		}
		got := drainJoin(t, s, 0)
		s.Close()
		if len(got) != mp {
			t.Fatalf("MaxPairs=%d delivered %d", mp, len(got))
		}
		for i, p := range got {
			if math.Abs(p.Dist-want[i]) > 1e-9 {
				t.Fatalf("MaxPairs=%d pair %d: %g want %g", mp, i, p.Dist, want[i])
			}
		}
	}
}

// TestAllNearestNeighbors runs the classic ANN computation: the 1-nearest
// join of a dataset with itself, excluding the identity pairs.
func TestAllNearestNeighbors(t *testing.T) {
	pts := clusteredPoints(113, 100)
	tr := WrapRTree(buildTree(t, pts))
	for _, f := range []SemiFilter{FilterInside2, FilterGlobalAll} {
		s, err := NewKNearestJoinIndexes(tr, tr, 1, f, Options{OmitEqualIDs: true})
		if err != nil {
			t.Fatal(err)
		}
		got := drainJoin(t, s, 0)
		s.Close()
		if len(got) != len(pts) {
			t.Fatalf("filter %v: ANN returned %d pairs, want %d", f, len(got), len(pts))
		}
		for _, p := range got {
			if p.Obj1 == p.Obj2 {
				t.Fatalf("identity pair reported: %d", p.Obj1)
			}
			best := math.Inf(1)
			for j, q := range pts {
				if j == int(p.Obj1) {
					continue
				}
				if d := geom.Euclidean.Dist(pts[p.Obj1], q); d < best {
					best = d
				}
			}
			if math.Abs(p.Dist-best) > 1e-9 {
				t.Fatalf("object %d: ANN %g, true %g", p.Obj1, p.Dist, best)
			}
		}
	}
}

// TestJoinOmitEqualIDs checks the plain join drops only the diagonal.
func TestJoinOmitEqualIDs(t *testing.T) {
	pts := clusteredPoints(114, 30)
	tr := WrapRTree(buildTree(t, pts))
	j, err := NewJoinIndexes(tr, tr, Options{OmitEqualIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainJoin(t, j, 0)
	if len(got) != 30*30-30 {
		t.Fatalf("self join without diagonal: %d pairs, want %d", len(got), 30*29)
	}
	for _, p := range got {
		if p.Obj1 == p.Obj2 {
			t.Fatal("diagonal pair present")
		}
	}
}
