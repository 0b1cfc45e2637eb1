package distjoin

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
)

// randomSegments draws short random segments in the unit-kilometre world.
func randomSegments(seed int64, n int) []geom.Segment {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]geom.Segment, n)
	for i := range out {
		x, y := rnd.Float64()*900, rnd.Float64()*900
		ang := rnd.Float64() * 2 * math.Pi
		l := 5 + rnd.Float64()*60
		out[i] = geom.Seg(
			geom.Pt(x, y),
			geom.Pt(x+math.Cos(ang)*l, y+math.Sin(ang)*l))
	}
	return out
}

func segTree(t *testing.T, segs []geom.Segment) *rtree.Tree {
	t.Helper()
	items := make([]rtree.Item, len(segs))
	for i, s := range segs {
		items[i] = rtree.Item{Rect: s.BBox(), Obj: rtree.ObjID(i)}
	}
	tr, err := rtree.BulkLoad(rtree.Config{Dims: 2, PageSize: 512, BufferFrames: 32}, items)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestSegmentJoin runs the distance join over LINE SEGMENT objects — the
// paper's named future-work case (§3.1): bounding rectangles in the index,
// exact segment-to-segment distance through the ExactDist callback.
func TestSegmentJoin(t *testing.T) {
	sa := randomSegments(1, 80)
	sb := randomSegments(2, 90)
	ta, tb := segTree(t, sa), segTree(t, sb)
	j, err := NewJoinIndexes(WrapRTree(ta), WrapRTree(tb), Options{
		ExactDist: func(o1, o2 rtree.ObjID) (float64, error) {
			return geom.SegmentDist(sa[o1], sb[o2]), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainJoin(t, j, 500)

	var want []float64
	for _, p := range sa {
		for _, q := range sb {
			want = append(want, geom.SegmentDist(p, q))
		}
	}
	sort.Float64s(want)
	if len(got) != 500 {
		t.Fatalf("drained %d", len(got))
	}
	for i, p := range got {
		if math.Abs(p.Dist-want[i]) > 1e-9 {
			t.Fatalf("segment pair %d: %g want %g", i, p.Dist, want[i])
		}
	}
}

// TestSegmentSemiJoin: for each segment of A, its nearest segment of B.
func TestSegmentSemiJoin(t *testing.T) {
	sa := randomSegments(3, 60)
	sb := randomSegments(4, 70)
	ta, tb := segTree(t, sa), segTree(t, sb)
	s, err := NewSemiJoinIndexes(WrapRTree(ta), WrapRTree(tb), FilterInside2, Options{
		ExactDist: func(o1, o2 rtree.ObjID) (float64, error) {
			return geom.SegmentDist(sa[o1], sb[o2]), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := drainJoin(t, s, 0)
	if len(got) != len(sa) {
		t.Fatalf("segment semi-join: %d pairs, want %d", len(got), len(sa))
	}
	var want []float64
	for _, p := range sa {
		best := math.Inf(1)
		for _, q := range sb {
			if d := geom.SegmentDist(p, q); d < best {
				best = d
			}
		}
		want = append(want, best)
	}
	sort.Float64s(want)
	for i, p := range got {
		if math.Abs(p.Dist-want[i]) > 1e-9 {
			t.Fatalf("pair %d: %g want %g", i, p.Dist, want[i])
		}
	}
}

// TestSegmentJoinWithRange: intersecting-road detection as a MaxDist 0 join
// over segments (§2.2.5's "pairs required to intersect").
func TestSegmentJoinIntersections(t *testing.T) {
	sa := randomSegments(5, 120)
	sb := randomSegments(6, 120)
	ta, tb := segTree(t, sa), segTree(t, sb)
	// MaxDist epsilon: exact 0 pairs only (floating point makes exactly-0
	// robust here since SegmentDist returns 0 for true intersections).
	j, err := NewJoinIndexes(WrapRTree(ta), WrapRTree(tb), Options{
		MaxDist: 1e-12,
		ExactDist: func(o1, o2 rtree.ObjID) (float64, error) {
			return geom.SegmentDist(sa[o1], sb[o2]), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainJoin(t, j, 0)
	want := 0
	for _, p := range sa {
		for _, q := range sb {
			if geom.SegmentDist(p, q) <= 1e-12 {
				want++
			}
		}
	}
	if len(got) != want {
		t.Fatalf("intersection count %d, want %d", len(got), want)
	}
}

func TestExactDistValidation(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(83, 5)))
	tb := WrapRTree(buildTree(t, clusteredPoints(84, 5)))
	ed := func(rtree.ObjID, rtree.ObjID) (float64, error) { return 0, nil }
	if _, err := NewJoinIndexes(ta, tb, Options{ExactDist: ed, Reverse: true}); err == nil {
		t.Fatal("ExactDist + Reverse accepted")
	}
	if _, err := NewJoinIndexes(ta, tb, Options{ExactDist: ed, OrderIntersectionsFrom: geom.Pt(0, 0)}); err == nil {
		t.Fatal("ExactDist + intersection ordering accepted")
	}
}
