package distjoin_test

import (
	"math"
	"sort"
	"testing"

	"distjoin"
)

func TestKClosestPairs(t *testing.T) {
	a := randomPoints(21, 80)
	b := randomPoints(22, 90)
	ia := distjoin.NewIndexFromPoints(a)
	defer ia.Close()
	ib := distjoin.NewIndexFromPoints(b)
	defer ib.Close()

	var want []float64
	for _, p := range a {
		for _, q := range b {
			want = append(want, distjoin.Euclidean.Dist(p, q))
		}
	}
	sort.Float64s(want)

	for _, k := range []int{1, 5, 50} {
		pairs, err := distjoin.KClosestPairs(ia, ib, k, distjoin.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != k {
			t.Fatalf("k=%d returned %d pairs", k, len(pairs))
		}
		for i, p := range pairs {
			if math.Abs(p.Dist-want[i]) > 1e-9 {
				t.Fatalf("k=%d pair %d: %g want %g", k, i, p.Dist, want[i])
			}
		}
	}
	// k larger than the product: everything comes back.
	pairs, err := distjoin.KClosestPairs(ia, ib, len(a)*len(b)+10, distjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(a)*len(b) {
		t.Fatalf("oversized k returned %d", len(pairs))
	}
	// k <= 0 is a no-op.
	if pairs, err := distjoin.KClosestPairs(ia, ib, 0, distjoin.Options{}); err != nil || pairs != nil {
		t.Fatal("k=0 misbehaved")
	}
}

func TestClosestPair(t *testing.T) {
	a := randomPoints(23, 40)
	b := randomPoints(24, 40)
	ia := distjoin.NewIndexFromPoints(a)
	defer ia.Close()
	ib := distjoin.NewIndexFromPoints(b)
	defer ib.Close()
	p, ok, err := distjoin.ClosestPair(ia, ib, distjoin.Options{})
	if err != nil || !ok {
		t.Fatalf("ClosestPair: %v %v", ok, err)
	}
	best := math.Inf(1)
	for _, x := range a {
		for _, y := range b {
			if d := distjoin.Euclidean.Dist(x, y); d < best {
				best = d
			}
		}
	}
	if math.Abs(p.Dist-best) > 1e-9 {
		t.Fatalf("ClosestPair dist %g, want %g", p.Dist, best)
	}
	empty := distjoin.NewIndexFromPoints(nil)
	defer empty.Close()
	if _, ok, err := distjoin.ClosestPair(ia, empty, distjoin.Options{}); err != nil || ok {
		t.Fatal("ClosestPair on empty input misbehaved")
	}
}

func TestWithinPairs(t *testing.T) {
	a := randomPoints(25, 60)
	b := randomPoints(26, 60)
	ia := distjoin.NewIndexFromPoints(a)
	defer ia.Close()
	ib := distjoin.NewIndexFromPoints(b)
	defer ib.Close()
	const maxDist = 8.0
	want := 0
	for _, p := range a {
		for _, q := range b {
			if distjoin.Euclidean.Dist(p, q) <= maxDist {
				want++
			}
		}
	}
	got := 0
	last := -1.0
	err := distjoin.WithinPairs(ia, ib, maxDist, distjoin.Options{}, func(p distjoin.Pair) bool {
		if p.Dist > maxDist || p.Dist < last {
			t.Fatalf("bad pair: dist %g after %g", p.Dist, last)
		}
		last = p.Dist
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("WithinPairs visited %d, want %d", got, want)
	}
	// Early stop.
	calls := 0
	distjoin.WithinPairs(ia, ib, maxDist, distjoin.Options{}, func(distjoin.Pair) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("early stop ran %d callbacks", calls)
	}
}

func TestAssignNearest(t *testing.T) {
	stores := randomPoints(27, 70)
	warehouses := randomPoints(28, 6)
	is := distjoin.NewIndexFromPoints(stores)
	defer is.Close()
	iw := distjoin.NewIndexFromPoints(warehouses)
	defer iw.Close()
	assign, err := distjoin.AssignNearest(is, iw, distjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != len(stores) {
		t.Fatalf("assigned %d stores", len(assign))
	}
	for id, p := range assign {
		best := math.Inf(1)
		for _, w := range warehouses {
			if d := distjoin.Euclidean.Dist(stores[id], w); d < best {
				best = d
			}
		}
		if math.Abs(p.Dist-best) > 1e-9 {
			t.Fatalf("store %d assigned at %g, nearest %g", id, p.Dist, best)
		}
	}
}

func TestAllNearestNeighbors(t *testing.T) {
	pts := randomPoints(29, 80)
	idx := distjoin.NewIndexFromPoints(pts)
	defer idx.Close()
	res, err := distjoin.AllNearestNeighbors(idx, distjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(pts) {
		t.Fatalf("ANN returned %d, want %d", len(res), len(pts))
	}
	if !sort.SliceIsSorted(res, func(i, j int) bool { return res[i].Dist < res[j].Dist }) {
		t.Fatal("ANN results unsorted")
	}
	for _, p := range res {
		if p.Obj1 == p.Obj2 {
			t.Fatal("self pair in ANN")
		}
		best := math.Inf(1)
		for j, q := range pts {
			if j == int(p.Obj1) {
				continue
			}
			if d := distjoin.Euclidean.Dist(pts[p.Obj1], q); d < best {
				best = d
			}
		}
		if math.Abs(p.Dist-best) > 1e-9 {
			t.Fatalf("object %d: %g, true nearest-other %g", p.Obj1, p.Dist, best)
		}
	}
}

func TestPublicKNearestJoin(t *testing.T) {
	a := randomPoints(30, 40)
	b := randomPoints(31, 50)
	ia := distjoin.NewIndexFromPoints(a)
	defer ia.Close()
	ib := distjoin.NewIndexFromPoints(b)
	defer ib.Close()
	s, err := distjoin.KNearestJoinIndexes(ia.AsSpatialIndex(), ib.AsSpatialIndex(), 3, distjoin.FilterInside2, distjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	count := 0
	for {
		_, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != len(a)*3 {
		t.Fatalf("3-NN join returned %d pairs, want %d", count, len(a)*3)
	}
}

func TestPublicClusteringJoin(t *testing.T) {
	a := randomPoints(34, 30)
	b := randomPoints(35, 45)
	ia := distjoin.NewIndexFromPoints(a)
	defer ia.Close()
	ib := distjoin.NewIndexFromPoints(b)
	defer ib.Close()
	s, err := distjoin.ClusteringJoinIndexes(ia.AsSpatialIndex(), ib.AsSpatialIndex(), distjoin.FilterInside2, distjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seenA := map[distjoin.ObjID]bool{}
	seenB := map[distjoin.ObjID]bool{}
	count := 0
	last := -1.0
	for {
		p, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if seenA[p.Obj1] || seenB[p.Obj2] {
			t.Fatal("object reused")
		}
		if p.Dist < last {
			t.Fatal("order violated")
		}
		last = p.Dist
		seenA[p.Obj1] = true
		seenB[p.Obj2] = true
		count++
	}
	if count != 30 {
		t.Fatalf("clustering join produced %d pairs, want 30", count)
	}
}
