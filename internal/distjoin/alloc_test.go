package distjoin

import (
	"math/rand"
	"runtime"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/racecheck"
	"distjoin/internal/rtree"
)

func skipUnderRace(t *testing.T) {
	t.Helper()
	if racecheck.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
}

// TestAllocMinOverFacesMaxDist gates the node/object d_max bound at zero
// allocations, for a point object and for a box.
func TestAllocMinOverFacesMaxDist(t *testing.T) {
	skipUnderRace(t)
	region := geom.R(geom.Pt(0, 0), geom.Pt(10, 10))
	box, pt := geom.R(geom.Pt(12, 3), geom.Pt(15, 8)), geom.Pt(20, 20).Rect()
	var sink float64
	for _, m := range []geom.Metric{geom.Manhattan, geom.Euclidean, geom.Chessboard, geom.Lp(3)} {
		if n := testing.AllocsPerRun(200, func() {
			sink += minOverFacesMaxDist(m, region, box) + minOverFacesMaxDist(m, region, pt)
		}); n != 0 {
			t.Errorf("%s: minOverFacesMaxDist allocates %v times, want 0", m.Name(), n)
		}
	}
	_ = sink
}

// TestAllocSpillRecord gates the hybrid queue's spill at zero allocations:
// once the class tails exist, an expansion whose children all lie beyond the
// list tier's bucket is written as records straight from the node's
// coordinate block, as is a single pair.
func TestAllocSpillRecord(t *testing.T) {
	skipUnderRace(t)
	q, _ := newSpillQueue(t, 2, 1<<16)
	node := randomBlockNode(rand.New(rand.NewSource(5)), true, 40)
	other := newItem(kindNode, 1, 7, geom.R(geom.Pt(0, 0), geom.Pt(1, 1)))
	single := qpair{key: 150, i1: newItem(kindObj, -1, 8, geom.Pt(2, 2).Rect()), i2: other}
	spill := func() {
		q.begin(other, node, 1, kindObj)
		for i := range 40 {
			q.collect(float64(2+7*i), i)
		}
		if err := q.end(); err != nil {
			t.Fatal(err)
		}
		if err := q.Insert(single); err != nil {
			t.Fatal(err)
		}
	}
	spill()
	if q.disk.Len() != 41 || len(q.heads) != 0 || len(q.list) != 0 {
		t.Fatalf("%d of 41 pairs spilled (%d in the heap, %d list blocks)", q.disk.Len(), len(q.heads), len(q.list))
	}
	if n := testing.AllocsPerRun(20, spill); n != 0 {
		t.Errorf("spilling an expansion and a single pair allocates %v times, want 0", n)
	}
}

// TestAllocPerDeliveredPair gates the engine as a whole on the memory queue:
// past the first pair, a drain of 20,000 pairs costs at most 0.1
// allocations per delivered pair. A pair allocates nothing of its own (its
// rectangles are carved from a chunk of 64 pairs); what is left is a new
// chunk, a node coming into the buffer pool and a new slab chunk, spread
// over the pairs they serve. Each case starts after a full collection:
// runtime.GC returns only once the heap is swept, so no lazy sweep of an
// earlier collection clears the trees' cached node decodes inside the
// window and makes the drain decode them again: without it the semi-join
// case read anywhere from 0.02 to 0.11.
func TestAllocPerDeliveredPair(t *testing.T) {
	skipUnderRace(t)
	a, b := clusteredPoints(41, 25_000), clusteredPoints(42, 30_000)
	build := func(pts []geom.Point) SpatialIndex {
		items := make([]rtree.Item, len(pts))
		for i, p := range pts {
			items[i] = rtree.Item{Rect: p.Rect(), Obj: rtree.ObjID(i)}
		}
		tr, err := rtree.BulkLoad(rtree.Config{Dims: 2}, items)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return WrapRTree(tr)
	}
	ia, ib := build(a), build(b)
	const drain = 20_000
	for _, c := range []struct {
		name string
		open func() (func() (Pair, bool, error), func() error)
	}{
		{"join", func() (func() (Pair, bool, error), func() error) {
			j, err := NewJoinIndexes(ia, ib, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return j.Next, j.Close
		}},
		{"semi-join/GlobalAll", func() (func() (Pair, bool, error), func() error) {
			s, err := NewSemiJoinIndexes(ia, ib, FilterGlobalAll, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return s.Next, s.Close
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			runtime.GC()
			next, closeFn := c.open()
			defer closeFn()
			if _, ok, err := next(); !ok || err != nil {
				t.Fatal("no first pair", err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < drain; i++ {
				if _, ok, err := next(); !ok || err != nil {
					t.Fatalf("drain ended at pair %d: %v", i, err)
				}
			}
			runtime.ReadMemStats(&after)
			per := float64(after.Mallocs-before.Mallocs) / drain
			t.Logf("%.2f allocations, %.0f bytes per delivered pair", per, float64(after.TotalAlloc-before.TotalAlloc)/drain)
			if per > 0.1 {
				t.Errorf("%.2f allocations per delivered pair over %d pairs, want <= 0.1", per, drain)
			}
		})
	}
}
