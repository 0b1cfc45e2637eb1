package distjoin

import (
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

// TestAllocPairCodec gates the disk tier's codec: encoding allocates
// nothing, and decoding nothing per pair — decodeBatch pairs share one
// coordinate block.
func TestAllocPairCodec(t *testing.T) {
	skipUnderRace(t)
	for _, dims := range []int{2, 3, 5} {
		lo, hi := make(geom.Point, dims), make(geom.Point, dims)
		for i := range hi {
			hi[i] = float64(i + 1)
		}
		c := pairCodec{dims: dims}
		p := qpair{key: 3, i1: newItem(kindNode, 2, 7, geom.Rect{Lo: lo, Hi: hi}), i2: newItem(kindObj, -1, 9, hi.Rect())}
		buf := make([]byte, c.Size())
		if n := testing.AllocsPerRun(1000, func() { c.Encode(buf, p) }); n != 0 {
			t.Errorf("dims %d: Encode allocates %v times, want 0", dims, n)
		}
		const runs = 50 * decodeBatch
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if got := c.Decode(buf); got.i2.ref != 9 {
				t.Fatal("bad decode")
			}
		}
		runtime.ReadMemStats(&after)
		if blocks := after.Mallocs - before.Mallocs; blocks > runs/decodeBatch+1 {
			t.Errorf("dims %d: %d allocations for %d decodes, want one block per %d", dims, blocks, runs, decodeBatch)
		}
	}
}

// TestAllocPerDeliveredPair gates the engine as a whole on the memory queue:
// past the first pair, a drain of 20,000 pairs costs at most 4 allocations
// per delivered pair — the copy of the pair's rectangles, plus what a node
// coming into the buffer pool and a new slab chunk cost, spread over the
// pairs they serve.
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
			if per > 4 {
				t.Errorf("%.2f allocations per delivered pair over %d pairs, want <= 4", per, drain)
			}
		})
	}
}
