package distjoin_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"distjoin"
	"distjoin/internal/datagen"
)

func randomPoints(seed int64, n int) []distjoin.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]distjoin.Point, n)
	for i := range pts {
		pts[i] = distjoin.Pt(rnd.Float64()*100, rnd.Float64()*100)
	}
	return pts
}

func TestPublicAPIQuickstart(t *testing.T) {
	a := randomPoints(1, 100)
	b := randomPoints(2, 120)
	ia := distjoin.NewIndexFromPoints(a)
	defer ia.Close()
	ib := distjoin.NewIndexFromPoints(b)
	defer ib.Close()

	j, err := distjoin.DistanceJoinIndexes(ia.AsSpatialIndex(), ib.AsSpatialIndex(), distjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	var dists []float64
	for len(dists) < 50 {
		p, ok, err := j.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		dists = append(dists, p.Dist)
	}
	// Verify ascending order and correctness of the first pair.
	best := math.Inf(1)
	for _, p := range a {
		for _, q := range b {
			if d := distjoin.Euclidean.Dist(p, q); d < best {
				best = d
			}
		}
	}
	if math.Abs(dists[0]-best) > 1e-9 {
		t.Fatalf("first pair dist %g, true closest %g", dists[0], best)
	}
	if !sort.Float64sAreSorted(dists) {
		t.Fatal("pairs not in ascending distance order")
	}
}

func TestPublicAPISemiJoin(t *testing.T) {
	stores := randomPoints(3, 60)
	warehouses := randomPoints(4, 8)
	is := distjoin.NewIndexFromPoints(stores)
	defer is.Close()
	iw := distjoin.NewIndexFromPoints(warehouses)
	defer iw.Close()

	s, err := distjoin.DistanceSemiJoinIndexes(is.AsSpatialIndex(), iw.AsSpatialIndex(), distjoin.FilterGlobalAll, distjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	count := 0
	for {
		p, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		// Assignment must be to the true nearest warehouse.
		best := math.Inf(1)
		for _, w := range warehouses {
			if d := distjoin.Euclidean.Dist(stores[p.Obj1], w); d < best {
				best = d
			}
		}
		if math.Abs(p.Dist-best) > 1e-9 {
			t.Fatalf("store %d: %g vs nearest %g", p.Obj1, p.Dist, best)
		}
		count++
	}
	if count != len(stores) {
		t.Fatalf("semi-join reported %d stores, want %d", count, len(stores))
	}
}

func TestPublicAPINearestNeighbors(t *testing.T) {
	pts := randomPoints(5, 200)
	idx := distjoin.NewIndexFromPoints(pts)
	defer idx.Close()
	q := distjoin.Pt(50, 50)
	res, err := distjoin.KNearest(idx, q, 10, distjoin.NNOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("got %d neighbours", len(res))
	}
	want := make([]float64, len(pts))
	for i, p := range pts {
		want[i] = distjoin.Euclidean.Dist(q, p)
	}
	sort.Float64s(want)
	for i, r := range res {
		if math.Abs(r.Dist-want[i]) > 1e-9 {
			t.Fatalf("neighbour %d: %g, want %g", i, r.Dist, want[i])
		}
	}
}

func TestPublicAPIIndexCRUD(t *testing.T) {
	idx, err := distjoin.NewIndex(distjoin.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for i, p := range randomPoints(6, 300) {
		if err := idx.InsertPoint(p, distjoin.ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Len() != 300 {
		t.Fatalf("Len = %d", idx.Len())
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	found := 0
	idx.Search(distjoin.R(distjoin.Pt(0, 0), distjoin.Pt(100, 100)), func(distjoin.Rect, distjoin.ObjID) bool {
		found++
		return true
	})
	if found != 300 {
		t.Fatalf("search found %d", found)
	}
	pts := randomPoints(6, 300)
	ok, err := idx.Delete(pts[0].Rect(), 0)
	if err != nil || !ok {
		t.Fatalf("delete failed: %v %v", ok, err)
	}
	if idx.Len() != 299 {
		t.Fatalf("Len after delete = %d", idx.Len())
	}
}

// TestPublicAPIRefusesNonFinite: a NaN or infinite coordinate, distance bound
// or queue increment is an error at the call that would let it in.
func TestPublicAPIRefusesNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	idx := distjoin.NewIndexFromPoints(randomPoints(7, 20))
	defer idx.Close()
	if err := idx.InsertPoint(distjoin.Pt(inf, 1), 99); err == nil {
		t.Error("Index.InsertPoint accepted +Inf")
	}
	if _, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, []distjoin.Point{distjoin.Pt(1, -inf)}); err == nil {
		t.Error("BulkIndexPoints accepted -Inf")
	}
	if _, err := distjoin.NewQuadIndex(distjoin.QuadConfig{Bounds: distjoin.R(distjoin.Pt(0, 0), distjoin.Pt(inf, 100))}); err == nil {
		t.Error("NewQuadIndex accepted a half-infinite world")
	}
	q, err := distjoin.NewQuadIndex(distjoin.QuadConfig{Bounds: distjoin.R(distjoin.Pt(0, 0), distjoin.Pt(100, 100))})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.InsertPoint(distjoin.Pt(nan, 1), 0); err == nil {
		t.Error("QuadIndex.InsertPoint accepted NaN")
	}
	for name, opts := range map[string]distjoin.Options{
		"MinDist":  {MinDist: nan},
		"MaxDist":  {MaxDist: nan},
		"HybridDT": {Queue: distjoin.QueueHybrid, HybridDT: nan, QueueStore: distjoin.NewMemPageStore},
	} {
		if j, err := distjoin.DistanceJoinIndexes(idx.AsSpatialIndex(), idx.AsSpatialIndex(), opts); err == nil {
			j.Close()
			t.Errorf("DistanceJoinIndexes accepted a NaN %s", name)
		}
	}
}

func TestPublicAPIStats(t *testing.T) {
	a := randomPoints(7, 500)
	b := randomPoints(8, 500)
	ia := distjoin.NewIndexFromPoints(a)
	defer ia.Close()
	ib := distjoin.NewIndexFromPoints(b)
	defer ib.Close()
	c := &distjoin.Stats{}
	ia.SetCounters(c)
	ib.SetCounters(c)
	j, err := distjoin.DistanceJoinIndexes(ia.AsSpatialIndex(), ib.AsSpatialIndex(), distjoin.Options{Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 100; i++ {
		if _, ok, err := j.Next(); err != nil || !ok {
			t.Fatalf("Next %d: %v %v", i, ok, err)
		}
	}
	if c.DistCalcs == 0 || c.MaxQueueSize == 0 || c.PairsReported != 100 {
		t.Fatalf("counters not recording: %+v", c)
	}
}

// TestTraceResourcesAgreeWithStats runs a join under a QueryTracer and checks
// the trace's resources against the run's own Stats snapshot on every field
// they share.
func TestTraceResourcesAgreeWithStats(t *testing.T) {
	ia, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, datagen.Water(606, 400))
	if err != nil {
		t.Fatal(err)
	}
	defer ia.Close()
	ib, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, datagen.Roads(607, 800))
	if err != nil {
		t.Fatal(err)
	}
	defer ib.Close()

	c := &distjoin.Stats{}
	ia.SetCounters(c)
	ib.SetCounters(c)
	tracer := distjoin.NewQueryTracer(distjoin.QueryTraceConfig{})
	j, err := distjoin.DistanceJoinIndexes(ia.AsSpatialIndex(), ib.AsSpatialIndex(), distjoin.Options{MaxDist: 40, Counters: c, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	var nPairs int64
	for {
		_, ok, err := j.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		nPairs++
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if nPairs == 0 {
		t.Fatal("no pairs within the distance bound; widen it")
	}
	snap := c.Snapshot()
	got := tracer.Traces()[0].Resources
	want := distjoin.QueryResources{
		Pairs:          snap.PairsReported,
		DistCalcs:      snap.DistCalcs,
		NodeDistCalcs:  snap.NodeDistCalcs,
		NodeIO:         snap.NodeReads + snap.NodeWrites,
		BufferHits:     snap.BufferHits,
		QueueInserts:   snap.QueueInserts,
		QueuePops:      snap.QueuePops,
		QueueDiskPairs: snap.QueueDiskPairs,
		IOFaults:       snap.IOFaults,
		IORetries:      snap.IORetries,
		BatchPruned:    snap.BatchPruned,
		Filtered:       snap.Filtered,
		PeakQueueDepth: snap.MaxQueueSize,
	}
	if got != want {
		t.Errorf("trace resources disagree with Stats:\ntrace %+v\nstats %+v", got, want)
	}
	if got.Pairs != nPairs || got.NodeIO+got.BufferHits == 0 {
		t.Errorf("resources %+v: drained %d pairs, and the run must have touched index nodes", got, nPairs)
	}
}

func TestPublicAPICloseTwice(t *testing.T) {
	idx := distjoin.NewIndexFromPoints(randomPoints(9, 5))
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err == nil {
		t.Fatal("double close succeeded")
	}
}

func TestPublicAPIQuadIndexAndMixedJoin(t *testing.T) {
	a := randomPoints(11, 150)
	b := randomPoints(12, 180)
	rIdx := distjoin.NewIndexFromPoints(a)
	defer rIdx.Close()
	qIdx, err := distjoin.NewQuadIndex(distjoin.QuadConfig{
		Bounds: distjoin.R(distjoin.Pt(0, 0), distjoin.Pt(100, 100)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range b {
		if err := qIdx.InsertPoint(p, distjoin.ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if qIdx.Len() != len(b) {
		t.Fatalf("quad Len = %d", qIdx.Len())
	}

	// Heterogeneous join: R*-tree against quadtree.
	j, err := distjoin.DistanceJoinIndexes(rIdx.AsSpatialIndex(), qIdx.AsSpatialIndex(), distjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var dists []float64
	for len(dists) < 400 {
		p, ok, err := j.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		dists = append(dists, p.Dist)
	}
	if !sort.Float64sAreSorted(dists) {
		t.Fatal("mixed join out of order")
	}
	// Spot check the first pair against brute force.
	best := math.Inf(1)
	for _, p := range a {
		for _, q := range b {
			if d := distjoin.Euclidean.Dist(p, q); d < best {
				best = d
			}
		}
	}
	if math.Abs(dists[0]-best) > 1e-9 {
		t.Fatalf("first mixed pair %g, want %g", dists[0], best)
	}

	// Semi-join over the mixed indexes.
	s, err := distjoin.DistanceSemiJoinIndexes(qIdx.AsSpatialIndex(), rIdx.AsSpatialIndex(),
		distjoin.FilterGlobalAll, distjoin.Options{})
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
	if count != len(b) {
		t.Fatalf("mixed semi-join reported %d, want %d", count, len(b))
	}

	// Quadtree search and delete round-trip.
	found := 0
	qIdx.Search(distjoin.R(distjoin.Pt(0, 0), distjoin.Pt(100, 100)), func(distjoin.Point, distjoin.ObjID) bool {
		found++
		return true
	})
	if found != len(b) {
		t.Fatalf("quad search found %d", found)
	}
	if !qIdx.Delete(b[0], 0) {
		t.Fatal("quad delete failed")
	}
	if qIdx.Len() != len(b)-1 {
		t.Fatal("quad Len after delete wrong")
	}
}

func TestPublicAPIPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.pages")
	pts := randomPoints(13, 500)
	idx, err := distjoin.CreateIndexFile(path, distjoin.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := idx.InsertPoint(p, distjoin.ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := distjoin.OpenIndexFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(pts) {
		t.Fatalf("reopened index Len = %d", re.Len())
	}
	// The reopened index joins correctly against a fresh one.
	other := distjoin.NewIndexFromPoints(randomPoints(14, 100))
	defer other.Close()
	p, ok, err := distjoin.ClosestPair(re, other, distjoin.Options{})
	if err != nil || !ok {
		t.Fatalf("join over reopened index: %v %v", ok, err)
	}
	if p.Dist < 0 {
		t.Fatal("nonsense distance")
	}
}

func TestPublicAPISurface(t *testing.T) {
	// Exercise the remaining small facade surfaces: Lp, BulkIndex over
	// rectangles, Insert, Scan, Height, Bounds, Tree, NearestNeighbors and
	// QuadIndex.Bounds.
	if distjoin.Lp(2) != distjoin.Euclidean {
		t.Fatal("Lp(2) != Euclidean")
	}
	items := []distjoin.IndexItem{
		{Rect: distjoin.R(distjoin.Pt(0, 0), distjoin.Pt(2, 2)), Obj: 7},
		{Rect: distjoin.R(distjoin.Pt(5, 5), distjoin.Pt(6, 8)), Obj: 9},
	}
	idx, err := distjoin.BulkIndex(distjoin.IndexConfig{}, items)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.Insert(distjoin.R(distjoin.Pt(1, 1), distjoin.Pt(3, 3)), 11); err != nil {
		t.Fatal(err)
	}
	seen := map[distjoin.ObjID]bool{}
	idx.Scan(func(r distjoin.Rect, id distjoin.ObjID) bool {
		seen[id] = true
		return true
	})
	if len(seen) != 3 || !seen[7] || !seen[9] || !seen[11] {
		t.Fatalf("Scan saw %v", seen)
	}
	if idx.Height() < 1 {
		t.Fatal("Height")
	}
	if b, ok := idx.Bounds(); !ok || !b.ContainsPoint(distjoin.Pt(6, 8)) {
		t.Fatalf("Bounds = %v %v", b, ok)
	}
	if idx.Tree() == nil {
		t.Fatal("Tree accessor nil")
	}

	it, err := distjoin.NearestNeighbors(idx, distjoin.Pt(0, 0), distjoin.NNOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, ok, err := it.Next()
	if err != nil || !ok {
		t.Fatalf("NearestNeighbors: %v %v", ok, err)
	}
	if r.Dist != 0 { // query point touches the first rectangle
		t.Fatalf("first neighbour dist %g", r.Dist)
	}

	q, err := distjoin.NewQuadIndex(distjoin.QuadConfig{
		Bounds: distjoin.R(distjoin.Pt(0, 0), distjoin.Pt(10, 10)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !q.Bounds().ContainsPoint(distjoin.Pt(5, 5)) {
		t.Fatal("QuadIndex.Bounds wrong")
	}
}

// TestKNearestJoinMaxPairsNoDuplicates bounds a kNN join (k = 3, GlobalAll)
// by MaxPairs with an ExactDist hook up to 160 beyond the point distance,
// over TestWorkCounters' data: a run whose bound overshoots here has fewer
// than 20 pairs left to find, and re-running it re-derives six partners it
// already delivered. It must deliver each pair once: exactly the unbounded
// run's first 20.
func TestKNearestJoinMaxPairsNoDuplicates(t *testing.T) {
	wp, rp := datagen.Water(1998, 800), datagen.Roads(1999, 1_600)
	water, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, wp)
	if err != nil {
		t.Fatal(err)
	}
	defer water.Close()
	roads, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, rp)
	if err != nil {
		t.Fatal(err)
	}
	defer roads.Close()
	exact := func(a, b distjoin.ObjID) (float64, error) {
		return distjoin.Euclidean.Dist(wp[a], rp[b]) + float64(40*((7*a+13*b)%5)), nil
	}
	run := func(maxPairs int) []distjoin.Pair {
		j, err := distjoin.KNearestJoinIndexes(water.AsSpatialIndex(), roads.AsSpatialIndex(), 3,
			distjoin.FilterGlobalAll, distjoin.Options{ExactDist: exact, MaxPairs: maxPairs})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		var out []distjoin.Pair
		for len(out) < 20 {
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
	want, got := run(0), run(20)
	seen := make(map[[2]distjoin.ObjID]bool)
	for _, p := range got {
		if k := [2]distjoin.ObjID{p.Obj1, p.Obj2}; seen[k] {
			t.Errorf("pair %d:%d delivered twice", p.Obj1, p.Obj2)
		} else {
			seen[k] = true
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MaxPairs 20 delivered %d pairs that differ from the unbounded run's first %d", len(got), len(want))
	}
}
