package inn

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"distjoin/internal/geom"
	"distjoin/internal/quadtree"
	"distjoin/internal/rtree"
	"distjoin/internal/spatial"
)

// buildTree bulk-loads pts into an R*-tree and returns it as the index the
// search runs over.
func buildTree(t testing.TB, pts []geom.Point) spatial.Index {
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
		pts[i] = geom.Pt(rnd.Float64()*1000, rnd.Float64()*1000)
	}
	return pts
}

func TestNNOrderMatchesBruteForce(t *testing.T) {
	pts := randPts(1, 500)
	tr := buildTree(t, pts)
	q := geom.Pt(333, 444)
	it, err := New(tr, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, r.Dist)
	}
	if len(got) != len(pts) {
		t.Fatalf("iterated %d results, want %d", len(got), len(pts))
	}
	want := make([]float64, len(pts))
	for i, p := range pts {
		want[i] = geom.Euclidean.Dist(q, p)
	}
	sort.Float64s(want)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("neighbour %d: %g, want %g", i, got[i], want[i])
		}
	}
}

func TestNNFirstIsNearest(t *testing.T) {
	pts := randPts(2, 300)
	tr := buildTree(t, pts)
	q := geom.Pt(500, 500)
	res, err := Nearest(tr, q, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	best := math.Inf(1)
	for _, p := range pts {
		if d := geom.Euclidean.Dist(q, p); d < best {
			best = d
		}
	}
	if math.Abs(res[0].Dist-best) > 1e-9 {
		t.Fatalf("first = %g, nearest = %g", res[0].Dist, best)
	}
}

func TestNNMaxDist(t *testing.T) {
	pts := randPts(3, 400)
	tr := buildTree(t, pts)
	q := geom.Pt(100, 100)
	const maxd = 80.0
	it, err := New(tr, q, Options{MaxDist: maxd})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if r.Dist > maxd {
			t.Fatalf("result beyond MaxDist: %g", r.Dist)
		}
		count++
	}
	want := 0
	for _, p := range pts {
		if geom.Euclidean.Dist(q, p) <= maxd {
			want++
		}
	}
	if count != want {
		t.Fatalf("found %d within range, want %d", count, want)
	}
}

func TestNNMaxResults(t *testing.T) {
	tr := buildTree(t, randPts(4, 200))
	res, err := Nearest(tr, geom.Pt(0, 0), 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 7 {
		t.Fatalf("got %d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
}

func TestNNEmptyTree(t *testing.T) {
	tr := buildTree(t, nil)
	it, err := New(tr, geom.Pt(1, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := it.Next(); ok {
		t.Fatal("empty tree returned a neighbour")
	}
}

func TestNNValidation(t *testing.T) {
	tr := buildTree(t, randPts(5, 10))
	if _, err := New(tr, geom.Pt(0, 0, 0), Options{}); err == nil {
		t.Error("3-D query on 2-D tree accepted")
	}
}

func TestNNOtherMetric(t *testing.T) {
	pts := randPts(6, 200)
	tr := buildTree(t, pts)
	q := geom.Pt(700, 200)
	res, err := Nearest(tr, q, 5, Options{Metric: geom.Manhattan})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(pts))
	for i, p := range pts {
		want[i] = geom.Manhattan.Dist(q, p)
	}
	sort.Float64s(want)
	for i, r := range res {
		if math.Abs(r.Dist-want[i]) > 1e-9 {
			t.Fatalf("manhattan neighbour %d: %g, want %g", i, r.Dist, want[i])
		}
	}
}

// Property: for random data, query points and k, the k results are exactly
// the k smallest brute-force distances.
func TestPropNNCorrect(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		pts := randPts(seed+100, 50+rnd.Intn(300))
		tr, err := rtree.BulkLoad(rtree.Config{Dims: 2, PageSize: 512, BufferFrames: 32},
			func() []rtree.Item {
				items := make([]rtree.Item, len(pts))
				for i, p := range pts {
					items[i] = rtree.Item{Rect: p.Rect(), Obj: rtree.ObjID(i)}
				}
				return items
			}())
		if err != nil {
			return false
		}
		defer tr.Close()
		q := geom.Pt(rnd.Float64()*1200-100, rnd.Float64()*1200-100)
		k := 1 + rnd.Intn(len(pts))
		res, err := Nearest(tr, q, k, Options{})
		if err != nil || len(res) != k {
			return false
		}
		want := make([]float64, len(pts))
		for i, p := range pts {
			want[i] = geom.Euclidean.Dist(q, p)
		}
		sort.Float64s(want)
		for i, r := range res {
			if math.Abs(r.Dist-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFarthestFirst(t *testing.T) {
	pts := randPts(8, 400)
	tr := buildTree(t, pts)
	q := geom.Pt(250, 700)
	it, err := New(tr, q, Options{Farthest: true})
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, r.Dist)
	}
	if len(got) != len(pts) {
		t.Fatalf("iterated %d, want %d", len(got), len(pts))
	}
	want := make([]float64, len(pts))
	for i, p := range pts {
		want[i] = geom.Euclidean.Dist(q, p)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("farthest %d: %g, want %g", i, got[i], want[i])
		}
	}
}

func TestFarthestWithMaxResults(t *testing.T) {
	pts := randPts(9, 300)
	tr := buildTree(t, pts)
	q := geom.Pt(0, 0)
	res, err := Nearest(tr, q, 5, Options{Farthest: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d", len(res))
	}
	worst := 0.0
	for _, p := range pts {
		if d := geom.Euclidean.Dist(q, p); d > worst {
			worst = d
		}
	}
	if math.Abs(res[0].Dist-worst) > 1e-9 {
		t.Fatalf("first farthest = %g, want %g", res[0].Dist, worst)
	}
}

func TestFarthestRejectsMaxDist(t *testing.T) {
	tr := buildTree(t, randPts(10, 10))
	if _, err := New(tr, geom.Pt(0, 0), Options{Farthest: true, MaxDist: 5}); err == nil {
		t.Fatal("Farthest+MaxDist accepted")
	}
}

// TestNNOverQuadtree runs the incremental NN over a quadtree through the
// spatial.Index abstraction — the same generality the join enjoys.
func TestNNOverQuadtree(t *testing.T) {
	pts := randPts(11, 400)
	qt, err := quadtree.New(quadtree.Config{
		Bounds:     geom.R(geom.Pt(0, 0), geom.Pt(1000, 1000)),
		BucketSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := qt.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	q := geom.Pt(321, 654)
	it, err := New(qt, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, r.Dist)
	}
	if len(got) != len(pts) {
		t.Fatalf("quadtree NN returned %d results", len(got))
	}
	want := make([]float64, len(pts))
	for i, p := range pts {
		want[i] = geom.Euclidean.Dist(q, p)
	}
	sort.Float64s(want)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("quadtree neighbour %d: %g, want %g", i, got[i], want[i])
		}
	}
}

func TestNNOverIndexValidation(t *testing.T) {
	if _, err := New(nil, geom.Pt(0, 0), Options{}); err == nil {
		t.Fatal("nil index accepted")
	}
}
