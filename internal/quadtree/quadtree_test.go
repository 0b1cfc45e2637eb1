package quadtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distjoin/internal/geom"
	"distjoin/internal/spatial"
	"distjoin/internal/stats"
)

func worldCfg() Config {
	return Config{Bounds: geom.R(geom.Pt(0, 0), geom.Pt(1000, 1000)), BucketSize: 4, MaxDepth: 16}
}

func mustNew(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
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

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing bounds accepted")
	}
	if _, err := New(Config{Bounds: geom.R(geom.Pt(0, 0), geom.Pt(1, 1)), BucketSize: -1}); err == nil {
		t.Error("negative bucket accepted")
	}
	if _, err := New(Config{Bounds: geom.R(geom.Pt(0, 0), geom.Pt(1, 1)), MaxDepth: 500}); err == nil {
		t.Error("huge MaxDepth accepted")
	}
	bounds9 := geom.Rect{Lo: make(geom.Point, 9), Hi: make(geom.Point, 9)}
	for i := range bounds9.Hi {
		bounds9.Hi[i] = 1
	}
	if _, err := New(Config{Bounds: bounds9}); err == nil {
		t.Error("9 dimensions accepted")
	}
}

func TestInsertAndLen(t *testing.T) {
	tr := mustNew(t, worldCfg())
	pts := randPts(1, 500)
	for i, p := range pts {
		if err := tr.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.NumNodes() < 10 {
		t.Fatalf("tree did not split: %d nodes", tr.NumNodes())
	}
}

func TestInsertRejectsOutside(t *testing.T) {
	tr := mustNew(t, worldCfg())
	if err := tr.Insert(geom.Pt(-1, 5), 1); err == nil {
		t.Error("outside point accepted")
	}
	if err := tr.Insert(geom.Pt(1, 2, 3), 1); err == nil {
		t.Error("wrong dims accepted")
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	tr := mustNew(t, worldCfg())
	pts := randPts(2, 1000)
	for i, p := range pts {
		tr.Insert(p, uint64(i))
	}
	query := geom.R(geom.Pt(200, 300), geom.Pt(500, 800))
	want := map[uint64]bool{}
	for i, p := range pts {
		if query.ContainsPoint(p) {
			want[uint64(i)] = true
		}
	}
	got := map[uint64]bool{}
	tr.Search(query, func(pt Point) bool { got[pt.ID] = true; return true })
	if len(got) != len(want) {
		t.Fatalf("found %d, want %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("missing %d", id)
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := mustNew(t, worldCfg())
	for i, p := range randPts(3, 200) {
		tr.Insert(p, uint64(i))
	}
	calls := 0
	tr.Search(tr.Bounds(), func(Point) bool { calls++; return calls < 3 })
	if calls != 3 {
		t.Fatalf("callback ran %d times", calls)
	}
}

func TestDelete(t *testing.T) {
	tr := mustNew(t, worldCfg())
	pts := randPts(4, 300)
	for i, p := range pts {
		tr.Insert(p, uint64(i))
	}
	for i := 0; i < 150; i++ {
		if !tr.Delete(pts[i], uint64(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 150 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Delete(pts[0], 0) {
		t.Fatal("double delete succeeded")
	}
	if tr.Delete(geom.Pt(1, 2, 3), 1) {
		t.Fatal("wrong-dim delete succeeded")
	}
	// Remaining points still findable.
	found := 0
	tr.Search(tr.Bounds(), func(Point) bool { found++; return true })
	if found != 150 {
		t.Fatalf("found %d after deletes", found)
	}
}

func TestCoincidentPointsDepthCap(t *testing.T) {
	cfg := worldCfg()
	cfg.MaxDepth = 4
	tr := mustNew(t, cfg)
	// Coincident points cannot be separated: the depth cap must stop
	// subdivision and store them all in one deep leaf.
	for i := 0; i < 100; i++ {
		if err := tr.Insert(geom.Pt(123, 456), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	count := 0
	tr.Search(geom.R(geom.Pt(123, 456), geom.Pt(123, 456)), func(Point) bool { count++; return true })
	if count != 100 {
		t.Fatalf("found %d coincident points", count)
	}
}

func TestNodeReadCounting(t *testing.T) {
	c := &stats.Counters{}
	cfg := worldCfg()
	cfg.Counters = c
	tr := mustNew(t, cfg)
	for i, p := range randPts(5, 200) {
		tr.Insert(p, uint64(i))
	}
	tr.Search(tr.Bounds(), func(Point) bool { return true })
	if c.NodeReads == 0 {
		t.Fatal("search counted no node reads")
	}
}

// TestReadNodeTraversal walks the tree through Root and Node: levels fall by
// one per step down, every entry lies inside its node's region, every object
// is reached, and an id out of range is refused.
func TestReadNodeTraversal(t *testing.T) {
	tr := mustNew(t, worldCfg())
	pts := randPts(6, 400)
	for i, p := range pts {
		tr.Insert(p, uint64(i))
	}
	root, err := tr.Root()
	if err != nil {
		t.Fatal(err)
	}
	if root.Ref != 0 || root.Level != tr.MaxDepth() || !root.Rect.Equal(tr.Bounds()) {
		t.Fatalf("root is %+v, want node 0 at level %d over %v", root, tr.MaxDepth(), tr.Bounds())
	}
	var walk func(ref spatial.NodeRef) int
	walk = func(ref spatial.NodeRef) int {
		n, err := tr.Node(ref.Ref)
		if err != nil {
			t.Fatal(err)
		}
		if n.Level != ref.Level {
			t.Fatalf("node %d level %d, want %d", ref.Ref, n.Level, ref.Level)
		}
		total := 0
		for i := range n.Refs {
			r := n.Rect(i)
			if !ref.Rect.Contains(r) {
				t.Fatalf("node %d: entry %d, %v, escapes its region %v", ref.Ref, i, r, ref.Rect)
			}
			if n.Leaf {
				total++
				continue
			}
			if n.ChildLevel(i) != ref.Level-1 {
				t.Fatalf("child level %d under level %d", n.ChildLevel(i), ref.Level)
			}
			total += walk(spatial.NodeRef{Ref: n.Refs[i], Level: n.ChildLevel(i), Rect: r})
		}
		return total
	}
	if got := walk(root); got != 400 {
		t.Fatalf("walk found %d objects", got)
	}
	if _, err := tr.Node(math.MaxUint64); err == nil {
		t.Fatal("id 2^64-1 accepted")
	}
	if _, err := tr.Node(uint64(tr.NumNodes())); err == nil {
		t.Fatal("out-of-range id accepted")
	}
}

// TestNodeEntriesMatchSource: over random quadtrees, built by inserts and
// deletes in two and three dimensions, every node Node returns holds entry
// by entry what the tree's own node holds: its points, in order, as point
// entries, then its materialised quadrants, in order, with their regions,
// ids and levels.
func TestNodeEntriesMatchSource(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		dims := 2 + rnd.Intn(2)
		lo, hi := make(geom.Point, dims), make(geom.Point, dims)
		for i := range hi {
			hi[i] = 100
		}
		tr := mustNew(t, Config{Bounds: geom.Rect{Lo: lo, Hi: hi}, BucketSize: 1 + rnd.Intn(8), MaxDepth: 6 + rnd.Intn(10)})
		pts := make([]geom.Point, 1+rnd.Intn(1500))
		for i := range pts {
			pts[i] = make(geom.Point, dims)
			for d := range pts[i] {
				pts[i][d] = rnd.Float64() * 95
			}
			if err := tr.Insert(pts[i], uint64(i)); err != nil {
				t.Fatal(err)
			}
			if i%4 == 3 {
				j := rnd.Intn(i)
				tr.Delete(pts[j], uint64(j))
			}
		}
		for id, src := range tr.nodes {
			n, err := tr.Node(uint64(id))
			if err != nil {
				t.Fatal(err)
			}
			if n.Leaf != src.leaf || n.Level != tr.MaxDepth()-src.depth || n.Points != src.leaf || len(n.Coords) != 2*dims*len(n.Refs) {
				t.Fatalf("seed %d node %d: leaf %v level %d points %v with %d coordinates for %d entries, the node is leaf %v at depth %d",
					seed, id, n.Leaf, n.Level, n.Points, len(n.Coords), len(n.Refs), src.leaf, src.depth)
			}
			i := 0
			check := func(rect geom.Rect, ref uint64, level int) {
				t.Helper()
				if i >= len(n.Refs) {
					t.Fatalf("seed %d node %d: %d entries, the node holds more", seed, id, len(n.Refs))
				}
				got := -1
				if !n.Leaf {
					got = n.ChildLevel(i)
				}
				if !n.Rect(i).Equal(rect) || n.Refs[i] != ref || got != level {
					t.Fatalf("seed %d node %d: entry %d is (%v, %d, level %d), the node holds (%v, %d, level %d)",
						seed, id, i, n.Rect(i), n.Refs[i], got, rect, ref, level)
				}
				i++
			}
			for _, p := range src.points {
				check(p.P.Rect(), p.ID, -1)
			}
			for _, cid := range src.children {
				if cid >= 0 {
					check(tr.nodes[cid].rect, uint64(cid), tr.MaxDepth()-tr.nodes[cid].depth)
				}
			}
			if i != len(n.Refs) {
				t.Fatalf("seed %d node %d: %d entries, the node holds %d", seed, id, len(n.Refs), i)
			}
		}
	}
}

func TestThreeDimensional(t *testing.T) {
	cfg := Config{Bounds: geom.R(geom.Pt(0, 0, 0), geom.Pt(100, 100, 100))}
	tr := mustNew(t, cfg)
	rnd := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, 300)
	for i := range pts {
		pts[i] = geom.Pt(rnd.Float64()*100, rnd.Float64()*100, rnd.Float64()*100)
		if err := tr.Insert(pts[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	query := geom.R(geom.Pt(20, 20, 20), geom.Pt(70, 70, 70))
	want := 0
	for _, p := range pts {
		if query.ContainsPoint(p) {
			want++
		}
	}
	got := 0
	tr.Search(query, func(Point) bool { got++; return true })
	if got != want {
		t.Fatalf("3-D search: %d, want %d", got, want)
	}
}

// Property: search over random data and queries always matches brute force,
// under random bucket sizes and depth caps.
func TestPropSearchCorrect(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		cfg := Config{
			Bounds:     geom.R(geom.Pt(0, 0), geom.Pt(100, 100)),
			BucketSize: 1 + rnd.Intn(16),
			MaxDepth:   2 + rnd.Intn(20),
		}
		tr, err := New(cfg)
		if err != nil {
			return false
		}
		n := 50 + rnd.Intn(400)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rnd.Float64()*100, rnd.Float64()*100)
			if err := tr.Insert(pts[i], uint64(i)); err != nil {
				return false
			}
		}
		for q := 0; q < 5; q++ {
			x1, y1 := rnd.Float64()*100, rnd.Float64()*100
			x2 := x1 + rnd.Float64()*(100-x1)
			y2 := y1 + rnd.Float64()*(100-y1)
			query := geom.R(geom.Pt(x1, y1), geom.Pt(x2, y2))
			want := 0
			for _, p := range pts {
				if query.ContainsPoint(p) {
					want++
				}
			}
			got := 0
			tr.Search(query, func(Point) bool { got++; return true })
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
