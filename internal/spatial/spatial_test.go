package spatial_test

import (
	"math/rand"
	"testing"

	"distjoin/internal/distjoin"
	"distjoin/internal/geom"
	"distjoin/internal/quadtree"
	"distjoin/internal/racecheck"
	"distjoin/internal/rtree"
	"distjoin/internal/spatial"
)

func randPts(seed int64, n int) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rnd.Float64()*100, rnd.Float64()*100)
	}
	return pts
}

// entryOf reads entry i of a decoded node: its rectangle, its ref (a child
// node's or an object's id) and, for a child node, its level (-1 for an
// object). Every test of this package reads entries through it.
func entryOf(n *spatial.IndexNode, i int) (r geom.Rect, ref uint64, level int) {
	if n.Leaf {
		return n.Rect(i), n.Refs[i], -1
	}
	return n.Rect(i), n.Refs[i], n.ChildLevel(i)
}

// entryCount is the number of entries of a decoded node.
func entryCount(n *spatial.IndexNode) int { return len(n.Refs) }

// checkContract walks an Index from the root and verifies the structural
// contract every engine relies on: children sit at strictly smaller levels,
// child regions are covered by their parent entries' rectangles (for
// data-partitioning trees the entry rect IS the subtree MBR; for
// space-partitioning trees the region contains the subtree), every node's
// Coords block holds its entries' rectangles in order, and every object is
// reachable exactly once.
func checkContract(t *testing.T, ix spatial.Index, wantObjects int) {
	t.Helper()
	root, err := ix.Root()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	var walk func(ref spatial.NodeRef)
	walk = func(ref spatial.NodeRef) {
		n, err := ix.Node(ref.Ref)
		if err != nil {
			t.Fatal(err)
		}
		// The join engine queues views of Coords: run i is entry i's rectangle.
		w, count := 2*ix.Dims(), entryCount(n)
		if len(n.Coords) != count*w {
			t.Fatalf("node %d: %d coordinates for %d entries of width %d", ref.Ref, len(n.Coords), count, w)
		}
		for i := 0; i < count; i++ {
			r, id, level := entryOf(n, i)
			if run := geom.RectOf(n.Coords[i*w : (i+1)*w]); !run.Equal(r) {
				t.Fatalf("node %d: run %d of Coords is %v, not the entry's rectangle %v", ref.Ref, i, run, r)
			}
			if !ref.Rect.Contains(r) {
				t.Fatalf("node %d: entry %d escapes its node's region", ref.Ref, i)
			}
			if n.Leaf {
				if seen[id] {
					t.Fatalf("object %d reachable twice", id)
				}
				seen[id] = true
				continue
			}
			if level >= ref.Level {
				t.Fatalf("child level %d not below parent %d", level, ref.Level)
			}
			walk(spatial.NodeRef{Ref: id, Level: level, Rect: r})
		}
	}
	walk(root)
	if len(seen) != wantObjects {
		t.Fatalf("reached %d objects, want %d", len(seen), wantObjects)
	}
	if ix.NumObjects() != wantObjects {
		t.Fatalf("NumObjects = %d, want %d", ix.NumObjects(), wantObjects)
	}
}

// TestRTreeAdapterContract: an R*-tree, traversed as an Index, holds the
// contract.
func TestRTreeAdapterContract(t *testing.T) {
	pts := randPts(1, 600)
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{Rect: p.Rect(), Obj: rtree.ObjID(i)}
	}
	tr, err := rtree.BulkLoad(rtree.Config{Dims: 2, PageSize: 512, BufferFrames: 16}, items)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var ix spatial.Index = tr
	if ix.Dims() != 2 {
		t.Fatal("Dims wrong")
	}
	if ix.MinObjectsUnder(0) < 2 {
		t.Fatal("R-tree must guarantee min fill")
	}
	checkContract(t, ix, len(pts))
}

// TestQuadtreeAdapterContract: a quadtree, traversed as an Index, holds the
// contract.
func TestQuadtreeAdapterContract(t *testing.T) {
	qt, err := quadtree.New(quadtree.Config{
		Bounds: geom.R(geom.Pt(0, 0), geom.Pt(100, 100)), BucketSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := randPts(2, 500)
	for i, p := range pts {
		if err := qt.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var ix spatial.Index = qt
	if ix.MinObjectsUnder(3) != 0 {
		t.Fatal("quadtree has no fill guarantee and keeps emptied leaves; MinObjectsUnder must be 0")
	}
	checkContract(t, ix, len(pts))
}

// TestQuadtreeNodeKeptUntilMutation: the quadtree hands every visit of an
// unchanged node the same IndexNode; a point inserted into it or deleted
// from it, a split of it, and a quadrant materialised under it each end that,
// and the next visit sees the node as it then is — while the contract holds
// throughout.
func TestQuadtreeNodeKeptUntilMutation(t *testing.T) {
	qt, err := quadtree.New(quadtree.Config{
		Bounds: geom.R(geom.Pt(0, 0), geom.Pt(100, 100)), BucketSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ix spatial.Index = qt
	visit := func(ref uint64) *spatial.IndexNode {
		t.Helper()
		n, err := ix.Node(ref)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := ix.Node(ref); again != n {
			t.Fatalf("node %d: two visits with nothing in between got two IndexNodes", ref)
		}
		return n
	}
	insert := func(id uint64, x, y float64) {
		t.Helper()
		if err := qt.Insert(geom.Pt(x, y), id); err != nil {
			t.Fatal(err)
		}
	}

	// The root as a leaf: a point in, a point out.
	insert(0, 10, 10)
	insert(1, 20, 20)
	leaf := visit(0)
	insert(2, 30, 30)
	grown := visit(0)
	if grown == leaf || entryCount(leaf) != 2 || entryCount(grown) != 3 {
		t.Fatalf("after an insert: same node %v, %d then %d objects", grown == leaf, entryCount(leaf), entryCount(grown))
	}
	if !qt.Delete(geom.Pt(20, 20), 1) {
		t.Fatal("delete missed")
	}
	shrunk := visit(0)
	if shrunk == grown || entryCount(shrunk) != 2 || entryCount(grown) != 3 {
		t.Fatalf("after a delete: same node %v, %d objects (the earlier node now shows %d)", shrunk == grown, entryCount(shrunk), entryCount(grown))
	}
	if qt.Delete(geom.Pt(99, 99), 77) {
		t.Fatal("deleted a point that is not there")
	}
	if visit(0) != shrunk {
		t.Fatal("a delete that removed nothing dropped the node")
	}

	// The split: all five points in the lower-left quadrant.
	insert(3, 15, 40)
	insert(4, 40, 15)
	insert(5, 45, 45)
	internal := visit(0)
	if internal.Leaf || entryCount(internal) != 1 {
		t.Fatalf("after the split the root is leaf=%v with %d children, want an internal node with 1", internal.Leaf, entryCount(internal))
	}
	_, firstRef, _ := entryOf(internal, 0)
	// A point in an untouched quadrant materialises a child of the root and
	// leaves the first quadrant's node alone.
	first := visit(firstRef)
	insert(6, 90, 90)
	wider := visit(0)
	if wider == internal || entryCount(wider) != 2 {
		t.Fatalf("after a new quadrant: same node %v, %d children", wider == internal, entryCount(wider))
	}
	if visit(firstRef) != first {
		t.Fatal("an insert elsewhere dropped an unchanged node")
	}
	checkContract(t, ix, 6)
}

// TestWrapNilReturnsNil: converting a nil tree to a spatial.Index gives the
// nil Index, not a non-nil interface holding a nil pointer, and a non-nil
// tree converts to itself.
func TestWrapNilReturnsNil(t *testing.T) {
	if distjoin.WrapRTree(nil) != nil {
		t.Fatal("WrapRTree(nil) not nil")
	}
	if distjoin.WrapQuadtree(nil) != nil {
		t.Fatal("WrapQuadtree(nil) not nil")
	}
	tr, err := rtree.BulkLoad(rtree.Config{Dims: 2}, []rtree.Item{{Rect: geom.Pt(1, 1).Rect(), Obj: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if ix, ok := distjoin.WrapRTree(tr).(*rtree.Tree); !ok || ix != tr {
		t.Fatal("WrapRTree(tree) is not the tree")
	}
	qt, err := quadtree.New(quadtree.Config{Bounds: geom.R(geom.Pt(0, 0), geom.Pt(10, 10)), BucketSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ix, ok := distjoin.WrapQuadtree(qt).(*quadtree.Tree); !ok || ix != qt {
		t.Fatal("WrapQuadtree(tree) is not the tree")
	}
}

// TestAllocIndexNodeResident gates the R*-tree's Node and Root on a resident
// page at zero allocations: the IndexNode is the decoded node and the root's
// MBR is built once per decode, and both are shared.
func TestAllocIndexNodeResident(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	pts := randPts(3, 3000)
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{Rect: p.Rect(), Obj: rtree.ObjID(i)}
	}
	tr, err := rtree.BulkLoad(rtree.Config{Dims: 2}, items)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var ix spatial.Index = tr
	root, err := ix.Root()
	if err != nil {
		t.Fatal(err)
	}
	first, err := ix.Node(root.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		n, err := ix.Node(root.Ref)
		if err != nil || n != first {
			t.Fatal("resident node not shared", err)
		}
		if _, err := ix.Root(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Node + Root on a resident page allocate %v times, want 0", n)
	}
	if r, _, _ := entryOf(first, 0); len(first.Coords) == 0 || &r.Lo[0] != &first.Coords[0] {
		t.Error("the node's rectangles are not views of its coordinate block")
	}
}
