package spatial

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
	"distjoin/internal/quadtree"
	"distjoin/internal/racecheck"
	"distjoin/internal/rtree"
	"distjoin/internal/stats"
)

// randRect is a point two times in three, otherwise a small box, inside
// [0, 100)^dims.
func randRect(rnd *rand.Rand, dims int) geom.Rect {
	lo := make(geom.Point, dims)
	for i := range lo {
		lo[i] = rnd.Float64() * 95
	}
	if rnd.Intn(3) > 0 {
		return lo.Rect()
	}
	hi := lo.Clone()
	for i := range hi {
		hi[i] += rnd.Float64() * 5
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// checkEntry compares entry i of n, read through entryOf, with what the
// source structure holds for it.
func checkEntry(t *testing.T, n *IndexNode, i int, rect geom.Rect, ref uint64, level int) {
	t.Helper()
	r, gotRef, gotLevel := entryOf(n, i)
	if !r.Equal(rect) || gotRef != ref || gotLevel != level {
		t.Fatalf("entry %d is (%v, %d, level %d), the source holds (%v, %d, level %d)", i, r, gotRef, gotLevel, rect, ref, level)
	}
}

// checkEntryViews holds the Entries rtree.ReadNode returned against the
// node's Coords and Refs: one entry per ref, entry i's ref is Refs[i], and
// its rectangle is a capped view of run i of Coords, not a copy.
func checkEntryViews(t *testing.T, n *rtree.Node, dims int) {
	t.Helper()
	w := 2 * dims
	if len(n.Coords) != len(n.Entries)*w || len(n.Refs) != len(n.Entries) {
		t.Fatalf("page %d: %d coordinates and %d refs for %d entries", n.Page, len(n.Coords), len(n.Refs), len(n.Entries))
	}
	for i, e := range n.Entries {
		if len(e.Rect.Lo) != dims || cap(e.Rect.Lo) != dims || len(e.Rect.Hi) != dims ||
			&e.Rect.Lo[0] != &n.Coords[i*w] || &e.Rect.Hi[0] != &n.Coords[i*w+dims] {
			t.Fatalf("page %d: entry %d's rectangle is not a view of its run of Coords", n.Page, i)
		}
		ref := uint64(e.Child)
		if n.Leaf() {
			ref = uint64(e.Obj)
		}
		if n.Refs[i] != ref {
			t.Fatalf("page %d: entry %d names %d, Refs holds %d", n.Page, i, ref, n.Refs[i])
		}
	}
}

// checkRTreeEntries walks tr from its root and holds every node the adapter
// returns against the node rtree.ReadNode returns for the same page.
func checkRTreeEntries(t *testing.T, tr *rtree.Tree) {
	t.Helper()
	ix := WrapRTree(tr)
	root, err := ix.Root()
	if err != nil {
		t.Fatal(err)
	}
	if root.Ref != uint64(tr.RootPage()) || root.Level != tr.Height()-1 {
		t.Fatalf("Root is page %d at level %d, the tree's is page %d at level %d", root.Ref, root.Level, tr.RootPage(), tr.Height()-1)
	}
	if mbr, ok := tr.Bounds(); ok && !root.Rect.Equal(mbr) {
		t.Fatalf("Root's rectangle %v, the tree's bounds %v", root.Rect, mbr)
	}
	var walk func(page pager.PageID)
	walk = func(page pager.PageID) {
		n, err := ix.Node(uint64(page))
		if err != nil {
			t.Fatal(err)
		}
		src, err := tr.ReadNode(page)
		if err != nil {
			t.Fatal(err)
		}
		checkEntryViews(t, src, tr.Dims())
		if n.Leaf != src.Leaf() || n.Level != src.Level || entryCount(n) != len(src.Entries) {
			t.Fatalf("page %d: leaf %v level %d with %d entries, the source leaf %v level %d with %d",
				page, n.Leaf, n.Level, entryCount(n), src.Leaf(), src.Level, len(src.Entries))
		}
		points := true
		for i, e := range src.Entries {
			if src.Leaf() {
				checkEntry(t, n, i, e.Rect, uint64(e.Obj), -1)
				points = points && e.Rect.IsPoint()
				continue
			}
			checkEntry(t, n, i, e.Rect, uint64(e.Child), src.Level-1)
			walk(e.Child)
		}
		if n.Leaf && n.Points != points {
			t.Fatalf("page %d: Points %v on a leaf whose entries are all points: %v", page, n.Points, points)
		}
	}
	walk(tr.RootPage())
}

// checkQuadEntries walks qt from its root and holds every node the adapter
// returns against the quadtree's own view of it.
func checkQuadEntries(t *testing.T, qt *quadtree.Tree) {
	t.Helper()
	ix := WrapQuadtree(qt)
	root, err := ix.Root()
	if err != nil {
		t.Fatal(err)
	}
	if root.Ref != 0 || root.Level != qt.MaxDepth() || !root.Rect.Equal(qt.Bounds()) {
		t.Fatalf("Root is %+v, want node 0 at level %d over %v", root, qt.MaxDepth(), qt.Bounds())
	}
	var walk func(id int32)
	walk = func(id int32) {
		n, err := ix.Node(uint64(id))
		if err != nil {
			t.Fatal(err)
		}
		v, err := qt.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf != v.Leaf || n.Level != v.Level || n.Points != v.Leaf || entryCount(n) != len(v.Points)+len(v.Children) {
			t.Fatalf("node %d: leaf %v level %d points %v with %d entries, the view leaf %v level %d with %d",
				id, n.Leaf, n.Level, n.Points, entryCount(n), v.Leaf, v.Level, len(v.Points)+len(v.Children))
		}
		for i, p := range v.Points {
			checkEntry(t, n, i, p.P.Rect(), p.ID, -1)
		}
		for i, c := range v.Children {
			checkEntry(t, n, i, c.Rect, uint64(c.ID), c.Level)
			walk(c.ID)
		}
	}
	walk(0)
}

// TestNodeEntriesMatchSource: over random R*-trees — bulk-loaded, and built
// by inserts and deletes — and random quadtrees, in two and three
// dimensions, every node Index.Node returns holds entry by entry what the
// source structure holds: the rectangle, the ref and the child level of
// rtree.ReadNode's entries and of the quadtree's NodeView. rtree.ReadNode's
// entries in turn are views of the node's own Coords and Refs.
func TestNodeEntriesMatchSource(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		dims := 2 + rnd.Intn(2)
		cfg := rtree.Config{Dims: dims, PageSize: 256 + 64*rnd.Intn(8), BufferFrames: 4 + rnd.Intn(8)}

		items := make([]rtree.Item, 1+rnd.Intn(1500))
		for i := range items {
			items[i] = rtree.Item{Rect: randRect(rnd, dims), Obj: rtree.ObjID(rnd.Uint64())}
		}
		bulk, err := rtree.BulkLoad(cfg, items)
		if err != nil {
			t.Fatal(err)
		}
		checkRTreeEntries(t, bulk)
		bulk.Close()

		edited, err := rtree.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range items {
			if err := edited.Insert(it.Rect, it.Obj); err != nil {
				t.Fatal(err)
			}
			if i%3 == 2 { // delete an earlier item
				gone := items[rnd.Intn(i)]
				if _, err := edited.Delete(gone.Rect, gone.Obj); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := edited.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		checkRTreeEntries(t, edited)
		edited.Close()

		lo, hi := make(geom.Point, dims), make(geom.Point, dims)
		for i := range hi {
			hi[i] = 100
		}
		qt, err := quadtree.New(quadtree.Config{Bounds: geom.Rect{Lo: lo, Hi: hi}, BucketSize: 1 + rnd.Intn(8), MaxDepth: 6 + rnd.Intn(10)})
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range items {
			if err := qt.Insert(it.Rect.Lo, uint64(i)); err != nil {
				t.Fatal(err)
			}
			if i%4 == 3 {
				j := rnd.Intn(i)
				qt.Delete(items[j].Rect.Lo, uint64(j))
			}
		}
		checkQuadEntries(t, qt)
	}
}

// TestReadNodeEntriesConcurrent: eight goroutines that meet on one cold page,
// half through rtree.ReadNode and half through the adapter's Index.Node, all
// get its one decode — the same *rtree.Node, or an IndexNode over that node's
// very Coords and Refs — and ReadNode's entries are views of it. CI runs it
// under -race.
func TestReadNodeEntriesConcurrent(t *testing.T) {
	tr, err := rtree.New(rtree.Config{Dims: 2, PageSize: 512, BufferFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i, p := range randPts(7, 400) {
		if err := tr.InsertPoint(p, rtree.ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	page := tr.RootPage()
	for {
		n, err := tr.ReadNode(page)
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf() {
			break
		}
		page = pager.PageID(n.Refs[0])
	}
	ix := WrapRTree(tr)
	const readers = 8
	for round := 0; round < 50; round++ {
		if err := tr.DropCache(); err != nil {
			t.Fatal(err)
		}
		var (
			nodes [readers]*rtree.Node
			views [readers]*IndexNode
			errs  [readers]error
			wg    sync.WaitGroup
		)
		start := make(chan struct{})
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if g%2 == 0 {
					nodes[g], errs[g] = tr.ReadNode(page)
				} else {
					views[g], errs[g] = ix.Node(uint64(page))
				}
			}()
		}
		close(start)
		wg.Wait()
		kept, err := tr.ReadNode(page)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < readers; g++ {
			switch {
			case errs[g] != nil:
				t.Fatal(errs[g])
			case g%2 == 0 && nodes[g] != kept:
				t.Fatalf("round %d: ReadNode on goroutine %d got another decode of page %d", round, g, page)
			case g%2 == 0:
				checkEntryViews(t, nodes[g], tr.Dims())
			case len(views[g].Refs) == 0 || &views[g].Coords[0] != &kept.Coords[0] || &views[g].Refs[0] != &kept.Refs[0]:
				t.Fatalf("round %d: Index.Node on goroutine %d got another decode of page %d", round, g, page)
			}
		}
	}
}

// allocsAndBytes is testing.AllocsPerRun that also reports bytes: the mean
// allocations and bytes allocated per call of f over runs calls, after one
// warm-up call.
func allocsAndBytes(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestAllocIndexNodeMiss gates what one node miss through the R*-tree
// adapter allocates — the page read into a free frame, decoded and adapted —
// in count and in bytes, on a full 2-D leaf of points.
func TestAllocIndexNodeMiss(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	const maxAllocs, maxBytes = 5, 2500
	tr, err := rtree.New(rtree.Config{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i, p := range randPts(5, tr.MaxEntries()) {
		if err := tr.InsertPoint(p, rtree.ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	ix, root := WrapRTree(tr), uint64(tr.RootPage())
	allocs, bytes := allocsAndBytes(200, func() {
		if err := tr.DropCache(); err != nil {
			t.Fatal(err)
		}
		if n, err := ix.Node(root); err != nil || entryCount(n) != tr.MaxEntries() {
			t.Fatal("the full leaf did not come back", err)
		}
	})
	t.Logf("one miss of a %d-entry leaf: %.1f allocations, %.0f bytes", tr.MaxEntries(), allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("one node miss allocates %.1f times and %.0f bytes, gate %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestAllocIndexNodeEvicted gates a node read through the R*-tree adapter
// whose page the pool evicted by capacity while the node stayed referenced:
// the pool reads the page again and is charged the miss, and the read hands
// out the referenced node's adapter form without allocating.
func TestAllocIndexNodeEvicted(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	var c stats.Counters
	tr, err := rtree.New(rtree.Config{Dims: 2, BufferFrames: 8, Counters: &c})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i, p := range randPts(6, 20*tr.MaxEntries()) {
		if err := tr.InsertPoint(p, rtree.ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	ix := WrapRTree(tr)
	refs, nodes, held := []uint64{uint64(tr.RootPage())}, []*rtree.Node(nil), []*IndexNode(nil)
	for i := 0; i < len(refs); i++ { // every page, its node referenced
		node, err := tr.ReadNodeLean(pager.PageID(refs[i]))
		if err != nil {
			t.Fatal(err)
		}
		n, err := ix.Node(refs[i])
		if err != nil {
			t.Fatal(err)
		}
		nodes, held = append(nodes, node), append(held, n)
		if !n.Leaf {
			refs = append(refs, n.Refs...)
		}
	}
	if len(refs) <= 8 {
		t.Fatalf("%d pages fit the 8-frame pool", len(refs))
	}
	// A cyclic scan of more pages than frames misses and evicts every time.
	i, runs, before := 0, 4*len(refs), c.Snapshot()
	allocs := testing.AllocsPerRun(runs, func() {
		if n, err := ix.Node(refs[i%len(refs)]); err != nil || n != held[i%len(refs)] {
			t.Fatalf("page %d: another node than the referenced one (%v)", refs[i%len(refs)], err)
		}
		i++
	})
	if d := c.Snapshot(); d.NodeReads-before.NodeReads != int64(runs+1) || d.BufferHits != before.BufferHits {
		t.Fatalf("%d reads were not all misses: %+v -> %+v", runs+1, before, d)
	}
	if allocs != 0 {
		t.Errorf("reading an evicted page whose node is referenced allocates %v times, want 0", allocs)
	}
	runtime.KeepAlive(nodes)
}
