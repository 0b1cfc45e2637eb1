package spatial_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
	"distjoin/internal/racecheck"
	"distjoin/internal/rtree"
	"distjoin/internal/spatial"
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
func checkEntry(t *testing.T, n *spatial.IndexNode, i int, rect geom.Rect, ref uint64, level int) {
	t.Helper()
	r, gotRef, gotLevel := entryOf(n, i)
	if !r.Equal(rect) || gotRef != ref || gotLevel != level {
		t.Fatalf("entry %d is (%v, %d, level %d), the source holds (%v, %d, level %d)", i, r, gotRef, gotLevel, rect, ref, level)
	}
}

// checkRTreeEntries walks tr from its root and holds every node Index.Node
// returns against the node rtree.ReadNode, a private decode, returns for the
// same page.
func checkRTreeEntries(t *testing.T, tr *rtree.Tree) {
	t.Helper()
	root, err := tr.Root()
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
		n, err := tr.Node(uint64(page))
		if err != nil {
			t.Fatal(err)
		}
		src, err := tr.ReadNode(page)
		if err != nil {
			t.Fatal(err)
		}
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

// TestNodeEntriesMatchSource: over random R*-trees — bulk-loaded, and built
// by inserts and deletes — in two and three dimensions, every node
// Index.Node returns holds entry by entry what rtree.ReadNode's entries
// hold: the rectangle, the ref and the child level. The quadtree's half of
// this test is the quadtree package's own, against its unexported nodes.
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
	}
}

// TestReadNodeEntriesConcurrent: eight goroutines that meet on one cold page,
// half through rtree.ReadNode and half through Index.Node. Those through
// Index.Node all get the page's one decode, the same *IndexNode; those
// through ReadNode each get a private node, which holds entry by entry what
// that decode holds. CI runs it under -race.
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
		n, err := tr.Node(uint64(page))
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf {
			break
		}
		page = pager.PageID(n.Refs[0])
	}
	const readers = 8
	for round := 0; round < 50; round++ {
		if err := tr.DropCache(); err != nil {
			t.Fatal(err)
		}
		var (
			nodes [readers]*rtree.Node
			views [readers]*spatial.IndexNode
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
					views[g], errs[g] = tr.Node(uint64(page))
				}
			}()
		}
		close(start)
		wg.Wait()
		kept, err := tr.Node(uint64(page))
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < readers; g++ {
			switch {
			case errs[g] != nil:
				t.Fatal(errs[g])
			case g%2 == 1 && views[g] != kept:
				t.Fatalf("round %d: Index.Node on goroutine %d got another decode of page %d", round, g, page)
			case g%2 == 0:
				n := nodes[g]
				if g > 0 && n == nodes[g-2] || len(n.Entries) != entryCount(kept) || &n.Entries[0].Rect.Lo[0] == &kept.Coords[0] {
					t.Fatalf("round %d: ReadNode on goroutine %d got no private node of page %d", round, g, page)
				}
				for i, e := range n.Entries {
					checkEntry(t, kept, i, e.Rect, uint64(e.Obj), -1)
				}
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

// TestAllocIndexNodeMiss gates what one node miss through the R*-tree's
// Index.Node allocates — the page read into a free frame and decoded — in
// count and in bytes, on a full 2-D leaf of points.
func TestAllocIndexNodeMiss(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	const maxAllocs, maxBytes = 4, 2344
	tr, err := rtree.New(rtree.Config{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i, p := range randPts(5, tr.MaxFanout()) {
		if err := tr.InsertPoint(p, rtree.ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	root := uint64(tr.RootPage())
	allocs, bytes := allocsAndBytes(200, func() {
		if err := tr.DropCache(); err != nil {
			t.Fatal(err)
		}
		if n, err := tr.Node(root); err != nil || entryCount(n) != tr.MaxFanout() {
			t.Fatal("the full leaf did not come back", err)
		}
	})
	t.Logf("one miss of a %d-entry leaf: %.1f allocations, %.0f bytes", tr.MaxFanout(), allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("one node miss allocates %.1f times and %.0f bytes, gate %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestAllocIndexNodeEvicted gates a node read through the R*-tree's
// Index.Node whose page the pool evicted by capacity while the node stayed
// referenced: the pool reads the page again and is charged the miss, and the
// read hands out the referenced node without allocating.
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
	for i, p := range randPts(6, 20*tr.MaxFanout()) {
		if err := tr.InsertPoint(p, rtree.ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	refs, held := []uint64{uint64(tr.RootPage())}, []*spatial.IndexNode(nil)
	for i := 0; i < len(refs); i++ { // every page, its node referenced
		n, err := tr.Node(refs[i])
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, n)
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
		if n, err := tr.Node(refs[i%len(refs)]); err != nil || n != held[i%len(refs)] {
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
	runtime.KeepAlive(held)
}
