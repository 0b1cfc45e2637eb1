package rtree

import (
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
	"distjoin/internal/racecheck"
	"distjoin/internal/stats"
)

// leafPage descends to the first leaf.
func leafPage(t *testing.T, tr *Tree) pager.PageID {
	t.Helper()
	page := tr.RootPage()
	for {
		n, err := tr.ReadNode(page)
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf() {
			return page
		}
		page = n.Entries[0].Child
	}
}

// TestAllocReadNodeResident gates a node read of a resident page at zero
// allocations: the page was decoded when it came in.
func TestAllocReadNodeResident(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	tr := mustNew(t, Config{Dims: 2})
	for i, p := range randomPoints(1, 2000) {
		if err := tr.InsertPoint(p, ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	page := leafPage(t, tr)
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := tr.ReadNode(page); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadNode of a resident page allocates %v times, want 0", n)
	}
}

// TestReadNodeSize: a read node, which queued pairs keep alive, takes 160
// bytes, the top of its allocation size class.
func TestReadNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 160 {
		t.Errorf("a Node takes %d bytes, want at most 160", size)
	}
}

// TestReadNodeSharedUntilWritten: readers of a page get the very same node,
// every read is still one pool access, a write or a drop of the cache makes
// the next read decode afresh — never serving the stale form — and an
// eviction does not: while the node is referenced, the read that brings the
// page back into the pool hands it out again.
func TestReadNodeSharedUntilWritten(t *testing.T) {
	var c stats.Counters
	cfg := smallConfig()
	cfg.Counters = &c
	tr := mustNew(t, cfg)
	pts := randomPoints(2, 300)
	for i, p := range pts {
		if err := tr.InsertPoint(p, ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	page := leafPage(t, tr)
	a, _ := tr.ReadNode(page)
	before := c.Snapshot()
	b, _ := tr.ReadNode(page)
	if a != b {
		t.Fatal("two reads of a resident page decoded it twice")
	}
	if d := c.Snapshot(); d.BufferHits != before.BufferHits+1 || d.NodeReads != before.NodeReads {
		t.Fatalf("a cached read must still count one buffer hit: %+v -> %+v", before, d)
	}
	w := 2 * tr.Dims()
	if len(a.Coords) != len(a.Entries)*w {
		t.Fatalf("Coords holds %d floats for %d entries", len(a.Coords), len(a.Entries))
	}
	for i, e := range a.Entries {
		if &e.Rect.Lo[0] != &a.Coords[i*w] || &e.Rect.Hi[0] != &a.Coords[i*w+tr.Dims()] {
			t.Fatalf("entry %d's rectangle is not a view of the node's block", i)
		}
		if cap(e.Rect.Lo) != tr.Dims() {
			t.Fatalf("entry %d's low corner can be appended into its high corner", i)
		}
	}

	// A write to the page (an insert landing in this leaf) invalidates it.
	target := a.Entries[0].Rect.Clone()
	entries := len(a.Entries)
	if err := tr.Insert(target, 9999); err != nil {
		t.Fatal(err)
	}
	if len(a.Entries) != entries {
		t.Fatal("an insert modified the shared decoded node")
	}
	found := false
	if err := tr.Search(target, func(e Entry) bool {
		found = found || e.Obj == 9999
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("inserted object not found: a stale decoded node was served")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Dropping the cache, and eviction by a scan, both re-decode.
	a, _ = tr.ReadNode(page)
	if err := tr.DropCache(); err != nil {
		t.Fatal(err)
	}
	if b, _ := tr.ReadNode(page); a == b {
		t.Fatal("decoded node survived DropCache")
	}
	a, _ = tr.ReadNode(page)
	if err := tr.Scan(func(Entry) bool { return true }); err != nil { // more pages than frames
		t.Fatal(err)
	}
	before = c.Snapshot()
	if b, _ := tr.ReadNode(page); a != b {
		t.Fatal("a referenced node was decoded again after eviction")
	}
	if d := c.Snapshot(); d.NodeReads != before.NodeReads+1 || d.BufferHits != before.BufferHits {
		t.Fatalf("a read after eviction must count one node read: %+v -> %+v", before, d)
	}
	if ok, err := tr.Delete(geom.Rect{Lo: target.Lo, Hi: target.Hi}, 9999); err != nil || !ok {
		t.Fatalf("delete after cached reads: %v %v", ok, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeNotRetained: the tree keeps no decode alive. Once no reference
// to a node is left and its page has left the pool, the collector reclaims
// the node, and the next read of the page — one node read — decodes it
// afresh.
func TestDecodeNotRetained(t *testing.T) {
	var c stats.Counters
	cfg := smallConfig()
	cfg.Counters = &c
	tr := mustNew(t, cfg)
	for i, p := range randomPoints(4, 300) {
		if err := tr.InsertPoint(p, ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	page := leafPage(t, tr)
	was := func() weak.Pointer[Node] {
		n, err := tr.ReadNode(page)
		if err != nil {
			t.Fatal(err)
		}
		return weak.Make(n)
	}()
	if err := tr.Scan(func(Entry) bool { return true }); err != nil { // more pages than frames
		t.Fatal(err)
	}
	runtime.GC()
	if was.Value() != nil {
		t.Fatal("an evicted node with no reference left survived a collection")
	}
	before := c.Snapshot()
	n, err := tr.ReadNode(page)
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Snapshot(); d.NodeReads != before.NodeReads+1 || d.BufferHits != before.BufferHits {
		t.Fatalf("the page was not evicted: %+v -> %+v", before, d)
	}
	if diff := sameNode(n, storedNode(t, tr, page)); diff != "" {
		t.Fatalf("the fresh decode of page %d: %s", page, diff)
	}
}

// TestCheckInvariantsReadsEachNodeOnce: CheckInvariants holds each child's
// MBR against its parent's entry from the one read that checks the child, so
// it makes one pool access per node — on a tree larger than its pool, where a
// second read of a child could miss.
func TestCheckInvariantsReadsEachNodeOnce(t *testing.T) {
	var c stats.Counters
	cfg := smallConfig()
	cfg.Counters = &c
	tr := mustNew(t, cfg)
	for i, p := range randomPoints(3, 1500) {
		if err := tr.InsertPoint(p, ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	counts, err := tr.CountNodes()
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	for _, n := range counts {
		nodes += n
	}
	if nodes <= cfg.BufferFrames {
		t.Fatalf("%d nodes fit the %d-frame pool", nodes, cfg.BufferFrames)
	}
	before := c.Snapshot()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	after := c.Snapshot()
	if got := after.NodeReads - before.NodeReads + after.BufferHits - before.BufferHits; got != int64(nodes) {
		t.Errorf("CheckInvariants made %d pool accesses for %d nodes", got, nodes)
	}
}
