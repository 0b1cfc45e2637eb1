package rtree

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"
	"weak"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
	"distjoin/internal/racecheck"
	"distjoin/internal/spatial"
	"distjoin/internal/stats"
)

// leafPage descends to the first leaf.
func leafPage(t *testing.T, tr *Tree) pager.PageID {
	t.Helper()
	page := tr.RootPage()
	for {
		n, err := tr.Node(uint64(page))
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf {
			return page
		}
		page = pager.PageID(n.Refs[0])
	}
}

// TestAllocReadNodeResident gates Tree.Node on a resident page at zero
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
		if _, err := tr.Node(uint64(page)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Node of a resident page allocates %v times, want 0", n)
	}
}

// TestReadNodeSize: the shared read node, which queued pairs keep alive,
// takes 128 bytes, the top of its allocation size class.
func TestReadNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size > 128 {
		t.Errorf("a read node takes %d bytes, want at most 128", size)
	}
}

// TestReadNodeSharedUntilWritten: readers of a page through Tree.Node get
// the very same node, every read is still one pool access, a write or a drop
// of the cache makes the next read decode afresh — never serving the stale
// form — and an eviction does not: while the node is referenced, the read
// that brings the page back into the pool hands it out again.
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
	read := func() *spatial.IndexNode {
		t.Helper()
		n, err := tr.Node(uint64(page))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := read()
	before := c.Snapshot()
	if b := read(); a != b {
		t.Fatal("two reads of a resident page decoded it twice")
	}
	if d := c.Snapshot(); d.BufferHits != before.BufferHits+1 || d.NodeReads != before.NodeReads {
		t.Fatalf("a cached read must still count one buffer hit: %+v -> %+v", before, d)
	}
	w := 2 * tr.Dims()
	if len(a.Coords) != len(a.Refs)*w {
		t.Fatalf("Coords holds %d floats for %d entries", len(a.Coords), len(a.Refs))
	}
	for i := range a.Refs {
		r := a.Rect(i)
		if &r.Lo[0] != &a.Coords[i*w] || &r.Hi[0] != &a.Coords[i*w+tr.Dims()] {
			t.Fatalf("entry %d's rectangle is not a view of the node's block", i)
		}
		if cap(r.Lo) != tr.Dims() {
			t.Fatalf("entry %d's low corner can be appended into its high corner", i)
		}
	}

	// A write to the page (an insert landing in this leaf) invalidates it.
	target := a.Rect(0).Clone()
	entries := len(a.Refs)
	if err := tr.Insert(target, 9999); err != nil {
		t.Fatal(err)
	}
	if len(a.Refs) != entries {
		t.Fatal("an insert modified the shared decoded node")
	}
	if b := read(); b == a || !slices.Contains(b.Refs, 9999) {
		t.Fatalf("the read after an insert into page %d: a new node %v, holding the object %v", page, b != a, slices.Contains(b.Refs, 9999))
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

	// Dropping the cache re-decodes; eviction by a scan does not.
	a = read()
	if err := tr.DropCache(); err != nil {
		t.Fatal(err)
	}
	if b := read(); a == b {
		t.Fatal("decoded node survived DropCache")
	}
	a = read()
	if err := tr.Scan(func(Entry) bool { return true }); err != nil { // more pages than frames
		t.Fatal(err)
	}
	before = c.Snapshot()
	if b := read(); a != b {
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
// to a node Tree.Node returned is left and its page has left the pool, the
// collector reclaims the node, and the next read of the page — one node
// read — decodes it afresh.
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
	was := func() weak.Pointer[spatial.IndexNode] {
		n, err := tr.Node(uint64(page))
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
	n, err := tr.Node(uint64(page))
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

// TestReadNodePrivate: ReadNode's node belongs to its caller. Writing to an
// entry rectangle of it changes nothing the tree reads: Tree.Node, Search
// and a fresh ReadNode still read the stored rectangle.
func TestReadNodePrivate(t *testing.T) {
	tr := mustNew(t, smallConfig())
	for i, p := range randomPoints(5, 300) {
		if err := tr.InsertPoint(p, ObjID(i)); err != nil {
			t.Fatal(err)
		}
	}
	page := leafPage(t, tr)
	n, err := tr.ReadNode(page)
	if err != nil {
		t.Fatal(err)
	}
	stored, obj := n.Entries[0].Rect.Clone(), n.Entries[0].Obj
	n.Entries[0].Rect.Lo[0] += 1000
	n.Entries[0].Rect.Hi[0] += 1000

	shared, err := tr.Node(uint64(page))
	if err != nil {
		t.Fatal(err)
	}
	if r := shared.Rect(0); !r.Equal(stored) {
		t.Errorf("Tree.Node reads %v, stored %v", r, stored)
	}
	found := false
	if err := tr.Search(stored, func(e Entry) bool {
		found = found || e.Obj == obj && e.Rect.Equal(stored)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Errorf("Search does not find object %d at %v", obj, stored)
	}
	fresh, err := tr.ReadNode(page)
	if err != nil {
		t.Fatal(err)
	}
	if r := fresh.Entries[0].Rect; !r.Equal(stored) {
		t.Errorf("a fresh ReadNode reads %v, stored %v", r, stored)
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
