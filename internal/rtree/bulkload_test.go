package rtree

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
	"distjoin/internal/racecheck"
)

func TestBulkLoadEmpty(t *testing.T) {
	tr, err := BulkLoad(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadSmall(t *testing.T) {
	pts := randomPoints(17, 5)
	items := make([]Item, len(pts))
	for i, p := range pts {
		items[i] = Item{Rect: p.Rect(), Obj: ObjID(i)}
	}
	tr, err := BulkLoad(smallConfig(), items)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Len() != 5 || tr.Height() != 1 {
		t.Fatalf("Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadLarge(t *testing.T) {
	pts := randomPoints(23, 10000)
	items := make([]Item, len(pts))
	for i, p := range pts {
		items[i] = Item{Rect: p.Rect(), Obj: ObjID(i)}
	}
	tr, err := BulkLoad(smallConfig(), items)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Len() != 10000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Bulk-loaded and insert-built trees must answer queries identically.
	query := geom.R(geom.Pt(100, 100), geom.Pt(350, 420))
	want := 0
	for _, p := range pts {
		if query.ContainsPoint(p) {
			want++
		}
	}
	got := 0
	tr.Search(query, func(Entry) bool { got++; return true })
	if got != want {
		t.Fatalf("search on bulk-loaded tree: %d, want %d", got, want)
	}
}

// TestAllocBulkLoad: bulk loading costs a sort, not an allocation per
// point. Leaf entries alias the input rectangles and the sort's keys hold no
// pointers, so what allocates is per node (its page, its MBR) and per sort
// call (its keys). 2.19 allocations a point when every leaf entry cloned
// its rectangle and the slabs were sorted by reflection swaps.
func TestAllocBulkLoad(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	const n = 20000
	items := pointItems(5, n)()
	perPoint := testing.AllocsPerRun(5, func() {
		tr, err := BulkLoad(Config{Dims: 2}, items)
		if err != nil {
			t.Fatal(err)
		}
		tr.Close()
	}) / n
	t.Logf("%.3f allocations a point", perPoint)
	if perPoint > 0.25 {
		t.Errorf("BulkLoad of %d points allocates %.3f times a point, want at most 0.25", n, perPoint)
	}
}

func TestBulkLoadRejectsBadRect(t *testing.T) {
	items := []Item{{Rect: geom.Rect{Lo: geom.Pt(1, 1), Hi: geom.Pt(0, 0)}, Obj: 1}}
	if _, err := BulkLoad(smallConfig(), items); err == nil {
		t.Fatal("invalid rect accepted")
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	pts := randomPoints(31, 3000)
	items := make([]Item, len(pts))
	for i, p := range pts {
		items[i] = Item{Rect: p.Rect(), Obj: ObjID(i)}
	}
	tr, err := BulkLoad(smallConfig(), items)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Inserts and deletes must keep working on a bulk-loaded tree.
	extra := randomPoints(32, 200)
	for i, p := range extra {
		if err := tr.InsertPoint(p, ObjID(10000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if ok, err := tr.Delete(pts[i].Rect(), ObjID(i)); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	if tr.Len() != 3000+200-100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: for random point sets and random queries, bulk-loaded and
// insertion-built trees return exactly the brute-force result set.
func TestPropSearchMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 100 + rnd.Intn(400)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rnd.Float64()*100, rnd.Float64()*100)
		}
		items := make([]Item, n)
		for i, p := range pts {
			items[i] = Item{Rect: p.Rect(), Obj: ObjID(i)}
		}
		bulk, err := BulkLoad(smallConfig(), items)
		if err != nil {
			return false
		}
		defer bulk.Close()
		ins, err := New(smallConfig())
		if err != nil {
			return false
		}
		defer ins.Close()
		for i, p := range pts {
			if err := ins.InsertPoint(p, ObjID(i)); err != nil {
				return false
			}
		}
		if bulk.CheckInvariants() != nil || ins.CheckInvariants() != nil {
			return false
		}
		for q := 0; q < 5; q++ {
			x1, y1 := rnd.Float64()*100, rnd.Float64()*100
			x2, y2 := x1+rnd.Float64()*40, y1+rnd.Float64()*40
			query := geom.R(geom.Pt(x1, y1), geom.Pt(x2, y2))
			want := map[ObjID]bool{}
			for i, p := range pts {
				if query.ContainsPoint(p) {
					want[ObjID(i)] = true
				}
			}
			for _, tr := range []*Tree{bulk, ins} {
				got := map[ObjID]bool{}
				tr.Search(query, func(e Entry) bool { got[e.Obj] = true; return true })
				if len(got) != len(want) {
					return false
				}
				for id := range want {
					if !got[id] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestNodeEncodeDecodeRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	for _, level := range []int{0, 1, 3} {
		n := &Node{Page: 42, Level: level}
		for i := 0; i < 20; i++ {
			e := Entry{Rect: geom.R(
				geom.Pt(rnd.Float64(), rnd.Float64()),
				geom.Pt(1+rnd.Float64(), 1+rnd.Float64()))}
			if level == 0 {
				e.Obj = ObjID(rnd.Uint64())
			} else {
				e.Child = 1 + pager.PageID(rnd.Intn(1000))
			}
			n.Entries = append(n.Entries, e)
		}
		buf := make([]byte, 2048)
		encodeNode(n, 2, buf)
		got, err := decodeNode(42, 2, buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Points {
			t.Fatal("decode set Points on boxes")
		}
		if got.Level != n.Level || len(got.Refs) != len(n.Entries) || len(got.Coords) != 4*len(n.Entries) {
			t.Fatalf("level/count mismatch: %v vs %v", got, n)
		}
		for i := range n.Entries {
			if e := got.entry(i); !e.Rect.Equal(n.Entries[i].Rect) ||
				e.Obj != n.Entries[i].Obj ||
				e.Child != n.Entries[i].Child {
				t.Fatalf("entry %d mismatch: %+v vs %+v", i, e, n.Entries[i])
			}
		}
		// Through the entry form the page re-encodes to the same bytes.
		again := make([]byte, len(buf))
		encodeNode(got.entryForm(), 2, again)
		if !bytes.Equal(again, buf) {
			t.Fatal("the decoded node re-encodes to other bytes")
		}
	}
}

func TestNodeEncodeOverflowPanics(t *testing.T) {
	n := new(Node)
	for i := 0; i < 100; i++ {
		n.Entries = append(n.Entries, Entry{Rect: geom.Pt(0, 0).Rect()})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	encodeNode(n, 2, make([]byte, 256))
}

func TestDecodeCorruptNode(t *testing.T) {
	buf := make([]byte, 256)
	buf[0] = flagLeaf
	buf[1] = 3 // level 3 but leaf flag set
	if _, err := decodeNode(1, 2, buf); err == nil {
		t.Fatal("inconsistent leaf flag accepted")
	}
	buf2 := make([]byte, 256)
	buf2[2] = 0xff // count 255 exceeds capacity
	buf2[3] = 0
	if _, err := decodeNode(1, 2, buf2); err == nil {
		t.Fatal("oversized count accepted")
	}
}
