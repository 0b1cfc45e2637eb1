package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
	"distjoin/internal/stats"
)

// heldNode is a node a model run keeps referenced, with a copy of what it
// held when it was read.
type heldNode struct {
	n, was *Node
}

// copyNode is a private copy of a read node's page fields.
func copyNode(n *Node) *Node {
	return &Node{Page: n.Page, Level: n.Level, Coords: append([]float64(nil), n.Coords...), Refs: append([]uint64(nil), n.Refs...), Points: n.Points}
}

// sameNode reports how got differs from want in Page, Level, Points, Coords
// (bit for bit) and Refs, or "" when it does not.
func sameNode(got, want *Node) string {
	switch {
	case got.Page != want.Page || got.Level != want.Level || got.Points != want.Points:
		return fmt.Sprintf("page/level/points %d/%d/%v, want %d/%d/%v", got.Page, got.Level, got.Points, want.Page, want.Level, want.Points)
	case len(got.Coords) != len(want.Coords) || len(got.Refs) != len(want.Refs):
		return fmt.Sprintf("%d coords and %d refs, want %d and %d", len(got.Coords), len(got.Refs), len(want.Coords), len(want.Refs))
	}
	for i := range got.Coords {
		if math.Float64bits(got.Coords[i]) != math.Float64bits(want.Coords[i]) {
			return fmt.Sprintf("coord %d is %v, want %v", i, got.Coords[i], want.Coords[i])
		}
	}
	for i := range got.Refs {
		if got.Refs[i] != want.Refs[i] {
			return fmt.Sprintf("ref %d is %d, want %d", i, got.Refs[i], want.Refs[i])
		}
	}
	return ""
}

// entriesMatch reports how a read node's Entries, when ReadNode built them,
// fail to be views of its Coords and Refs, or "" when they are.
func entriesMatch(n *Node) string {
	if n.Entries == nil {
		return ""
	}
	if len(n.Entries) != len(n.Refs) {
		return fmt.Sprintf("%d entries for %d refs", len(n.Entries), len(n.Refs))
	}
	if len(n.Refs) == 0 {
		return ""
	}
	w := len(n.Coords) / len(n.Refs)
	for i, e := range n.Entries {
		ref := uint64(e.Child)
		if n.Leaf() {
			ref = uint64(e.Obj)
		}
		if ref != n.Refs[i] || &e.Rect.Lo[0] != &n.Coords[i*w] || &e.Rect.Hi[0] != &n.Coords[i*w+w/2] {
			return fmt.Sprintf("entry %d is not a view of the node's coords and refs", i)
		}
	}
	return ""
}

// storedNode decodes the page's current bytes from the store, after writing
// back every dirty frame. It reads the store directly: no pool access.
func storedNode(t *testing.T, tr *Tree, id pager.PageID) *Node {
	t.Helper()
	if err := tr.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, tr.cfg.PageSize)
	if err := tr.Pool().Store().ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	n, err := decodeNode(id, tr.Dims(), buf)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDecodeLifetimeModel runs seeded random interleavings of node reads
// through a pool smaller than the tree, inserts, deletes, DropCache and
// runtime.GC, while the run keeps some of the nodes it read referenced and
// lets go of others. Every node read must equal, bit for bit, a decode of
// its page's current bytes in the store — however the page's earlier decodes
// were shared, kept or collected — and every node still referenced must hold
// what it held when it was read. The sequence's NodeReads and BufferHits
// are golden: they were recorded when every miss decoded afresh, and how a
// page's decode is shared must not change the node I/O the tree is charged.
func TestDecodeLifetimeModel(t *testing.T) {
	cases := []struct {
		seed        int64
		reads, hits int64
	}{
		{3401, 6769, 6925},
		{3402, 6014, 6976},
		{3403, 6439, 6883},
		{3404, 5891, 6912},
	}
	for _, c := range cases {
		t.Run(fmt.Sprint(c.seed), func(t *testing.T) {
			var ctr stats.Counters
			cfg := smallConfig()
			cfg.Counters = &ctr
			tr := mustNew(t, cfg)
			rnd := rand.New(rand.NewSource(c.seed))
			type object struct {
				r  geom.Rect
				id ObjID
			}
			var live []object
			var held []heldNode
			read := func(id pager.PageID) *Node {
				t.Helper()
				var n *Node
				var err error
				if rnd.Intn(2) == 0 {
					n, err = tr.ReadNode(id)
				} else {
					n, err = tr.ReadNodeLean(id)
				}
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameNode(n, storedNode(t, tr, id)); diff != "" {
					t.Fatalf("read of page %d: %s", id, diff)
				}
				if diff := entriesMatch(n); diff != "" {
					t.Fatalf("read of page %d: %s", id, diff)
				}
				if rnd.Intn(3) == 0 {
					held = append(held, heldNode{n, copyNode(n)})
				}
				return n
			}
			var walk func(id pager.PageID)
			walk = func(id pager.PageID) {
				if n := read(id); !n.Leaf() {
					for _, ref := range n.Refs {
						walk(pager.PageID(ref))
					}
				}
			}
			for op := 0; op < 1500; op++ {
				switch k := rnd.Intn(20); {
				case k < 7:
					x, y := rnd.Float64()*1000, rnd.Float64()*1000
					o := object{geom.R(geom.Pt(x, y), geom.Pt(x+rnd.Float64()*20, y+rnd.Float64()*20)), ObjID(op)}
					if rnd.Intn(2) == 0 {
						o.r = geom.Pt(x, y).Rect()
					}
					if err := tr.Insert(o.r, o.id); err != nil {
						t.Fatal(err)
					}
					live = append(live, o)
				case k < 9 && len(live) > 0:
					i := rnd.Intn(len(live))
					if ok, err := tr.Delete(live[i].r, live[i].id); err != nil || !ok {
						t.Fatalf("delete %d: %v %v", live[i].id, ok, err)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				case k < 15:
					for n := read(tr.RootPage()); !n.Leaf() && len(n.Refs) > 0; {
						n = read(pager.PageID(n.Refs[rnd.Intn(len(n.Refs))]))
					}
				case k < 16:
					walk(tr.RootPage())
				case k < 17:
					if err := tr.DropCache(); err != nil {
						t.Fatal(err)
					}
				case k < 18:
					runtime.GC()
				case k < 19:
					for i := len(held) - 1; i >= 0; i-- {
						if rnd.Intn(2) == 0 {
							held[i] = held[len(held)-1]
							held = held[:len(held)-1]
						}
					}
				default:
					for _, h := range held {
						if diff := sameNode(h.n, h.was); diff != "" {
							t.Fatalf("a referenced node of page %d changed: %s", h.was.Page, diff)
						}
					}
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if tr.Len() != len(live) {
				t.Fatalf("%d objects indexed, %d live", tr.Len(), len(live))
			}
			t.Logf("%d objects, height %d, %d node reads, %d buffer hits", len(live), tr.Height(), ctr.NodeReads, ctr.BufferHits)
			if ctr.NodeReads != c.reads || ctr.BufferHits != c.hits {
				t.Errorf("%d node reads and %d buffer hits, golden %d and %d", ctr.NodeReads, ctr.BufferHits, c.reads, c.hits)
			}
		})
	}
}
