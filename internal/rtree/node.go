// Package rtree implements a disk-paged R*-tree (Beckmann, Kriegel,
// Schneider & Seeger, 1990), the spatial index the paper's experiments are
// built on (§2.1, §3.1): ChooseSubtree with overlap minimization, the R*
// topological split, forced reinsertion, deletion with subtree condensing,
// STR bulk loading, and window search. Nodes live on fixed-size pages behind
// an LRU buffer pool so that node I/O can be counted exactly as in Table 1
// of the paper.
//
// Leaf entries reference objects by an opaque 64-bit ObjID, and carry the
// object's bounding rectangle. When the indexed objects are points the
// rectangle is degenerate, which matches the paper's experimental setup of
// storing point objects directly in the leaves.
package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
)

// ObjID identifies an indexed object (e.g. a tuple ID).
type ObjID uint64

// Entry is one (key, pointer) slot of an R-tree node: a bounding rectangle
// plus either a child page (internal nodes) or an object id (leaf nodes).
type Entry struct {
	Rect  geom.Rect
	Child pager.PageID // valid in internal nodes
	Obj   ObjID        // valid in leaf nodes
}

// Node is the decoded form of an R-tree node page. Level 0 is the leaf
// level. Which fields hold depends on where the node came from:
//
//   - A read node — Tree.ReadNodeLean, Tree.ReadNode — is shared and
//     read-only (see ReadNodeLean). Page, Level, Coords, Refs and Points hold;
//     Entries is nil until ReadNode builds it, once per page version, as
//     views of Coords.
//   - An edit node — what insertion, deletion, a split or bulk load
//     rearranges — holds Page, Level and Entries only.
type Node struct {
	Page    pager.PageID
	Level   int
	Entries []Entry
	// Coords is the one block of a read node's entry rectangles: entry i's
	// low corner then high corner at Coords[i*2*dims : (i+1)*2*dims].
	// Refs[i] is entry i's child page or object id, and Points says every
	// entry of a leaf is a point. The three are what the join engines read.
	Coords []float64
	Refs   []uint64
	Points bool

	derived atomic.Value
	entries sync.Once
	// self is a read node as the buffer frames hold it, so that attaching
	// the node to a frame again after an eviction allocates nothing.
	self any
}

// Derived returns the value build made of n the first time it was asked for.
// An adapter that traverses the tree in a form of its own keeps that form
// here, so it lives exactly as long as the decoded node it was built from.
// build's result must be immutable, and of one type on every node;
// concurrent first calls may each build one, and any of them is kept.
func (n *Node) Derived(build func(*Node) any) any {
	if v := n.derived.Load(); v != nil {
		return v
	}
	v := build(n)
	n.derived.Store(v)
	return v
}

// Leaf reports whether the node is at the leaf level.
func (n *Node) Leaf() bool { return n.Level == 0 }

// rect is entry i's rectangle on a read node, a view of its run of Coords.
func (n *Node) rect(i int) geom.Rect {
	w := len(n.Coords) / len(n.Refs)
	return geom.RectOf(n.Coords[i*w : (i+1)*w : (i+1)*w])
}

// entry is entry i of a read node, a view of Coords.
func (n *Node) entry(i int) Entry {
	if n.Level == 0 {
		return Entry{Rect: n.rect(i), Obj: ObjID(n.Refs[i])}
	}
	return Entry{Rect: n.rect(i), Child: pager.PageID(n.Refs[i])}
}

// entryViews builds a read node's entries from its Coords and Refs.
func (n *Node) entryViews() []Entry {
	es := make([]Entry, len(n.Refs))
	for i := range es {
		es[i] = n.entry(i)
	}
	return es
}

// MBR returns the minimum bounding rectangle of a read node's entries, or
// the zero Rect for an empty node (only a fresh root may be empty).
func (n *Node) MBR() geom.Rect {
	if len(n.Refs) == 0 {
		return geom.Rect{}
	}
	r := n.rect(0).Clone()
	for i := 1; i < len(n.Refs); i++ {
		r.UnionInPlace(n.rect(i))
	}
	return r
}

// Page layout:
//
//	offset 0  uint8  flags (bit 0: leaf)
//	offset 1  uint8  level
//	offset 2  uint16 entry count
//	offset 4  uint32 reserved
//	offset 8  entries: dims×2 float64 (lo coords, hi coords), uint64 ref
const nodeHeaderSize = 8

const flagLeaf = 1

// entrySize returns the on-page size of one entry for the given
// dimensionality.
func entrySize(dims int) int { return dims*2*8 + 8 }

// maxEntriesFor returns the node capacity (fan-out) for a page size and
// dimensionality.
func maxEntriesFor(pageSize, dims int) int {
	return (pageSize - nodeHeaderSize) / entrySize(dims)
}

// encodeNode serializes n into buf (a full page). It panics if the node
// exceeds the page capacity, which indicates a bug in overflow handling.
func encodeNode(n *Node, dims int, buf []byte) {
	if len(n.Entries) > maxEntriesFor(len(buf), dims) {
		panic(fmt.Sprintf("rtree: encoding node %d with %d entries, capacity %d",
			n.Page, len(n.Entries), maxEntriesFor(len(buf), dims)))
	}
	var flags byte
	if n.Level == 0 {
		flags |= flagLeaf
	}
	buf[0] = flags
	buf[1] = byte(n.Level)
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(n.Entries)))
	binary.LittleEndian.PutUint32(buf[4:], 0)
	off := nodeHeaderSize
	for _, e := range n.Entries {
		for i := 0; i < dims; i++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.Rect.Lo[i]))
			off += 8
		}
		for i := 0; i < dims; i++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.Rect.Hi[i]))
			off += 8
		}
		var ref uint64
		if n.Level == 0 {
			ref = uint64(e.Obj)
		} else {
			ref = uint64(e.Child)
		}
		binary.LittleEndian.PutUint64(buf[off:], ref)
		off += 8
	}
}

// decodeNode deserializes a read node from a page image: one block of
// coordinates and the refs. The two stay separate allocations: a queued pair
// that views a node's coordinates would otherwise keep its refs alive too.
func decodeNode(page pager.PageID, dims int, buf []byte) (*Node, error) {
	leaf := buf[0]&flagLeaf != 0
	level := int(buf[1])
	count := int(binary.LittleEndian.Uint16(buf[2:]))
	if leaf != (level == 0) {
		return nil, fmt.Errorf("rtree: page %d: leaf flag %v inconsistent with level %d", page, leaf, level)
	}
	if max := maxEntriesFor(len(buf), dims); count > max {
		return nil, fmt.Errorf("rtree: page %d: count %d exceeds capacity %d", page, count, max)
	}
	w := 2 * dims
	n := &Node{Page: page, Level: level, Coords: make([]float64, count*w), Refs: make([]uint64, count), Points: leaf}
	off := nodeHeaderSize
	for k := range n.Refs {
		c := n.Coords[k*w : (k+1)*w : (k+1)*w]
		for i := range c {
			c[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		ref := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		if level > 0 && (ref == uint64(pager.InvalidPage) || ref != uint64(pager.PageID(ref))) {
			return nil, fmt.Errorf("rtree: page %d: entry %d names child page %d", page, k, ref)
		}
		n.Refs[k] = ref
		n.Points = n.Points && geom.RectOf(c).IsPoint()
	}
	return n, nil
}
