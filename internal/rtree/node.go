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
	"sync/atomic"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
	"distjoin/internal/spatial"
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

// Node is an R-tree node in entry form: what insertion, deletion, a split
// or bulk load rearranges, and what ReadNode hands its caller. Level 0 is
// the leaf level.
type Node struct {
	Page    pager.PageID
	Level   int
	Entries []Entry
}

// Leaf reports whether the node is at the leaf level.
func (n *Node) Leaf() bool { return n.Level == 0 }

// node is the decoded form of a node page as the join engines traverse it:
// Tree.Node hands out a pointer to its IndexNode, so the engines read the
// decode itself. It is shared and read-only (see Tree.readNode).
type node struct {
	spatial.IndexNode
	page pager.PageID
	// mbr is the node's bounding rectangle, built the first time a query
	// opens on the node as its root.
	mbr atomic.Pointer[geom.Rect]
	// self is the node as the buffer frames hold it, so that attaching the
	// node to a frame again after an eviction allocates nothing.
	self any
}

// entry is entry i of the node, a view of Coords.
func (n *node) entry(i int) Entry {
	if n.Level == 0 {
		return Entry{Rect: n.Rect(i), Obj: ObjID(n.Refs[i])}
	}
	return Entry{Rect: n.Rect(i), Child: pager.PageID(n.Refs[i])}
}

// entryForm is the node in entry form, its entries views of Coords.
func (n *node) entryForm() *Node {
	es := make([]Entry, len(n.Refs))
	for i := range es {
		es[i] = n.entry(i)
	}
	return &Node{Page: n.page, Level: n.Level, Entries: es}
}

// MBR returns the minimum bounding rectangle of the node's entries, or the
// zero Rect for an empty node (only a fresh root may be empty).
func (n *node) MBR() geom.Rect {
	if len(n.Refs) == 0 {
		return geom.Rect{}
	}
	r := n.Rect(0).Clone()
	for i := 1; i < len(n.Refs); i++ {
		r.UnionInPlace(n.Rect(i))
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

// decodeNode deserializes a node from a page image: one block of
// coordinates and the refs. The two stay separate allocations: a queued pair
// that views a node's coordinates would otherwise keep its refs alive too.
func decodeNode(page pager.PageID, dims int, buf []byte) (*node, error) {
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
	n := &node{page: page, IndexNode: spatial.IndexNode{Leaf: leaf, Level: level, Coords: make([]float64, count*w), Refs: make([]uint64, count), Points: leaf}}
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
