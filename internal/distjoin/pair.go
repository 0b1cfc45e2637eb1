// Package distjoin implements the paper's primary contribution: incremental
// algorithms for the distance join and distance semi-join of two R-tree
// indexed spatial relations (Hjaltason & Samet, SIGMOD 1998, §2).
//
// The central structure is a priority queue of pairs, each pair combining an
// item (index node, leaf bounding rectangle, or exact object) from each
// input, keyed by the distance between the items. Popping the minimum pair
// either reports an object pair — guaranteed to be the next closest by the
// consistency of the distance functions — or expands a node into child
// pairs. All of the paper's evaluated variants are implemented: traversal
// policies (Basic / Even / Simultaneous with plane sweep), tie-breaking
// (depth-first / breadth-first), distance ranges with MINMAXDIST pruning,
// maximum-distance estimation from a result-count bound, the semi-join
// filtering ladder (Outside … GlobalAll), and reverse (farthest-first)
// ordering.
package distjoin

import (
	"distjoin/internal/geom"
	"distjoin/internal/rtree"
)

// itemKind distinguishes the three kinds of queue-pair items.
type itemKind uint8

const (
	// kindNode is an index node, referenced by page id.
	kindNode itemKind = iota
	// kindOBR is a leaf entry holding an object bounding rectangle; the
	// exact geometry must be fetched before the pair can be reported
	// (Figure 3, lines 7–13).
	kindOBR
	// kindObj is exact object geometry (leaf entries when objects are
	// stored directly, or fetched geometry re-enqueued from an OBR pair).
	kindObj
)

// item is one half of a queue pair. c is its rectangle as one run of
// coordinates, low corner then high corner, in any dimensionality: a view
// into the block of the cached index node the item was read from, where the
// index keeps one, so queueing an item copies no geometry. Like the node it
// views, c is read-only.
type item struct {
	c     []float64
	ref   uint64
	kind  itemKind
	level int8 // node level; -1 for OBR/object items
}

// newItem builds an item on its own copy of r's coordinates.
func newItem(kind itemKind, level int8, ref uint64, r geom.Rect) item {
	return item{c: concat(r.Lo, r.Hi), ref: ref, kind: kind, level: level}
}

// concat returns a and b copied into one new run.
func concat(a, b []float64) []float64 {
	return append(append(make([]float64, 0, len(a)+len(b)), a...), b...)
}

func (it item) isNode() bool { return it.kind == kindNode }

// tieOrder is what the item adds to the tie order of a pair: rank 1 for a
// node, its level and its ref.
func (it *item) tieOrder() tieOrder {
	if it.isNode() {
		return tieOrder{1, int(it.level), it.ref, 0}
	}
	return tieOrder{0, int(it.level), it.ref, 0}
}

// rect returns the item's rectangle, a view of its coordinates.
func (it item) rect() geom.Rect { return geom.RectOf(it.c) }

// lo0 and hi0 are the item's extent along axis 0, the plane sweep's axis.
func (it item) lo0() float64 { return it.c[0] }
func (it item) hi0() float64 { return it.c[len(it.c)/2] }

// qpair is a priority-queue element: a pair of items and its ordering key
// (the minimum distance between the items for forward joins; an upper
// distance bound for reverse joins).
type qpair struct {
	key    float64
	i1, i2 item
}

// tieOrder is what the queue ordering compares of a pair after its key: the
// rank — how many of its items are nodes — the sum of its items' levels, and
// its refs.
type tieOrder struct {
	rank, levelSum int
	ref1, ref2     uint64
}

func (p *qpair) tieOrder() tieOrder { return p.i1.tieOrder().and(p.i2.tieOrder()) }

// and combines the tie orders of two items into their pair's, a first.
func (a tieOrder) and(b tieOrder) tieOrder {
	return tieOrder{a.rank + b.rank, a.levelSum + b.levelSum, a.ref1, b.ref1}
}

// before orders two pairs of equal key: leaf-entry pairs before pairs
// involving nodes (§2.2.2), then deeper nodes first (depth-first
// tie-breaking) or shallower nodes first (breadth-first), and finally
// references for determinism.
func (a tieOrder) before(b tieOrder, depthFirst bool) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	if a.levelSum != b.levelSum {
		if depthFirst {
			return a.levelSum < b.levelSum // deeper (smaller level) first
		}
		return a.levelSum > b.levelSum // shallower first
	}
	if a.ref1 != b.ref1 {
		return a.ref1 < b.ref1
	}
	return a.ref2 < b.ref2
}

// Pair is one result tuple of a distance join: the two object ids, their
// geometry, and their distance. Results are delivered in ascending (or, for
// reverse joins, descending) order of Dist. The rectangles are the pair's
// own copies: nothing the engine or another cursor reads is reachable
// through them. They share a chunk with the rectangles of up to 63 pairs
// delivered beside them, so a retained Pair keeps at most its own chunk
// (4 KiB at d = 2) alive, never the iterator or its queue.
type Pair struct {
	Obj1, Obj2   rtree.ObjID
	Rect1, Rect2 geom.Rect
	Dist         float64
}
