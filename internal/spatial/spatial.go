// Package spatial defines the hierarchical-decomposition abstraction the
// incremental algorithms traverse — the paper's "large class of
// hierarchical spatial data structures" (§2.2) — together with adapters for
// the two provided structures: the disk-paged R*-tree and the bucket PR
// quadtree.
package spatial

import (
	"sync/atomic"

	"distjoin/internal/geom"
	"distjoin/internal/pager"
	"distjoin/internal/quadtree"
	"distjoin/internal/rtree"
)

// Index is the abstraction the join and nearest-neighbour engines traverse. The paper's
// algorithms "work for any spatial data structure based on a hierarchical
// decomposition" (§2.2): any tree of nodes covering regions of space, with
// objects stored in leaves, each object in exactly one leaf. R-trees
// satisfy this directly; unbalanced structures such as quadtrees do too,
// with leaves at varying levels (§2.2.2).
//
// Levels number upward from the deepest possible leaf: a node's children
// are at smaller levels than the node, and leaves may sit at any level ≥ 0.
// Object items use level -1 internally, so deeper always sorts first under
// depth-first tie-breaking.
type Index interface {
	// Dims returns the dimensionality of indexed geometry.
	Dims() int
	// NumObjects returns the number of indexed objects.
	NumObjects() int
	// Root returns a reference to the root node. Only called when
	// NumObjects() > 0.
	Root() (NodeRef, error)
	// Node reads the node behind a reference produced by Root or a prior
	// Node call. The result is READ-ONLY and may be shared: an
	// implementation is free to hand the same node, rectangles included,
	// to every caller on every goroutine (the R*-tree adapter does), so
	// callers never modify it and copy any geometry they pass on to code
	// they do not control. It stays valid for as long as it is referenced.
	Node(ref uint64) (*IndexNode, error)
	// MinObjectsUnder returns a guaranteed lower bound on the number of
	// objects in the subtree of a non-root node at the given level, used
	// by the maximum-distance estimation of §2.2.4. Structures without a
	// minimum-fill invariant should return 1.
	MinObjectsUnder(level int) int
}

// Fanout is an optional Index extension reporting the maximum node
// fan-out, used by the join engine to pre-size its per-expansion scratch
// buffers at construction so first expansions do not grow them mid-join.
// The value is a sizing hint, not an invariant: a structure whose nodes can
// occasionally exceed it (a quadtree leaf at the depth cap) still works,
// the scratch just grows once.
type Fanout interface {
	// MaxFanout returns the largest number of entries (children or
	// objects) a node is expected to hold, or 0 when unknown.
	MaxFanout() int
}

// NodeRef is a reference to a node — the root, as Index.Root names it: an
// opaque reference plus the node's level and bounding region. Rect must
// cover every entry of that node — the consistency the join's distance
// bounds rest on (§2.1: no entry is nearer than its node), and what lets the
// engine skip a window's test on the entries of a node the window contains.
// An entry's rectangle in its parent covers its node the same way.
type NodeRef struct {
	Ref   uint64
	Level int
	Rect  geom.Rect
}

// IndexNode is the decoded form of an index node: exactly what the engines
// read of it, one block of coordinates and one array of refs, with nothing
// built per entry. Entry i is read through Rect(i), Refs[i] and, on a
// non-leaf node, ChildLevel(i).
type IndexNode struct {
	Leaf  bool
	Level int
	// Coords is the one block all of the node's entry rectangles lie in:
	// entry i's low corner then high corner (geom.RectOf) at
	// Coords[i*2*dims : (i+1)*2*dims]. The join engine queues views of it
	// instead of a copy of the node's coordinates per visit.
	Coords []float64
	// Refs[i] is entry i's ref: the child node's, to pass to Index.Node, or
	// the object's id.
	Refs []uint64
	// Levels[i] is child i's level, where a child may sit lower than one
	// level below its node (an unbalanced index). Nil means every child is
	// at Level−1.
	Levels []int8
	// Points says that every entry of this leaf is a degenerate rectangle —
	// a point. The join engine then takes an object pair's d_max (§2.2.3)
	// from a row kernel over Coords instead of the scalar face minimum, and
	// between two points from the distance it already has. An implementation
	// decides it once, when it builds the node, not per visit. False means
	// "not known": a node that never sets it is still traversed correctly,
	// through the scalar bound. It says nothing about a non-leaf node.
	Points bool
}

// Rect is entry i's rectangle, a view of its run of Coords.
func (n *IndexNode) Rect(i int) geom.Rect {
	w := len(n.Coords) / len(n.Refs)
	return geom.RectOf(n.Coords[i*w : (i+1)*w : (i+1)*w])
}

// ChildLevel is the level of child i of a non-leaf node.
func (n *IndexNode) ChildLevel(i int) int {
	if n.Levels != nil {
		return int(n.Levels[i])
	}
	return n.Level - 1
}

// rtreeIndex adapts *rtree.Tree to SpatialIndex. R-tree levels already
// number upward from the leaves (leaf = 0), matching the interface
// contract.
type rtreeIndex struct {
	t *rtree.Tree
}

// WrapRTree exposes an R*-tree as a SpatialIndex. The public join
// constructors apply it implicitly; it is exported for callers composing an
// R-tree with a different structure on the other side.
func WrapRTree(t *rtree.Tree) Index {
	if t == nil {
		return nil
	}
	return rtreeIndex{t: t}
}

func (ix rtreeIndex) Dims() int       { return ix.t.Dims() }
func (ix rtreeIndex) NumObjects() int { return ix.t.Len() }

// rtreeNode is the adapter's form of a decoded R-tree node, built once per
// version of its page and kept on the decoded node: the node as the
// engines traverse it, whose coordinates and refs are the decoded node's
// own, and its bounding rectangle, built the first time a query opens on the
// node as its root.
type rtreeNode struct {
	IndexNode
	mbr atomic.Pointer[geom.Rect]
}

func adaptRTreeNode(n *rtree.Node) any {
	return &rtreeNode{IndexNode: IndexNode{Leaf: n.Leaf(), Level: n.Level, Coords: n.Coords, Refs: n.Refs, Points: n.Points}}
}

func (ix rtreeIndex) Root() (NodeRef, error) {
	n, err := ix.t.ReadNodeLean(ix.t.RootPage())
	if err != nil {
		return NodeRef{}, err
	}
	a := n.Derived(adaptRTreeNode).(*rtreeNode)
	mbr := a.mbr.Load()
	if mbr == nil {
		mbr = new(geom.Rect)
		*mbr = n.MBR() // zero for an empty root
		a.mbr.Store(mbr)
	}
	return NodeRef{Ref: uint64(n.Page), Level: n.Level, Rect: *mbr}, nil
}

func (ix rtreeIndex) Node(ref uint64) (*IndexNode, error) {
	n, err := ix.t.ReadNodeLean(pager.PageID(ref))
	if err != nil {
		return nil, err
	}
	return &n.Derived(adaptRTreeNode).(*rtreeNode).IndexNode, nil
}

func (ix rtreeIndex) MinObjectsUnder(level int) int { return ix.t.MinObjectsUnder(level) }

// MaxFanout implements the optional Fanout extension: R-tree nodes hold at
// most MaxEntries entries.
func (ix rtreeIndex) MaxFanout() int { return ix.t.MaxEntries() }

// quadIndex adapts a bucket PR quadtree to SpatialIndex. Quadtrees are
// unbalanced: leaves sit at varying depths, which the engine's levels
// accommodate by numbering from the deepest possible leaf upward
// (level = MaxDepth − depth).
type quadIndex struct {
	t *quadtree.Tree
}

// WrapQuadtree exposes a quadtree as a SpatialIndex, demonstrating the
// paper's claim (§2.2) that the incremental join runs over any hierarchical
// spatial decomposition — including joins that mix an R-tree on one side
// with a quadtree on the other.
func WrapQuadtree(t *quadtree.Tree) Index {
	if t == nil {
		return nil
	}
	return quadIndex{t: t}
}

func (ix quadIndex) Dims() int       { return ix.t.Dims() }
func (ix quadIndex) NumObjects() int { return ix.t.Len() }

func (ix quadIndex) Root() (NodeRef, error) {
	ref, err := ix.t.NodeRef(0)
	if err != nil {
		return NodeRef{}, err
	}
	return NodeRef{Ref: 0, Level: ref.Level, Rect: ref.Rect}, nil
}

// Node returns the adapter's form of the node: built once per view the tree
// keeps of it — until an insert, a delete or a split changes the node — and
// handed to every visit in between, as the R*-tree adapter hands out one per
// page version.
func (ix quadIndex) Node(ref uint64) (*IndexNode, error) {
	n, err := ix.t.ReadNode(int32(ref))
	if err != nil {
		return nil, err
	}
	return n.Derived(adaptQuadNode).(*IndexNode), nil
}

func adaptQuadNode(n *quadtree.NodeView) any {
	count, w := len(n.Points)+len(n.Children), 2*n.Rect.Dim()
	out := &IndexNode{Leaf: n.Leaf, Level: n.Level, Points: n.Leaf, Coords: make([]float64, 0, count*w), Refs: make([]uint64, 0, count), Levels: make([]int8, 0, len(n.Children))}
	for _, p := range n.Points {
		out.Coords = append(append(out.Coords, p.P...), p.P...)
		out.Refs = append(out.Refs, p.ID)
	}
	for _, c := range n.Children {
		out.Coords = append(append(out.Coords, c.Rect.Lo...), c.Rect.Hi...)
		out.Refs = append(out.Refs, uint64(c.ID))
		out.Levels = append(out.Levels, int8(c.Level))
	}
	return out
}

// MinObjectsUnder returns 1: quadtrees have no minimum-fill invariant, so
// the §2.2.4 estimation can only count one guaranteed object per node (the
// restart path recovers from the residual optimism).
func (ix quadIndex) MinObjectsUnder(int) int { return 1 }

// MaxFanout implements the optional Fanout extension with the quadtree's
// sizing hint: internal nodes hold 2^dims children and leaves BucketSize
// points (leaves at the depth cap may exceed it; the hint remains valid
// as a pre-sizing estimate).
func (ix quadIndex) MaxFanout() int { return ix.t.MaxFanout() }
