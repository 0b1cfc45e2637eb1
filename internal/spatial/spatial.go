// Package spatial defines the hierarchical-decomposition abstraction the
// incremental algorithms traverse — the paper's "large class of
// hierarchical spatial data structures" (§2.2) — and nothing else. The
// structures implement it themselves: *rtree.Tree (the disk-paged R*-tree)
// and *quadtree.Tree (the bucket PR quadtree) are each an Index, and each
// hands out its own node as the IndexNode, so what a traversal reads of a
// node is decided in exactly one place per structure.
package spatial

import "distjoin/internal/geom"

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
	// NumObjects returns the number of indexed objects, exactly: a
	// semi-join over the index ends once that many first objects have
	// their partners, so a count that is too low cuts the result short.
	NumObjects() int
	// Root returns a reference to the root node. Only called when
	// NumObjects() > 0.
	Root() (NodeRef, error)
	// Node reads the node behind a reference produced by Root or a prior
	// Node call. The result is READ-ONLY and may be shared: an
	// implementation is free to hand the same node, rectangles included,
	// to every caller on every goroutine (the R*-tree does), so
	// callers never modify it and copy any geometry they pass on to code
	// they do not control. It stays valid for as long as it is referenced.
	Node(ref uint64) (*IndexNode, error)
	// MinObjectsUnder returns a guaranteed lower bound on the number of
	// objects in the subtree of a non-root node at the given level, used
	// by the maximum-distance estimation of §2.2.4. Structures without a
	// minimum-fill invariant, whose nodes may be empty, return 0.
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
