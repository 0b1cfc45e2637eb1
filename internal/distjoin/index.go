package distjoin

import (
	"distjoin/internal/quadtree"
	"distjoin/internal/rtree"
	"distjoin/internal/spatial"
)

// SpatialIndex is the hierarchical-index abstraction the engine traverses;
// see the spatial package for the contract. *rtree.Tree and *quadtree.Tree
// implement it.
type SpatialIndex = spatial.Index

// NodeRef and IndexNode re-export the traversal types.
type (
	NodeRef   = spatial.NodeRef
	IndexNode = spatial.IndexNode
)

// WrapRTree returns an R*-tree as a SpatialIndex, and a nil tree as the nil
// SpatialIndex rather than a non-nil interface holding a nil pointer.
func WrapRTree(t *rtree.Tree) SpatialIndex {
	if t == nil {
		return nil
	}
	return t
}

// WrapQuadtree returns a bucket PR quadtree as a SpatialIndex, and a nil tree
// as the nil SpatialIndex.
func WrapQuadtree(t *quadtree.Tree) SpatialIndex {
	if t == nil {
		return nil
	}
	return t
}
