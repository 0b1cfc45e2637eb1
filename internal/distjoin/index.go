package distjoin

import (
	"distjoin/internal/quadtree"
	"distjoin/internal/rtree"
	"distjoin/internal/spatial"
)

// SpatialIndex is the hierarchical-index abstraction the engine traverses;
// see the spatial package for the contract and the provided adapters.
type SpatialIndex = spatial.Index

// NodeRef and IndexNode re-export the traversal types.
type (
	NodeRef   = spatial.NodeRef
	IndexNode = spatial.IndexNode
)

// WrapRTree exposes an R*-tree as a SpatialIndex.
func WrapRTree(t *rtree.Tree) SpatialIndex { return spatial.WrapRTree(t) }

// WrapQuadtree exposes a bucket PR quadtree as a SpatialIndex.
func WrapQuadtree(t *quadtree.Tree) SpatialIndex { return spatial.WrapQuadtree(t) }
