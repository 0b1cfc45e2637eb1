package distjoin

import (
	"distjoin/internal/distjoin"
	"distjoin/internal/quadtree"
)

// SpatialIndex is the hierarchical-decomposition abstraction the join
// engine traverses. The paper's algorithms run over "a large class of
// hierarchical spatial data structures" (abstract, §2.2); this interface is
// that class. Index (an R*-tree) and QuadIndex (a bucket PR quadtree)
// implement it out of the box, in any combination, and custom structures
// can too.
type SpatialIndex = distjoin.SpatialIndex

// AsSpatialIndex exposes the R*-tree index for heterogeneous joins.
func (idx *Index) AsSpatialIndex() SpatialIndex { return distjoin.WrapRTree(idx.tree) }

// QuadIndex is a spatial index over point objects backed by a bucket PR
// quadtree — an unbalanced, space-partitioning alternative to the R*-tree
// (§2.2.2). Not safe for concurrent use.
type QuadIndex struct {
	tree *quadtree.Tree
}

// QuadConfig tunes quadtree construction.
type QuadConfig struct {
	// Bounds is the world extent, finite; inserted points must lie inside.
	// Required.
	Bounds Rect
	// BucketSize is the leaf capacity before a split (default 8).
	BucketSize int
	// MaxDepth caps subdivision (default 24).
	MaxDepth int
	// Counters receives node-visit accounting. May be nil.
	Counters *Stats
}

// NewQuadIndex creates an empty quadtree index.
func NewQuadIndex(cfg QuadConfig) (*QuadIndex, error) {
	t, err := quadtree.New(quadtree.Config{
		Bounds:     cfg.Bounds,
		BucketSize: cfg.BucketSize,
		MaxDepth:   cfg.MaxDepth,
		Counters:   cfg.Counters,
	})
	if err != nil {
		return nil, err
	}
	return &QuadIndex{tree: t}, nil
}

// InsertPoint adds a point object.
func (q *QuadIndex) InsertPoint(p Point, id ObjID) error {
	return q.tree.Insert(p, uint64(id))
}

// Delete removes a point object; it returns false when not present.
func (q *QuadIndex) Delete(p Point, id ObjID) bool { return q.tree.Delete(p, uint64(id)) }

// Search calls fn for every point inside query; return false to stop.
func (q *QuadIndex) Search(query Rect, fn func(Point, ObjID) bool) {
	q.tree.Search(query, func(pt quadtree.Point) bool { return fn(pt.P, ObjID(pt.ID)) })
}

// Len returns the number of indexed points.
func (q *QuadIndex) Len() int { return q.tree.Len() }

// Bounds returns the world extent.
func (q *QuadIndex) Bounds() Rect { return q.tree.Bounds() }

// AsSpatialIndex exposes the quadtree for joins.
func (q *QuadIndex) AsSpatialIndex() SpatialIndex { return distjoin.WrapQuadtree(q.tree) }

// DistanceJoinIndexes starts an incremental distance join over any two
// SpatialIndex implementations — e.g. an R*-tree against a quadtree.
func DistanceJoinIndexes(a, b SpatialIndex, opts Options) (*Join, error) {
	return distjoin.NewJoinIndexes(a, b, opts)
}

// DistanceSemiJoinIndexes starts an incremental distance semi-join over any
// two SpatialIndex implementations.
func DistanceSemiJoinIndexes(a, b SpatialIndex, filter SemiFilter, opts Options) (*SemiJoin, error) {
	return distjoin.NewSemiJoinIndexes(a, b, filter, opts)
}

// KNearestJoinIndexes starts an incremental k-nearest-neighbours join over
// any two SpatialIndex implementations (k = 1 is the distance semi-join).
func KNearestJoinIndexes(a, b SpatialIndex, k int, filter SemiFilter, opts Options) (*SemiJoin, error) {
	return distjoin.NewKNearestJoinIndexes(a, b, k, filter, opts)
}

// ClusteringJoinIndexes starts the symmetric clustering join (see
// ClusteringJoin) over any two SpatialIndex implementations.
func ClusteringJoinIndexes(a, b SpatialIndex, filter SemiFilter, opts Options) (*SemiJoin, error) {
	return distjoin.NewClusteringJoinIndexes(a, b, filter, opts)
}
