package distjoin

import (
	"distjoin/internal/distjoin"
	"distjoin/internal/quadtree"
)

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
