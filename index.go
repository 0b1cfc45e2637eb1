package distjoin

import (
	"errors"

	"distjoin/internal/distjoin"
	"distjoin/internal/rtree"
	"distjoin/internal/stats"
)

// Index is a spatial index over objects with rectangular (or point)
// geometry — a disk-paged R*-tree with the paper's node and buffer
// configuration by default. An Index is not safe for concurrent use, and
// must not be modified while a join over it is being consumed.
type Index struct {
	tree *rtree.Tree
}

// IndexConfig tunes index construction. The zero value reproduces the
// paper's setup for 2-D data: ~50-entry nodes and a 256 KiB buffer pool.
type IndexConfig struct {
	// Dims is the dimensionality (default 2).
	Dims int
	// PageSize is the node size in bytes (default 2048, giving fan-out 51
	// in 2-D).
	PageSize int
	// BufferFrames is the buffer-pool capacity in pages (default 128).
	BufferFrames int
	// Counters receives node I/O accounting. May be nil; it can also be
	// attached later with SetCounters.
	Counters *Stats
}

func (c IndexConfig) rtreeConfig() rtree.Config {
	dims := c.Dims
	if dims == 0 {
		dims = 2
	}
	return rtree.Config{
		Dims:         dims,
		PageSize:     c.PageSize,
		BufferFrames: c.BufferFrames,
		Counters:     c.Counters,
	}
}

// NewIndex creates an empty index.
func NewIndex(cfg IndexConfig) (*Index, error) {
	t, err := rtree.New(cfg.rtreeConfig())
	if err != nil {
		return nil, err
	}
	return &Index{tree: t}, nil
}

// NewIndexFromPoints bulk-loads 2-D (or higher-dimensional) points; object
// i gets ObjID(i). It panics on construction errors, making it convenient
// for examples and tests; use BulkIndex for error handling.
func NewIndexFromPoints(pts []Point) *Index {
	idx, err := BulkIndexPoints(IndexConfig{}, pts)
	if err != nil {
		panic(err)
	}
	return idx
}

// BulkIndexPoints bulk-loads points with object ids equal to their slice
// positions.
func BulkIndexPoints(cfg IndexConfig, pts []Point) (*Index, error) {
	if len(pts) > 0 && cfg.Dims == 0 {
		cfg.Dims = pts[0].Dim()
	}
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{Rect: p.Rect(), Obj: rtree.ObjID(i)}
	}
	t, err := rtree.BulkLoad(cfg.rtreeConfig(), items)
	if err != nil {
		return nil, err
	}
	return &Index{tree: t}, nil
}

// IndexItem is one object for bulk loading: arbitrary rectangular geometry
// plus a caller-chosen id.
type IndexItem struct {
	Rect Rect
	Obj  ObjID
}

// BulkIndex bulk-loads arbitrary rectangles.
func BulkIndex(cfg IndexConfig, items []IndexItem) (*Index, error) {
	conv := make([]rtree.Item, len(items))
	for i, it := range items {
		conv[i] = rtree.Item{Rect: it.Rect, Obj: it.Obj}
	}
	t, err := rtree.BulkLoad(cfg.rtreeConfig(), conv)
	if err != nil {
		return nil, err
	}
	return &Index{tree: t}, nil
}

// Insert adds an object with rectangular geometry.
func (idx *Index) Insert(r Rect, id ObjID) error { return idx.tree.Insert(r, id) }

// InsertPoint adds a point object.
func (idx *Index) InsertPoint(p Point, id ObjID) error { return idx.tree.InsertPoint(p, id) }

// Delete removes an object; it returns false when no matching entry exists.
func (idx *Index) Delete(r Rect, id ObjID) (bool, error) { return idx.tree.Delete(r, id) }

// Search calls fn for each object whose geometry intersects query; return
// false from fn to stop early. fn gets its own copy of the geometry (the
// index's decoded nodes are shared with every open query).
func (idx *Index) Search(query Rect, fn func(Rect, ObjID) bool) error {
	return idx.tree.Search(query, func(e rtree.Entry) bool { return fn(e.Rect.Clone(), e.Obj) })
}

// Scan calls fn for every indexed object, with its own copy of the geometry.
func (idx *Index) Scan(fn func(Rect, ObjID) bool) error {
	return idx.tree.Scan(func(e rtree.Entry) bool { return fn(e.Rect.Clone(), e.Obj) })
}

// Len returns the number of indexed objects.
func (idx *Index) Len() int { return idx.tree.Len() }

// Height returns the number of tree levels.
func (idx *Index) Height() int { return idx.tree.Height() }

// Bounds returns the bounding rectangle of all objects.
func (idx *Index) Bounds() (Rect, bool) { return idx.tree.Bounds() }

// SetCounters attaches (or replaces) the I/O counter sink. Experiments use
// this to reset accounting between runs without rebuilding the index.
func (idx *Index) SetCounters(c *Stats) {
	idx.tree.Pool().SetCounters(stats.NodeSink((*stats.Counters)(c)))
}

// CheckInvariants validates the structural invariants of the underlying
// R*-tree; primarily a testing and diagnostics hook.
func (idx *Index) CheckInvariants() error { return idx.tree.CheckInvariants() }

// Close releases the index's storage.
func (idx *Index) Close() error {
	if idx.tree == nil {
		return errors.New("distjoin: index already closed")
	}
	err := idx.tree.Close()
	idx.tree = nil
	return err
}

// Flush persists the index to its backing store; for a file-backed index
// (CreateIndexFile) this makes it reopenable with OpenIndexFile after the
// process exits.
func (idx *Index) Flush() error { return idx.tree.Flush() }

// CreateIndexFile creates a persistent index backed by the named file.
// Call Flush before Close to durably record changes.
func CreateIndexFile(path string, cfg IndexConfig) (*Index, error) {
	t, err := rtree.CreateFile(path, cfg.rtreeConfig())
	if err != nil {
		return nil, err
	}
	return &Index{tree: t}, nil
}

// OpenIndexFile reopens an index persisted with CreateIndexFile + Flush.
func OpenIndexFile(path string, counters *Stats) (*Index, error) {
	t, err := rtree.OpenFile(path, (*stats.Counters)(counters))
	if err != nil {
		return nil, err
	}
	return &Index{tree: t}, nil
}

// AsSpatialIndex exposes the R*-tree index for joins.
func (idx *Index) AsSpatialIndex() SpatialIndex { return distjoin.WrapRTree(idx.tree) }

// Tree exposes the underlying R*-tree for advanced integrations (the
// baseline algorithms in internal/baseline operate on it directly).
func (idx *Index) Tree() *rtree.Tree { return idx.tree }
