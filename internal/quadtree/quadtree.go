// Package quadtree implements a bucket PR (point-region) quadtree — the
// kind of unbalanced, space-partitioning hierarchy the paper contrasts with
// the R-tree (§2.2.2, references [26, 27]). Space is recursively split into
// 2^d congruent hyper-quadrants; leaves hold up to a bucket's worth of
// points. Each point lives in exactly one leaf, satisfying the join
// engine's assumptions, while leaves sit at varying depths — exercising the
// algorithm's handling of unbalanced structures.
//
// The tree is an in-memory structure (the paper treats quadtrees as an
// alternative decomposition, not as the disk-resident index of its
// experiments); node visits are still counted so traversal costs remain
// observable.
package quadtree

import (
	"errors"
	"fmt"
	"sync/atomic"

	"distjoin/internal/geom"
	"distjoin/internal/spatial"
	"distjoin/internal/stats"
)

// Config describes a quadtree.
type Config struct {
	// Bounds is the world extent; every inserted point must lie inside.
	// Required.
	Bounds geom.Rect
	// BucketSize is the leaf capacity before a split (default 8).
	BucketSize int
	// MaxDepth caps subdivision; leaves at the cap may exceed BucketSize
	// (coincident points make unlimited splitting futile). Default 24.
	MaxDepth int
	// Counters receives node-visit accounting. May be nil.
	Counters *stats.Counters
}

// Point is one indexed point object.
type Point struct {
	P  geom.Point
	ID uint64
}

// node is a quadtree node: a leaf with points, or an internal node with up
// to 2^d children (empty quadrants are not materialized).
type node struct {
	rect     geom.Rect
	depth    int
	leaf     bool
	points   []Point // leaf payload
	children []int32 // child node ids; -1 for empty quadrants
	// view is the node as Node hands it out, built on the first read and
	// dropped by whatever changes the node: a point added or removed, a
	// split, a quadrant materialised.
	view atomic.Pointer[spatial.IndexNode]
}

var (
	_ spatial.Index  = (*Tree)(nil)
	_ spatial.Fanout = (*Tree)(nil)
)

// Tree is a bucket PR quadtree. It is a spatial.Index, so the incremental
// join runs over it as over an R-tree (§2.2), on either side of a join. Not
// safe for concurrent use, except for Node calls among themselves.
type Tree struct {
	cfg   Config
	dims  int
	nodes []*node // index = node id; 0 is the root
	size  int
}

// New creates an empty quadtree over the given bounds.
func New(cfg Config) (*Tree, error) {
	if !cfg.Bounds.Valid() || !cfg.Bounds.Lo.IsFinite() || !cfg.Bounds.Hi.IsFinite() {
		return nil, errors.New("quadtree: valid, finite Bounds required")
	}
	if cfg.BucketSize == 0 {
		cfg.BucketSize = 8
	}
	if cfg.BucketSize < 1 {
		return nil, fmt.Errorf("quadtree: BucketSize %d < 1", cfg.BucketSize)
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 24
	}
	if cfg.MaxDepth < 1 || cfg.MaxDepth > 100 {
		return nil, fmt.Errorf("quadtree: MaxDepth %d out of range [1, 100]", cfg.MaxDepth)
	}
	dims := cfg.Bounds.Dim()
	if dims > 8 {
		return nil, fmt.Errorf("quadtree: %d dimensions would mean %d children per node", dims, 1<<dims)
	}
	t := &Tree{cfg: cfg, dims: dims}
	t.nodes = append(t.nodes, &node{rect: cfg.Bounds.Clone(), depth: 0, leaf: true})
	return t, nil
}

// Dims returns the dimensionality.
func (t *Tree) Dims() int { return t.dims }

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// NumObjects implements spatial.Index; it is Len.
func (t *Tree) NumObjects() int { return t.size }

// Bounds returns the world extent.
func (t *Tree) Bounds() geom.Rect { return t.cfg.Bounds }

// MaxDepth returns the configured subdivision cap.
func (t *Tree) MaxDepth() int { return t.cfg.MaxDepth }

// MaxFanout implements the optional spatial.Fanout extension with the
// expected maximum node fan-out: internal nodes hold 2^dims children, leaves
// BucketSize points. Leaves at the depth cap may exceed BucketSize; callers
// use the value as a buffer pre-sizing hint, not a bound.
func (t *Tree) MaxFanout() int {
	f := 1 << t.dims
	if t.cfg.BucketSize > f {
		f = t.cfg.BucketSize
	}
	return f
}

// Insert adds a point. Points outside the world bounds are rejected, and so
// is a NaN coordinate, which compares as neither below nor above them.
func (t *Tree) Insert(p geom.Point, id uint64) error {
	if p.Dim() != t.dims {
		return fmt.Errorf("quadtree: point dimension %d, tree dimension %d", p.Dim(), t.dims)
	}
	if !p.IsFinite() || !t.cfg.Bounds.ContainsPoint(p) {
		return fmt.Errorf("quadtree: point %v outside bounds %v", p, t.cfg.Bounds)
	}
	cur := int32(0)
	for {
		n := t.nodes[cur]
		if n.leaf {
			n.points = append(n.points, Point{P: p.Clone(), ID: id})
			n.view.Store(nil)
			t.size++
			if len(n.points) > t.cfg.BucketSize && n.depth < t.cfg.MaxDepth {
				t.split(cur)
			}
			return nil
		}
		cur = t.childFor(cur, p)
	}
}

// childFor returns (materializing if needed) the child quadrant of internal
// node id containing p.
func (t *Tree) childFor(id int32, p geom.Point) int32 {
	n := t.nodes[id]
	center := n.rect.Center()
	q := 0
	for i := 0; i < t.dims; i++ {
		if p[i] >= center[i] {
			q |= 1 << i
		}
	}
	if n.children[q] >= 0 {
		return n.children[q]
	}
	child := &node{rect: t.quadrantRect(n.rect, center, q), depth: n.depth + 1, leaf: true}
	t.nodes = append(t.nodes, child)
	cid := int32(len(t.nodes) - 1)
	n.children[q] = cid
	n.view.Store(nil)
	return cid
}

// quadrantRect computes the rectangle of quadrant q of a node rect split at
// center. Bit i of q selects the upper half along dimension i.
func (t *Tree) quadrantRect(r geom.Rect, center geom.Point, q int) geom.Rect {
	lo := r.Lo.Clone()
	hi := r.Hi.Clone()
	for i := 0; i < t.dims; i++ {
		if q&(1<<i) != 0 {
			lo[i] = center[i]
		} else {
			hi[i] = center[i]
		}
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// split converts a leaf into an internal node, redistributing its points.
func (t *Tree) split(id int32) {
	n := t.nodes[id]
	pts := n.points
	n.leaf = false
	n.points = nil
	n.view.Store(nil)
	n.children = make([]int32, 1<<t.dims)
	for i := range n.children {
		n.children[i] = -1
	}
	for _, pt := range pts {
		cid := t.childFor(id, pt.P)
		child := t.nodes[cid]
		child.points = append(child.points, pt)
		child.view.Store(nil)
		// Recursive overflow is handled lazily: if every point landed in
		// one quadrant, split that child too (subject to the depth cap).
		if len(child.points) > t.cfg.BucketSize && child.depth < t.cfg.MaxDepth {
			t.split(cid)
		}
	}
}

// Delete removes the point with the given coordinates and id. It returns
// false when not present. Emptied leaves are left in place (quadtrees
// tolerate sparse nodes; a condensing pass is unnecessary for correctness).
func (t *Tree) Delete(p geom.Point, id uint64) bool {
	if p.Dim() != t.dims || !t.cfg.Bounds.ContainsPoint(p) {
		return false
	}
	cur := int32(0)
	for {
		n := t.nodes[cur]
		if n.leaf {
			for i, pt := range n.points {
				if pt.ID == id && pt.P.Equal(p) {
					n.points = append(n.points[:i], n.points[i+1:]...)
					n.view.Store(nil)
					t.size--
					return true
				}
			}
			return false
		}
		center := n.rect.Center()
		q := 0
		for i := 0; i < t.dims; i++ {
			if p[i] >= center[i] {
				q |= 1 << i
			}
		}
		if n.children[q] < 0 {
			return false
		}
		cur = n.children[q]
	}
}

// Search invokes fn for every point inside query; return false to stop.
func (t *Tree) Search(query geom.Rect, fn func(Point) bool) {
	t.searchNode(0, query, fn)
}

func (t *Tree) searchNode(id int32, query geom.Rect, fn func(Point) bool) bool {
	n := t.nodes[id]
	t.cfg.Counters.AddNodeRead(1)
	if !n.rect.Intersects(query) {
		return true
	}
	if n.leaf {
		for _, pt := range n.points {
			if query.ContainsPoint(pt.P) {
				if !fn(pt) {
					return false
				}
			}
		}
		return true
	}
	for _, cid := range n.children {
		if cid >= 0 {
			if !t.searchNode(cid, query, fn) {
				return false
			}
		}
	}
	return true
}

// NumNodes returns the number of materialized nodes (diagnostic).
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Root implements spatial.Index: node 0, at the top level, over the world
// extent. It reads no node, so it counts no node read.
func (t *Tree) Root() (spatial.NodeRef, error) {
	root := t.nodes[0]
	return spatial.NodeRef{Ref: 0, Level: t.level(root), Rect: root.rect}, nil
}

// level is a node's level. Levels number upward from the deepest possible
// leaf (level = MaxDepth − depth), so that deeper nodes have smaller levels
// as traversal algorithms expect.
func (t *Tree) level(n *node) int { return t.cfg.MaxDepth - n.depth }

// Node implements spatial.Index: the node with the given id as the engines
// traverse it, leaf points as point entries and materialised quadrants as
// child entries. It is built on the first read and handed to every read
// until the node changes. Each call is counted as a node read. Reads may run
// concurrently with each other (concurrent first reads may each build the
// node, and any of them is kept), not with Insert or Delete.
func (t *Tree) Node(ref uint64) (*spatial.IndexNode, error) {
	if ref >= uint64(len(t.nodes)) {
		return nil, fmt.Errorf("quadtree: node id %d out of range", ref)
	}
	t.cfg.Counters.AddNodeRead(1)
	n := t.nodes[ref]
	if v := n.view.Load(); v != nil {
		return v, nil
	}
	count, w := len(n.points)+len(n.children), 2*t.dims
	v := &spatial.IndexNode{Leaf: n.leaf, Level: t.level(n), Points: n.leaf, Coords: make([]float64, 0, count*w), Refs: make([]uint64, 0, count), Levels: make([]int8, 0, len(n.children))}
	for _, p := range n.points {
		v.Coords = append(append(v.Coords, p.P...), p.P...)
		v.Refs = append(v.Refs, p.ID)
	}
	for _, cid := range n.children {
		if cid < 0 {
			continue
		}
		c := t.nodes[cid]
		v.Coords = append(append(v.Coords, c.rect.Lo...), c.rect.Hi...)
		v.Refs = append(v.Refs, uint64(cid))
		v.Levels = append(v.Levels, int8(t.level(c)))
	}
	n.view.Store(v)
	return v, nil
}

// MinObjectsUnder implements spatial.Index with 0: quadtrees have no
// minimum-fill invariant, and Delete leaves emptied leaves in place, so a
// node guarantees no object to the §2.2.4 estimation.
func (t *Tree) MinObjectsUnder(int) int { return 0 }
