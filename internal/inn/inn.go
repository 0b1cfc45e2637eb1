// Package inn implements the incremental nearest-neighbour algorithm of
// Hjaltason & Samet (reference [18] of the paper), from which the
// incremental distance join is derived: a priority queue holds index nodes
// and objects keyed by their minimum distance from the query point, and
// popping the queue yields neighbours in strictly non-decreasing distance
// order, one per call.
//
// The paper's §4.2.3 baseline — computing a distance semi-join by running a
// nearest-neighbour search per outer object and sorting — is built on this
// package.
package inn

import (
	"errors"
	"math"

	"distjoin/internal/geom"
	"distjoin/internal/pairheap"
	"distjoin/internal/rtree"
	"distjoin/internal/spatial"
	"distjoin/internal/stats"
)

// Result is one neighbour: the object, its geometry, and its distance from
// the query point.
type Result struct {
	Obj  rtree.ObjID
	Rect geom.Rect
	Dist float64
}

// Options configures an incremental nearest-neighbour search.
type Options struct {
	// Metric is the distance metric; geom.Euclidean when nil.
	Metric geom.Metric
	// MaxDist prunes candidates beyond this distance; +Inf when 0.
	MaxDist float64
	// MaxResults stops the iterator after this many neighbours; unlimited
	// when 0.
	MaxResults int
	// Farthest reverses the order: objects are reported farthest-first,
	// with index nodes keyed by the maximum distance from the query to
	// their region (the reverse-ordering idea of the paper's §2.2.5
	// applied to the underlying nearest-neighbour algorithm). MaxDist is
	// not supported in this mode.
	Farthest bool
	// Counters receives distance-calculation accounting. May be nil.
	Counters *stats.Counters
}

// qElem is a queue element: either a node (kindNode) or an object.
type qElem struct {
	dist  float64
	node  bool
	level int8 // for depth-first tie-breaking; -1 for objects
	ref   uint64
	rect  geom.Rect
}

// Iterator yields neighbours of a query point in ascending distance order.
type Iterator struct {
	ix       spatial.Index
	query    geom.Point
	opts     Options
	heap     *pairheap.Heap[qElem]
	reported int
	done     bool
}

// New creates an incremental nearest-neighbour iterator for the given query
// point over any hierarchical spatial index — the same generality the join
// enjoys (§2.2); *rtree.Tree and *quadtree.Tree are each one.
func New(ix spatial.Index, query geom.Point, opts Options) (*Iterator, error) {
	if ix == nil {
		return nil, errors.New("inn: index is required")
	}
	if query.Dim() != ix.Dims() {
		return nil, errors.New("inn: query dimension mismatch")
	}
	if opts.Metric == nil {
		opts.Metric = geom.Euclidean
	}
	if opts.MaxDist == 0 {
		opts.MaxDist = math.Inf(1)
	}
	if opts.Farthest && !math.IsInf(opts.MaxDist, 1) {
		return nil, errors.New("inn: MaxDist is not supported with Farthest")
	}
	farthest := opts.Farthest
	it := &Iterator{
		ix:    ix,
		query: query.Clone(),
		opts:  opts,
		heap: pairheap.New(func(a, b qElem) bool {
			if a.dist != b.dist {
				if farthest {
					return a.dist > b.dist
				}
				return a.dist < b.dist
			}
			if a.node != b.node {
				return !a.node // objects first at equal distance
			}
			if a.level != b.level {
				return a.level < b.level // deeper nodes first
			}
			return a.ref < b.ref
		}),
	}
	if ix.NumObjects() == 0 {
		it.done = true
		return it, nil
	}
	root, err := ix.Root()
	if err != nil {
		return nil, err
	}
	it.heap.Insert(qElem{
		dist:  0,
		node:  true,
		level: int8(root.Level),
		ref:   root.Ref,
	})
	return it, nil
}

// Next returns the next nearest neighbour; ok is false when the search
// space (or a configured limit) is exhausted.
func (it *Iterator) Next() (Result, bool, error) {
	if it.done {
		return Result{}, false, nil
	}
	for !it.heap.Empty() {
		e := it.heap.PopMin()
		if !it.opts.Farthest && e.dist > it.opts.MaxDist {
			break // everything remaining is farther still
		}
		if !e.node {
			it.reported++
			if it.opts.MaxResults > 0 && it.reported >= it.opts.MaxResults {
				it.done = true
			}
			return Result{Obj: rtree.ObjID(e.ref), Rect: e.rect.Clone(), Dist: e.dist}, true, nil
		}
		n, err := it.ix.Node(e.ref)
		if err != nil {
			return Result{}, false, err
		}
		// Forward search keys everything by the minimum distance. The
		// farthest-first mode keys node regions by their maximum distance —
		// a sound upper bound on the (minimum) distance of any contained
		// object — while leaf geometry keeps its exact object distance.
		for i, ref := range n.Refs {
			c := qElem{level: -1, ref: ref, rect: n.Rect(i)}
			switch {
			case n.Leaf:
				c.dist = it.opts.Metric.MinDistPR(it.query, c.rect)
				it.opts.Counters.AddDistCalc(1)
			case it.opts.Farthest:
				c.dist, c.node, c.level = it.opts.Metric.MaxDistPR(it.query, c.rect), true, int8(n.ChildLevel(i))
				it.opts.Counters.AddNodeDistCalc(1)
			default:
				c.dist, c.node, c.level = it.opts.Metric.MinDistPR(it.query, c.rect), true, int8(n.ChildLevel(i))
				it.opts.Counters.AddNodeDistCalc(1)
			}
			if !it.opts.Farthest && c.dist > it.opts.MaxDist {
				it.opts.Counters.Filter(1)
				continue
			}
			it.heap.Insert(c)
			it.opts.Counters.QueueInsert(int64(it.heap.Len()))
		}
	}
	it.done = true
	return Result{}, false, nil
}

// Nearest is a convenience wrapper returning the k nearest neighbours of
// query (fewer when the index is smaller or MaxDist intervenes).
func Nearest(ix spatial.Index, query geom.Point, k int, opts Options) ([]Result, error) {
	opts.MaxResults = k
	it, err := New(ix, query, opts)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, k)
	for len(out) < k {
		r, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out, nil
}
