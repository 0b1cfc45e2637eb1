// Package distjoin is a Go implementation of the incremental distance join
// and distance semi-join algorithms of Hjaltason & Samet, "Incremental
// Distance Join Algorithms for Spatial Databases" (SIGMOD 1998), together
// with every substrate the paper builds on: a disk-paged R*-tree, the
// three-tier hybrid memory/disk priority queue, incremental nearest
// neighbour search, and the non-incremental baseline algorithms the paper
// compares against.
//
// # Quick start
//
//	water := distjoin.NewIndexFromPoints(waterPoints)   // builds an R*-tree
//	roads := distjoin.NewIndexFromPoints(roadPoints)
//	j, _ := distjoin.DistanceJoinIndexes(water.AsSpatialIndex(),
//		roads.AsSpatialIndex(), distjoin.Options{})
//	defer j.Close()
//	for {
//		p, ok, _ := j.Next()       // pairs arrive closest-first
//		if !ok { break }
//		fmt.Println(p.Obj1, p.Obj2, p.Dist)
//	}
//
// The join is incremental: each Next call performs only the work needed to
// produce the next closest pair, so asking for ten pairs of a
// billion-pair join costs a tiny fraction of computing the join. The
// distance semi-join (DistanceSemiJoinIndexes) reports, for each object of
// the first input, its nearest object in the second — a clustering
// operator that computes a discrete Voronoi assignment when consumed
// fully. Every operator takes SpatialIndex inputs, so R*-trees and
// quadtrees mix freely, and returns the same iterator type, Join.
//
// All options the paper evaluates are exposed: distance ranges, result
// count bounds with maximum-distance estimation, traversal and tie-breaking
// policies, queue implementations, semi-join filtering strategies, and
// farthest-first ordering. See Options and SemiFilter.
package distjoin

import (
	"distjoin/internal/distjoin"
	"distjoin/internal/geom"
	"distjoin/internal/inn"
	"distjoin/internal/rtree"
	"distjoin/internal/stats"
)

// Point is a point in d-dimensional space.
type Point = geom.Point

// Rect is an axis-aligned hyper-rectangle.
type Rect = geom.Rect

// Metric is a family of consistent distance functions.
type Metric = geom.Metric

// The built-in metrics.
var (
	Euclidean  = geom.Euclidean
	Manhattan  = geom.Manhattan
	Chessboard = geom.Chessboard
)

// Lp returns the general Minkowski metric of order p (p >= 1).
func Lp(p float64) Metric { return geom.Lp(p) }

// Pt constructs a Point from coordinates.
func Pt(coords ...float64) Point { return geom.Pt(coords...) }

// R constructs a Rect from low/high corner points.
func R(lo, hi Point) Rect { return geom.R(lo, hi) }

// ObjID identifies an indexed object.
type ObjID = rtree.ObjID

// Pair is one distance-join result tuple.
type Pair = distjoin.Pair

// Options configures a distance join or semi-join; see the field
// documentation in internal/distjoin for the mapping to the paper's
// sections.
type Options = distjoin.Options

// Traversal, TieBreak, QueueKind and SemiFilter select algorithm variants.
type (
	Traversal  = distjoin.Traversal
	TieBreak   = distjoin.TieBreak
	QueueKind  = distjoin.QueueKind
	SemiFilter = distjoin.SemiFilter
)

// Re-exported variant constants.
const (
	TraverseEven         = distjoin.TraverseEven
	TraverseBasic        = distjoin.TraverseBasic
	TraverseSimultaneous = distjoin.TraverseSimultaneous

	DepthFirst   = distjoin.DepthFirst
	BreadthFirst = distjoin.BreadthFirst

	QueueMemory = distjoin.QueueMemory
	QueueHybrid = distjoin.QueueHybrid

	FilterOutside     = distjoin.FilterOutside
	FilterInside1     = distjoin.FilterInside1
	FilterInside2     = distjoin.FilterInside2
	FilterLocal       = distjoin.FilterLocal
	FilterGlobalNodes = distjoin.FilterGlobalNodes
	FilterGlobalAll   = distjoin.FilterGlobalAll
)

// Stats holds the performance counters of Table 1 (distance calculations,
// maximum queue size, node I/O).
type Stats = stats.Counters

// SpatialIndex is the hierarchical-decomposition abstraction the join
// engine traverses, and the input of every operator. The paper's
// algorithms run over "a large class of hierarchical spatial data
// structures" (abstract, §2.2); this interface is that class. Index (an
// R*-tree) and QuadIndex (a bucket PR quadtree) provide it through
// AsSpatialIndex, in any combination, and custom structures can implement
// it too.
type SpatialIndex = distjoin.SpatialIndex

// Join is the incremental iterator every operator returns: the distance
// join, the distance semi-join, the k-nearest-neighbours join and the
// clustering join.
type Join = distjoin.Join

// Neighbor is one incremental nearest-neighbour result.
type Neighbor = inn.Result

// NNOptions configures nearest-neighbour searches.
type NNOptions = inn.Options

// DistanceJoinIndexes starts an incremental distance join of two indexes:
// the pairs of the Cartesian product of a and b are delivered in ascending
// order of distance, one per Next call. a and b may be any SpatialIndex
// implementations, in any combination — an R*-tree (Index.AsSpatialIndex)
// against a quadtree (QuadIndex.AsSpatialIndex), say.
func DistanceJoinIndexes(a, b SpatialIndex, opts Options) (*Join, error) {
	return distjoin.NewJoinIndexes(a, b, opts)
}

// DistanceSemiJoinIndexes starts an incremental distance semi-join: for
// each object of a, its nearest object in b, delivered in ascending order
// of distance. filter selects the §4.2.1 pruning strategy; FilterGlobalAll
// is the strongest and a good default.
func DistanceSemiJoinIndexes(a, b SpatialIndex, filter SemiFilter, opts Options) (*Join, error) {
	return distjoin.NewSemiJoinIndexes(a, b, filter, opts)
}

// ClusteringJoinIndexes starts the symmetric "clustering join" of reference
// [32] (the operation the paper's §1 contrasts with the semi-join): pairs
// arrive in ascending distance order and each reported pair consumes BOTH
// its objects, producing a greedy mutual pairing of min(|a|, |b|) pairs.
func ClusteringJoinIndexes(a, b SpatialIndex, filter SemiFilter, opts Options) (*Join, error) {
	return distjoin.NewClusteringJoinIndexes(a, b, filter, opts)
}

// KNearestJoinIndexes starts an incremental k-nearest-neighbours join: for
// each object of a, its k nearest objects in b, delivered in ascending
// order of distance (k = 1 is the distance semi-join). For k > 1,
// FilterInside2 is the strongest sound filter and is applied automatically
// when a stronger one is requested.
func KNearestJoinIndexes(a, b SpatialIndex, k int, filter SemiFilter, opts Options) (*Join, error) {
	return distjoin.NewKNearestJoinIndexes(a, b, k, filter, opts)
}

// NearestNeighbors returns an iterator over the objects of idx in ascending
// distance from query (the incremental nearest-neighbour algorithm the join
// is derived from).
func NearestNeighbors(idx *Index, query Point, opts NNOptions) (*inn.Iterator, error) {
	return inn.New(idx.AsSpatialIndex(), query, opts)
}

// KNearest returns the k objects of idx nearest to query.
func KNearest(idx *Index, query Point, k int, opts NNOptions) ([]Neighbor, error) {
	return inn.Nearest(idx.AsSpatialIndex(), query, k, opts)
}
