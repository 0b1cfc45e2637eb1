// Package baseline implements the non-incremental alternatives the paper
// compares its incremental algorithms against:
//
//   - a nested-loop distance join that computes every pairwise distance
//     (§4.1.4),
//   - a spatial join with a within predicate — a Brinkhoff-style
//     synchronized R-tree traversal with plane sweep — followed by sorting
//     (§4.1.4),
//   - a distance semi-join computed by one nearest-neighbour search per
//     outer object followed by sorting (§4.2.3).
package baseline

import (
	"errors"
	"sort"

	"distjoin/internal/distjoin"
	"distjoin/internal/geom"
	"distjoin/internal/inn"
	"distjoin/internal/rtree"
	"distjoin/internal/spatial"
	"distjoin/internal/stats"
)

// Options configures the baseline algorithms.
type Options struct {
	// Metric is the distance metric; geom.Euclidean when nil.
	Metric geom.Metric
	// Counters receives distance-calculation accounting. May be nil.
	Counters *stats.Counters
}

func (o *Options) normalize() {
	if o.Metric == nil {
		o.Metric = geom.Euclidean
	}
}

// NestedLoopJoin computes the distance join by brute force: every pairwise
// distance is computed, the pairs are sorted by distance, and the first
// limit pairs are returned (all pairs when limit <= 0). This is the
// alternative of §4.1.4; for non-trivial inputs it computes the full
// Cartesian product before the first pair can be delivered.
func NestedLoopJoin(t1, t2 *rtree.Tree, limit int, opts Options) ([]distjoin.Pair, error) {
	opts.normalize()
	a, err := collect(t1)
	if err != nil {
		return nil, err
	}
	b, err := collect(t2)
	if err != nil {
		return nil, err
	}
	pairs := make([]distjoin.Pair, 0, len(a)*len(b))
	for _, ea := range a {
		for _, eb := range b {
			d := opts.Metric.MinDist(ea.Rect, eb.Rect)
			opts.Counters.AddDistCalc(1)
			pairs = append(pairs, distjoin.Pair{
				Obj1: ea.Obj, Obj2: eb.Obj,
				Rect1: ea.Rect.Clone(), Rect2: eb.Rect.Clone(),
				Dist: d,
			})
		}
	}
	sortPairs(pairs)
	if limit > 0 && limit < len(pairs) {
		pairs = pairs[:limit]
	}
	return pairs, nil
}

// NestedLoopScanOnly reproduces the exact experiment of §4.1.4: it computes
// every pairwise distance without storing or sorting the pairs (the paper's
// simplification), reading the inner input fully into memory. It returns
// the number of distance computations performed.
func NestedLoopScanOnly(t1, t2 *rtree.Tree, opts Options) (int64, error) {
	opts.normalize()
	inner, err := collect(t2)
	if err != nil {
		return 0, err
	}
	var count int64
	err = t1.Scan(func(ea rtree.Entry) bool {
		for _, eb := range inner {
			_ = opts.Metric.MinDist(ea.Rect, eb.Rect)
			count++
		}
		return true
	})
	opts.Counters.AddDistCalc(count)
	return count, err
}

// WithinJoinSort computes all pairs within maxDist using a synchronized
// depth-first traversal of the two R-trees with a plane sweep over node
// entries (the classical spatial-join algorithm, generalized from
// intersection to a within predicate as sketched in §2.2.2), then sorts the
// result by distance. Unlike the incremental join, nothing is delivered
// until the whole join has been computed and sorted (§4.1.4).
func WithinJoinSort(t1, t2 *rtree.Tree, maxDist float64, opts Options) ([]distjoin.Pair, error) {
	opts.normalize()
	if maxDist < 0 {
		return nil, errors.New("baseline: maxDist must be non-negative")
	}
	if t1.Dims() != t2.Dims() {
		return nil, errors.New("baseline: dimension mismatch")
	}
	j := &withinJoin{t1: t1, t2: t2, maxDist: maxDist, opts: opts}
	if t1.Len() == 0 || t2.Len() == 0 {
		return nil, nil
	}
	r1, err := t1.Root()
	if err != nil {
		return nil, err
	}
	r2, err := t2.Root()
	if err != nil {
		return nil, err
	}
	if err := j.visit(r1.Ref, r2.Ref); err != nil {
		return nil, err
	}
	sortPairs(j.out)
	return j.out, nil
}

type withinJoin struct {
	t1, t2  *rtree.Tree
	maxDist float64
	opts    Options
	out     []distjoin.Pair
}

// visit joins the subtrees rooted at the two nodes. The nodes are the
// trees' shared read nodes, so a result pair takes copies of their
// rectangles.
func (j *withinJoin) visit(ref1, ref2 uint64) error {
	n1, err := j.t1.Node(ref1)
	if err != nil {
		return err
	}
	n2, err := j.t2.Node(ref2)
	if err != nil {
		return err
	}
	// Unbalanced heights: descend the non-leaf side alone.
	switch {
	case n1.Leaf && !n2.Leaf:
		for _, child := range n2.Refs {
			if err := j.visit(ref1, child); err != nil {
				return err
			}
		}
		return nil
	case !n1.Leaf && n2.Leaf:
		for _, child := range n1.Refs {
			if err := j.visit(child, ref2); err != nil {
				return err
			}
		}
		return nil
	}

	pairs := j.sweepPairs(n1, n2)
	if n1.Leaf { // both leaves
		for _, pr := range pairs {
			r1, r2 := n1.Rect(pr[0]), n2.Rect(pr[1])
			d := j.opts.Metric.MinDist(r1, r2)
			j.opts.Counters.AddDistCalc(1)
			if d <= j.maxDist {
				j.out = append(j.out, distjoin.Pair{
					Obj1: rtree.ObjID(n1.Refs[pr[0]]), Obj2: rtree.ObjID(n2.Refs[pr[1]]),
					Rect1: r1.Clone(), Rect2: r2.Clone(),
					Dist: d,
				})
			}
		}
		return nil
	}
	for _, pr := range pairs {
		d := j.opts.Metric.MinDist(n1.Rect(pr[0]), n2.Rect(pr[1]))
		j.opts.Counters.AddNodeDistCalc(1)
		if d <= j.maxDist {
			if err := j.visit(n1.Refs[pr[0]], n2.Refs[pr[1]]); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepPairs pairs up entries of the two nodes, by index, whose axis-0
// extents come within maxDist of each other — the plane sweep of Figure 4,
// with the sweep window extended by the maximum distance.
func (j *withinJoin) sweepPairs(n1, n2 *spatial.IndexNode) [][2]int {
	as, bs := byLow0(n1), byLow0(n2)
	var out [][2]int
	start := 0
	for _, a := range as {
		ra := n1.Rect(a)
		for start < len(bs) && n2.Rect(bs[start]).Hi[0] < ra.Lo[0]-j.maxDist {
			start++
		}
		for _, b := range bs[start:] {
			if n2.Rect(b).Lo[0] > ra.Hi[0]+j.maxDist {
				break
			}
			out = append(out, [2]int{a, b})
		}
	}
	return out
}

// byLow0 is the indices of n's entries in ascending order of their low
// axis-0 coordinate.
func byLow0(n *spatial.IndexNode) []int {
	idx := make([]int, len(n.Refs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return n.Rect(idx[a]).Lo[0] < n.Rect(idx[b]).Lo[0] })
	return idx
}

// NNSemiJoin computes the distance semi-join non-incrementally: one
// nearest-neighbour search in t2 per object of t1, with the resulting array
// sorted by distance at the end (§4.2.3). Only point objects are supported,
// matching the paper's experiments.
func NNSemiJoin(t1, t2 *rtree.Tree, opts Options) ([]distjoin.Pair, error) {
	opts.normalize()
	outer, err := collect(t1)
	if err != nil {
		return nil, err
	}
	inner := distjoin.WrapRTree(t2)
	pairs := make([]distjoin.Pair, 0, len(outer))
	for _, e := range outer {
		if !e.Rect.IsPoint() {
			return nil, errors.New("baseline: NNSemiJoin requires point objects")
		}
		res, err := inn.Nearest(inner, e.Rect.Lo, 1, inn.Options{
			Metric:   opts.Metric,
			Counters: opts.Counters,
		})
		if err != nil {
			return nil, err
		}
		if len(res) == 0 {
			continue // empty inner input
		}
		pairs = append(pairs, distjoin.Pair{
			Obj1: e.Obj, Obj2: res[0].Obj,
			Rect1: e.Rect.Clone(), Rect2: res[0].Rect,
			Dist: res[0].Dist,
		})
	}
	sortPairs(pairs)
	return pairs, nil
}

// collect reads every leaf entry of a tree. The rectangles are views of the
// tree's shared read nodes, so a result pair takes copies of them.
func collect(t *rtree.Tree) ([]rtree.Entry, error) {
	out := make([]rtree.Entry, 0, t.Len())
	err := t.Scan(func(e rtree.Entry) bool {
		out = append(out, e)
		return true
	})
	return out, err
}

// sortPairs orders pairs ascending by distance, with ids as tiebreaker for
// determinism.
func sortPairs(pairs []distjoin.Pair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Dist != pairs[j].Dist {
			return pairs[i].Dist < pairs[j].Dist
		}
		if pairs[i].Obj1 != pairs[j].Obj1 {
			return pairs[i].Obj1 < pairs[j].Obj1
		}
		return pairs[i].Obj2 < pairs[j].Obj2
	})
}
