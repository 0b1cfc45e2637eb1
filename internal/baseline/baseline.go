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
	"distjoin/internal/pager"
	"distjoin/internal/rtree"
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
				Rect1: ea.Rect, Rect2: eb.Rect,
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
	if err := j.visit(t1.RootPage(), t2.RootPage()); err != nil {
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

// visit joins the subtrees rooted at the two pages.
func (j *withinJoin) visit(p1, p2 pager.PageID) error {
	n1, err := j.t1.ReadNode(p1)
	if err != nil {
		return err
	}
	n2, err := j.t2.ReadNode(p2)
	if err != nil {
		return err
	}
	// Unbalanced heights: descend the non-leaf side alone.
	switch {
	case n1.Leaf() && !n2.Leaf():
		for _, e2 := range n2.Entries {
			if err := j.visit(p1, e2.Child); err != nil {
				return err
			}
		}
		return nil
	case !n1.Leaf() && n2.Leaf():
		for _, e1 := range n1.Entries {
			if err := j.visit(e1.Child, p2); err != nil {
				return err
			}
		}
		return nil
	}

	pairs := j.sweepPairs(n1.Entries, n2.Entries)
	if n1.Leaf() { // both leaves
		for _, pr := range pairs {
			d := j.opts.Metric.MinDist(pr[0].Rect, pr[1].Rect)
			j.opts.Counters.AddDistCalc(1)
			if d <= j.maxDist {
				j.out = append(j.out, distjoin.Pair{
					Obj1: pr[0].Obj, Obj2: pr[1].Obj,
					Rect1: pr[0].Rect, Rect2: pr[1].Rect,
					Dist: d,
				})
			}
		}
		return nil
	}
	for _, pr := range pairs {
		d := j.opts.Metric.MinDist(pr[0].Rect, pr[1].Rect)
		j.opts.Counters.AddNodeDistCalc(1)
		if d <= j.maxDist {
			if err := j.visit(pr[0].Child, pr[1].Child); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepPairs pairs up entries of the two nodes whose axis-0 extents come
// within maxDist of each other — the plane sweep of Figure 4, with the
// sweep window extended by the maximum distance.
func (j *withinJoin) sweepPairs(a, b []rtree.Entry) [][2]rtree.Entry {
	as := append([]rtree.Entry(nil), a...)
	bs := append([]rtree.Entry(nil), b...)
	sort.Slice(as, func(i, k int) bool { return as[i].Rect.Lo[0] < as[k].Rect.Lo[0] })
	sort.Slice(bs, func(i, k int) bool { return bs[i].Rect.Lo[0] < bs[k].Rect.Lo[0] })
	var out [][2]rtree.Entry
	start := 0
	for _, ea := range as {
		for start < len(bs) && bs[start].Rect.Hi[0] < ea.Rect.Lo[0]-j.maxDist {
			start++
		}
		for k := start; k < len(bs); k++ {
			if bs[k].Rect.Lo[0] > ea.Rect.Hi[0]+j.maxDist {
				break
			}
			out = append(out, [2]rtree.Entry{ea, bs[k]})
		}
	}
	return out
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
			Rect1: e.Rect, Rect2: res[0].Rect,
			Dist: res[0].Dist,
		})
	}
	sortPairs(pairs)
	return pairs, nil
}

// collect reads every leaf entry of a tree.
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
