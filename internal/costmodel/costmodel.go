// Package costmodel provides sampling-based cardinality and distance
// estimates for distance joins — the direction the paper's conclusion (§5)
// identifies as necessary "to enable a query optimizer to choose between
// these options": estimating how many pairs fall within a distance, the
// distance of the K-th closest pair (a principled way to seed the
// MaxDist optimization of §2.2.3 when the true value is unknown), and the
// selectivity of a predicate for choosing between the two §5 query plans.
//
// All estimators draw a deterministic sample of objects from each index
// (reservoir sampling over a leaf scan), so estimates are reproducible for
// a given seed, and cost O(sample²) distance computations.
package costmodel

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
)

// Options configures the estimators.
type Options struct {
	// Metric is the distance metric; geom.Euclidean when nil.
	Metric geom.Metric
	// Sample is the number of objects drawn from each input (default 256).
	// Estimation cost grows with Sample²; accuracy roughly with √Sample.
	Sample int
	// Seed makes the sample deterministic.
	Seed int64
}

func (o *Options) normalize() {
	if o.Metric == nil {
		o.Metric = geom.Euclidean
	}
	if o.Sample == 0 {
		o.Sample = 256
	}
}

// sampleRects draws up to k leaf rectangles uniformly from the tree via
// reservoir sampling over a full scan.
func sampleRects(t *rtree.Tree, k int, rnd *rand.Rand) ([]geom.Rect, error) {
	out := make([]geom.Rect, 0, k)
	seen := 0
	err := t.Scan(func(e rtree.Entry) bool {
		seen++
		if len(out) < k {
			out = append(out, e.Rect)
			return true
		}
		if j := rnd.Intn(seen); j < k {
			out[j] = e.Rect
		}
		return true
	})
	return out, err
}

// crossDistances returns the sorted distances of the sampled cross product.
func crossDistances(a, b []geom.Rect, m geom.Metric) []float64 {
	out := make([]float64, 0, len(a)*len(b))
	for _, p := range a {
		for _, q := range b {
			out = append(out, m.MinDist(p, q))
		}
	}
	sort.Float64s(out)
	return out
}

// PairsWithin estimates the number of (t1, t2) object pairs within distance
// d of each other.
func PairsWithin(t1, t2 *rtree.Tree, d float64, opts Options) (float64, error) {
	opts.normalize()
	if t1.Len() == 0 || t2.Len() == 0 {
		return 0, nil
	}
	if d < 0 {
		return 0, errors.New("costmodel: negative distance")
	}
	rnd := rand.New(rand.NewSource(opts.Seed))
	sa, err := sampleRects(t1, opts.Sample, rnd)
	if err != nil {
		return 0, err
	}
	sb, err := sampleRects(t2, opts.Sample, rnd)
	if err != nil {
		return 0, err
	}
	ds := crossDistances(sa, sb, opts.Metric)
	within := sort.SearchFloat64s(ds, math.Nextafter(d, math.Inf(1)))
	frac := float64(within) / float64(len(ds))
	return frac * float64(t1.Len()) * float64(t2.Len()), nil
}

// DistanceForK estimates the distance of the k-th closest pair of the
// distance join of t1 and t2 — the value a query plan would pass as MaxDist
// when it knows the query will stop after k pairs. The estimate is the
// empirical k/(n1·n2) quantile of the sampled cross distances; because a
// sample's extreme tail is unreliable, the low quantiles are floored at the
// smallest sampled distance, making small-k estimates conservative (too
// large) rather than fatally small.
func DistanceForK(t1, t2 *rtree.Tree, k int, opts Options) (float64, error) {
	opts.normalize()
	if k <= 0 {
		return 0, errors.New("costmodel: k must be positive")
	}
	total := float64(t1.Len()) * float64(t2.Len())
	if total == 0 {
		return 0, errors.New("costmodel: empty input")
	}
	rnd := rand.New(rand.NewSource(opts.Seed))
	sa, err := sampleRects(t1, opts.Sample, rnd)
	if err != nil {
		return 0, err
	}
	sb, err := sampleRects(t2, opts.Sample, rnd)
	if err != nil {
		return 0, err
	}
	ds := crossDistances(sa, sb, opts.Metric)
	q := float64(k) / total
	idx := int(math.Ceil(q * float64(len(ds))))
	if idx < 1 {
		idx = 1
	}
	if idx > len(ds) {
		idx = len(ds)
	}
	return ds[idx-1], nil
}

// Selectivity estimates the fraction of t1's objects accepted by pred by
// sampling — the quantity the §5 plan choice turns on (filter the join's
// output when selectivity is high; pre-select and re-index when low).
func Selectivity(t *rtree.Tree, pred func(rtree.ObjID) bool, opts Options) (float64, error) {
	opts.normalize()
	if t.Len() == 0 {
		return 0, nil
	}
	rnd := rand.New(rand.NewSource(opts.Seed))
	type sampled struct{ id rtree.ObjID }
	out := make([]sampled, 0, opts.Sample)
	seen := 0
	err := t.Scan(func(e rtree.Entry) bool {
		seen++
		if len(out) < opts.Sample {
			out = append(out, sampled{id: e.Obj})
			return true
		}
		if j := rnd.Intn(seen); j < opts.Sample {
			out[j] = sampled{id: e.Obj}
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	hit := 0
	for _, s := range out {
		if pred(s.id) {
			hit++
		}
	}
	return float64(hit) / float64(len(out)), nil
}

// SuggestMaxDist returns a MaxDist to use for a join expected to stop after
// k pairs: the DistanceForK estimate inflated by the safety factor (>= 1;
// 2 is a reasonable default). A cap that turns out too small costs a
// restart; a generous cap still prunes the overwhelming share of the queue
// (Figure 7 shows all three maxima performing almost identically).
func SuggestMaxDist(t1, t2 *rtree.Tree, k int, safety float64, opts Options) (float64, error) {
	if safety < 1 {
		return 0, errors.New("costmodel: safety factor must be >= 1")
	}
	d, err := DistanceForK(t1, t2, k, opts)
	if err != nil {
		return 0, err
	}
	if d == 0 {
		// Degenerate sample (coincident rectangles): no useful cap.
		return math.Inf(1), nil
	}
	return d * safety, nil
}

// ExplainRow is one predicted-vs-actual comparison of a run against the
// estimators above. RelErr is (Predicted - Actual) / Actual — signed, so
// over-predictions are positive.
type ExplainRow struct {
	Metric    string  `json:"metric"`
	Predicted float64 `json:"predicted"`
	Actual    float64 `json:"actual"`
	RelErr    float64 `json:"rel_err"`
}

// RelErr computes the signed relative error of a prediction: 0 when both
// are 0. Because the result is destined for JSON (which cannot represent
// infinities), a prediction compared against a zero actual saturates at
// ±MaxFloat64 instead of ±Inf.
func RelErr(predicted, actual float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 0
		}
		if predicted > 0 {
			return math.MaxFloat64
		}
		return -math.MaxFloat64
	}
	e := (predicted - actual) / actual
	if math.IsInf(e, 1) {
		return math.MaxFloat64
	}
	if math.IsInf(e, -1) {
		return -math.MaxFloat64
	}
	return e
}
