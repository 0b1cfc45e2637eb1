package geom

import (
	"fmt"
	"math"
)

// Metric bundles the family of consistent distance functions the incremental
// distance join needs (paper §2.2): distances between objects (points),
// between an object and an index node region (rectangle), and between two
// node regions, plus the d_max upper-bound functions of §2.2.3/§2.2.4.
//
// Consistency (no pair may have a smaller distance than a pair that generates
// it) holds for all three provided metrics because each is induced by a point
// metric satisfying the triangle inequality.
type Metric interface {
	// Name identifies the metric ("euclidean", "manhattan", "chessboard").
	Name() string

	// Dist returns the distance between two points (d_obj-obj).
	Dist(p, q Point) float64

	// MinDistPR returns the minimum distance from point p to rectangle r;
	// zero when p lies inside r (d_obj-node).
	MinDistPR(p Point, r Rect) float64

	// MinDist returns the minimum distance between any point of a and any
	// point of b; zero when they intersect (d_node-node, and d_obr-* when
	// leaves store bounding rectangles).
	MinDist(a, b Rect) float64

	// MaxDist returns the maximum distance between any point of a and any
	// point of b. It is the sound d_max bound for node/node pairs: every
	// object pair generated from the pair has distance at most MaxDist.
	MaxDist(a, b Rect) float64

	// MaxDistPR returns the maximum distance from point p to any point of r.
	MaxDistPR(p Point, r Rect) float64

	// MinMaxDistPR returns the MINMAXDIST bound of Roussopoulos et al.
	// between a point and a rectangle that minimally bounds an object: the
	// object is guaranteed to contain a point within this distance of p.
	// It requires r to be a minimal bounding rectangle.
	MinMaxDistPR(p Point, r Rect) float64

	// MinMaxDist returns the generalized MINMAXDIST bound between two
	// rectangles each minimally bounding one object (paper §2.2.3): the two
	// objects are guaranteed to be within this distance of each other.
	MinMaxDist(a, b Rect) float64

	// MaxDistFace returns MaxDist between face fa of a and face fb of b —
	// what the d_max bounds are minima of — without building the faces.
	// Face 2i fixes dimension i at Lo[i], face 2i+1 at Hi[i]; a negative
	// index stands for the whole rectangle.
	MaxDistFace(a Rect, fa int, b Rect, fb int) float64
}

// lpMetric implements Metric for the L1 (Manhattan), L2 (Euclidean) and L∞
// (Chessboard) point metrics. All rectangle distance functions decompose per
// dimension and aggregate, which is valid for any Lp norm.
type lpMetric struct {
	name string
	p    float64 // 1, 2 or +Inf
	// invP caches 1/p for the general-p aggregation, hoisting the division
	// out of the per-call path; ip is p when p is a small integer, enabling
	// the repeated-multiply power instead of math.Pow per dimension. Both
	// are zero for the canonical p ∈ {1, 2, ∞} metrics, which never reach
	// the general branch.
	invP float64
	ip   int
}

var (
	// Euclidean is the L2 metric, the metric used in the paper's experiments.
	Euclidean Metric = lpMetric{name: "euclidean", p: 2}
	// Manhattan is the L1 (city-block) metric.
	Manhattan Metric = lpMetric{name: "manhattan", p: 1}
	// Chessboard is the L∞ (Chebyshev) metric.
	Chessboard Metric = lpMetric{name: "chessboard", p: math.Inf(1)}
)

// Lp returns the general Minkowski metric of order p (p >= 1). Lp(1),
// Lp(2) and Lp(math.Inf(1)) coincide with Manhattan, Euclidean and
// Chessboard. It panics for p < 1, where the triangle inequality — and with
// it the consistency property the join algorithms rely on — fails.
func Lp(p float64) Metric {
	if p < 1 {
		panic(fmt.Sprintf("geom: Lp(%g) is not a metric (p must be >= 1)", p))
	}
	switch {
	case p == 1:
		return Manhattan
	case p == 2:
		return Euclidean
	case math.IsInf(p, 1):
		return Chessboard
	}
	m := lpMetric{name: fmt.Sprintf("l%g", p), p: p, invP: 1 / p}
	if p == math.Trunc(p) && p <= 64 {
		m.ip = int(p)
	}
	return m
}

// MetricByName returns the metric with the given Name, or nil if unknown.
func MetricByName(name string) Metric {
	switch name {
	case "euclidean", "l2":
		return Euclidean
	case "manhattan", "l1":
		return Manhattan
	case "chessboard", "chebyshev", "linf":
		return Chessboard
	}
	return nil
}

func (m lpMetric) Name() string { return m.name }

// aggregate folds per-dimension non-negative deltas into an Lp distance.
func (m lpMetric) aggregate(deltas func(i int) float64, dim int) float64 {
	switch {
	case math.IsInf(m.p, 1):
		max := 0.0
		for i := 0; i < dim; i++ {
			if d := deltas(i); d > max {
				max = d
			}
		}
		return max
	case m.p == 1:
		sum := 0.0
		for i := 0; i < dim; i++ {
			sum += deltas(i)
		}
		return sum
	case m.p == 2:
		sum := 0.0
		for i := 0; i < dim; i++ {
			d := deltas(i)
			sum += d * d
		}
		return math.Sqrt(sum)
	default:
		sum := 0.0
		if m.ip > 0 {
			// Integer p: repeated multiply replaces math.Pow per dimension.
			// ipow mirrors math.Pow's binary-exponentiation multiply order,
			// so the sums (and hence the distances) are unchanged bit for
			// bit within the normal floating-point range.
			for i := 0; i < dim; i++ {
				sum += ipow(deltas(i), m.ip)
			}
		} else {
			for i := 0; i < dim; i++ {
				sum += math.Pow(deltas(i), m.p)
			}
		}
		inv := m.invP
		if inv == 0 {
			// A hand-built lpMetric literal (not constructed via Lp) has no
			// cached reciprocal.
			inv = 1 / m.p
		}
		return math.Pow(sum, inv)
	}
}

// ipow computes x**n for n >= 1 by binary exponentiation, multiplying in
// the same order math.Pow does for integer exponents: for inputs whose
// intermediate powers stay within the normal range the result is bitwise
// identical to math.Pow(x, float64(n)).
func ipow(x float64, n int) float64 {
	x1, xi := 1.0, x
	for i := n; i != 0; i >>= 1 {
		if i&1 == 1 {
			x1 *= xi
		}
		if i > 1 {
			xi *= xi
		}
	}
	return x1
}

func (m lpMetric) Dist(p, q Point) float64 {
	checkDim(len(p), len(q))
	return m.aggregate(func(i int) float64 { return math.Abs(p[i] - q[i]) }, len(p))
}

func (m lpMetric) MinDistPR(p Point, r Rect) float64 {
	checkDim(len(p), len(r.Lo))
	return m.aggregate(func(i int) float64 {
		switch {
		case p[i] < r.Lo[i]:
			return r.Lo[i] - p[i]
		case p[i] > r.Hi[i]:
			return p[i] - r.Hi[i]
		default:
			return 0
		}
	}, len(p))
}

func (m lpMetric) MinDist(a, b Rect) float64 {
	checkDim(len(a.Lo), len(b.Lo))
	return m.aggregate(func(i int) float64 {
		switch {
		case a.Hi[i] < b.Lo[i]:
			return b.Lo[i] - a.Hi[i]
		case b.Hi[i] < a.Lo[i]:
			return a.Lo[i] - b.Hi[i]
		default:
			return 0
		}
	}, len(a.Lo))
}

func (m lpMetric) MaxDist(a, b Rect) float64 {
	checkDim(len(a.Lo), len(b.Lo))
	return m.aggregate(func(i int) float64 {
		return math.Max(math.Abs(a.Hi[i]-b.Lo[i]), math.Abs(b.Hi[i]-a.Lo[i]))
	}, len(a.Lo))
}

func (m lpMetric) MaxDistPR(p Point, r Rect) float64 {
	checkDim(len(p), len(r.Lo))
	return m.aggregate(func(i int) float64 {
		return math.Max(math.Abs(p[i]-r.Lo[i]), math.Abs(p[i]-r.Hi[i]))
	}, len(p))
}
