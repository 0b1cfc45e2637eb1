package geom

import "math"

// Segment is a line segment between two d-dimensional endpoints. The paper
// evaluates on points and names line data as future study (§3.1, §5);
// segments are the simplest extended object type, exercised through the
// engine's bounding-rectangle mode with an exact-distance callback.
type Segment struct {
	A, B Point
}

// Seg constructs a segment, panicking on dimension mismatch.
func Seg(a, b Point) Segment {
	checkDim(len(a), len(b))
	return Segment{A: a, B: b}
}

// BBox returns the segment's minimal bounding rectangle.
func (s Segment) BBox() Rect {
	lo := make(Point, len(s.A))
	hi := make(Point, len(s.A))
	for i := range s.A {
		lo[i] = math.Min(s.A[i], s.B[i])
		hi[i] = math.Max(s.A[i], s.B[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// At returns the point A + t·(B−A).
func (s Segment) At(t float64) Point {
	p := make(Point, len(s.A))
	for i := range s.A {
		p[i] = s.A[i] + t*(s.B[i]-s.A[i])
	}
	return p
}

// Length returns the Euclidean length of the segment.
func (s Segment) Length() float64 { return Euclidean.Dist(s.A, s.B) }

// DistToPoint returns the Euclidean distance from p to the nearest point of
// the segment.
func (s Segment) DistToPoint(p Point) float64 {
	checkDim(len(p), len(s.A))
	// Project p onto the segment's supporting line and clamp.
	var dd, dp float64
	for i := range s.A {
		d := s.B[i] - s.A[i]
		dd += d * d
		dp += d * (p[i] - s.A[i])
	}
	t := 0.0
	if dd > 0 {
		t = dp / dd
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
	}
	return Euclidean.Dist(p, s.At(t))
}

// SegmentDist returns the Euclidean distance between the closest points of
// two segments, in any dimension, using the standard clamped quadratic
// minimization over the two segment parameters (Eberly's robust
// formulation). Intersecting or touching segments yield 0.
func SegmentDist(s1, s2 Segment) float64 {
	checkDim(len(s1.A), len(s2.A))
	dim := len(s1.A)
	// Direction vectors and the offset between origins.
	d1 := make([]float64, dim)
	d2 := make([]float64, dim)
	r := make([]float64, dim)
	for i := 0; i < dim; i++ {
		d1[i] = s1.B[i] - s1.A[i]
		d2[i] = s2.B[i] - s2.A[i]
		r[i] = s1.A[i] - s2.A[i]
	}
	dot := func(a, b []float64) float64 {
		sum := 0.0
		for i := range a {
			sum += a[i] * b[i]
		}
		return sum
	}
	a := dot(d1, d1) // squared length of s1
	e := dot(d2, d2) // squared length of s2
	f := dot(d2, r)

	var t, u float64 // parameters on s1 and s2
	switch {
	case a == 0 && e == 0:
		// Both degenerate to points.
		t, u = 0, 0
	case a == 0:
		// s1 is a point: clamp projection onto s2.
		t = 0
		u = clamp01(f / e)
	default:
		c := dot(d1, r)
		if e == 0 {
			// s2 is a point: clamp projection onto s1.
			u = 0
			t = clamp01(-c / a)
		} else {
			b := dot(d1, d2)
			denom := a*e - b*b
			if denom > 0 {
				t = clamp01((b*f - c*e) / denom)
			} else {
				t = 0 // parallel: pick an endpoint of s1
			}
			u = (b*t + f) / e
			// Clamp u, then recompute the optimal t for the clamped u.
			if u < 0 {
				u = 0
				t = clamp01(-c / a)
			} else if u > 1 {
				u = 1
				t = clamp01((b - c) / a)
			}
		}
	}
	return Euclidean.Dist(s1.At(t), s2.At(u))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
