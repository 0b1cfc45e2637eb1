package geom

import (
	"math"
	"testing"
)

// FuzzDistanceKernels feeds arbitrary 2-D coordinates through every
// distance kernel the join bounds rely on and checks the metric-space
// invariants that make the incremental algorithms correct:
//
//	0 <= MinDist(a,b) = MinDist(b,a)
//	MinDist(a,b) <= MinDistPR(p,b)  <= Dist(p,q) for p in a, q in b
//	Dist(p,q)   <= MaxDistPR(p,b)   <= MaxDist(a,b)
//	MinDist(a,b) <= MinMaxDist(a,b) <= MaxDist(a,b)
//
// and that the d_max bounds computed from coordinates (MaxDistFace,
// MinMaxDist, MinMaxDistPR) equal the minima over materialised Faces() they
// replaced, under L1, L2, L∞ and general p.
//
// A violated bound would not crash the engine — it would silently emit
// pairs out of distance order, which is exactly what the differential
// harness cannot distinguish from a subtly wrong oracle. Fuzzing the
// kernels directly is the cheap line of defense.
func FuzzDistanceKernels(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0)
	f.Add(-5.0, 3.0, 5.0, 4.0, -1.0, -1.0, 1.0, 1.0) // overlapping
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)    // degenerate points
	f.Add(1e300, -1e300, 1e-300, 0.25, -7.0, 7.0, 0.5, -0.5)
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2, x3, y3, x4, y4 float64) {
		for _, v := range []float64{x1, y1, x2, y2, x3, y3, x4, y4} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
		}
		// Build valid rects by sorting the coordinates per dimension.
		a := R(Pt(math.Min(x1, x2), math.Min(y1, y2)), Pt(math.Max(x1, x2), math.Max(y1, y2)))
		b := R(Pt(math.Min(x3, x4), math.Min(y3, y4)), Pt(math.Max(x3, x4), math.Max(y3, y4)))
		// Sample points inside each rect: the corners the fuzzer chose.
		p := Pt(x1, y1)
		q := Pt(x3, y3)
		checkFaceBounds(t, a, b, p)
		checkFaceBounds(t, p.Rect(), b, q)
		checkFaceBounds(t, p.Rect(), q.Rect(), p)

		for _, m := range []Metric{Euclidean, Manhattan, Chessboard, Lp(3)} {
			min := m.MinDist(a, b)
			max := m.MaxDist(a, b)
			d := m.Dist(p, q)
			minPR := m.MinDistPR(p, b)
			maxPR := m.MaxDistPR(p, b)
			mm := m.MinMaxDist(a, b)
			tol := 1e-9 * (1 + math.Abs(max))

			if min < 0 || d < 0 || minPR < 0 {
				t.Fatalf("%s: negative distance: min=%g d=%g minPR=%g", m.Name(), min, d, minPR)
			}
			if got := m.MinDist(b, a); math.Abs(got-min) > tol {
				t.Fatalf("%s: MinDist asymmetric: %g vs %g", m.Name(), min, got)
			}
			if got := m.Dist(q, p); math.Abs(got-d) > tol {
				t.Fatalf("%s: Dist asymmetric: %g vs %g", m.Name(), d, got)
			}
			if got := m.MaxDist(b, a); math.Abs(got-max) > tol {
				t.Fatalf("%s: MaxDist asymmetric: %g vs %g", m.Name(), max, got)
			}
			if min > minPR+tol {
				t.Fatalf("%s: MinDist %g > MinDistPR %g (a=%v b=%v p=%v)", m.Name(), min, minPR, a, b, p)
			}
			if minPR > d+tol {
				t.Fatalf("%s: MinDistPR %g > Dist %g (p=%v q=%v b=%v)", m.Name(), minPR, d, p, q, b)
			}
			if d > maxPR+tol {
				t.Fatalf("%s: Dist %g > MaxDistPR %g (p=%v q=%v b=%v)", m.Name(), d, maxPR, p, q, b)
			}
			if maxPR > max+tol {
				t.Fatalf("%s: MaxDistPR %g > MaxDist %g (p=%v a=%v b=%v)", m.Name(), maxPR, max, p, a, b)
			}
			if mm < min-tol || mm > max+tol {
				t.Fatalf("%s: MinMaxDist %g outside [MinDist %g, MaxDist %g]", m.Name(), mm, min, max)
			}
			if a.Intersects(b) && min > tol {
				t.Fatalf("%s: intersecting rects have MinDist %g", m.Name(), min)
			}
		}
	})
}
