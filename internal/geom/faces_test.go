package geom

import (
	"math"
	"math/rand"
	"testing"

	"distjoin/internal/racecheck"
)

// Faces returns the 2d faces of r, each as a rectangle degenerate in one
// dimension. Face 2i fixes dimension i at Lo[i]; face 2i+1 fixes it at Hi[i].
// It is the reference the closed-form bounds (MaxDistFace, MinMaxDist,
// MinMaxDistPR) are checked against: they compute the same values without
// building a face.
func (r Rect) Faces() []Rect {
	d := r.Dim()
	faces := make([]Rect, 0, 2*d)
	for i := 0; i < d; i++ {
		lo := r.Lo.Clone()
		hi := r.Hi.Clone()
		hi[i] = r.Lo[i]
		faces = append(faces, Rect{Lo: lo, Hi: hi})
		lo2 := r.Lo.Clone()
		hi2 := r.Hi.Clone()
		lo2[i] = r.Hi[i]
		faces = append(faces, Rect{Lo: lo2, Hi: hi2})
	}
	return faces
}

// refMinMaxDist is MinMaxDist by definition: the minimum of MaxDist over
// every pair of materialised faces.
func refMinMaxDist(m Metric, a, b Rect) float64 {
	best := math.Inf(1)
	for _, f := range a.Faces() {
		for _, g := range b.Faces() {
			if d := m.MaxDist(f, g); d < best {
				best = d
			}
		}
	}
	return best
}

// refMinMaxDistPR is MINMAXDIST by definition: the minimum over the faces of
// r of the farthest distance from p to the face.
func refMinMaxDistPR(m Metric, p Point, r Rect) float64 {
	best := math.Inf(1)
	for _, f := range r.Faces() {
		if d := m.MaxDistPR(p, f); d < best {
			best = d
		}
	}
	return best
}

// tabledMinMaxDistPR is the point form as it was written before it stopped
// allocating: the near and far offsets tabulated first, then aggregated.
func tabledMinMaxDistPR(m lpMetric, p Point, r Rect) float64 {
	d := len(p)
	near, far := make([]float64, d), make([]float64, d)
	for i := 0; i < d; i++ {
		near[i], far[i] = math.Abs(p[i]-r.Hi[i]), math.Abs(p[i]-r.Lo[i])
		if p[i] <= (r.Lo[i]+r.Hi[i])/2 {
			near[i], far[i] = far[i], near[i]
		}
	}
	best := math.Inf(1)
	for k := 0; k < d; k++ {
		cand := m.aggregate(func(i int) float64 {
			if i == k {
				return near[i]
			}
			return far[i]
		}, d)
		if cand < best {
			best = cand
		}
	}
	return best
}

// sameBits reports whether two distances are the same float64, NaNs
// included.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkFaceBounds compares every closed-form bound with its face-building
// reference, bit for bit, under every metric.
func checkFaceBounds(t testing.TB, a, b Rect, p Point) {
	t.Helper()
	for _, m := range []Metric{Manhattan, Euclidean, Chessboard, Lp(3), Lp(2.5)} {
		fa, fb := a.Faces(), b.Faces()
		for i := -1; i < len(fa); i++ {
			for j := -1; j < len(fb); j++ {
				ra, rb := a, b
				if i >= 0 {
					ra = fa[i]
				}
				if j >= 0 {
					rb = fb[j]
				}
				if got, want := m.MaxDistFace(a, i, b, j), m.MaxDist(ra, rb); !sameBits(got, want) {
					t.Fatalf("%s: MaxDistFace(%v, %d, %v, %d) = %v, MaxDist of the faces = %v", m.Name(), a, i, b, j, got, want)
				}
			}
		}
		if got, want := m.MinMaxDist(a, b), refMinMaxDist(m, a, b); !sameBits(got, want) {
			t.Fatalf("%s: MinMaxDist(%v, %v) = %v, over faces %v", m.Name(), a, b, got, want)
		}
		// The point form takes the near face per dimension, the definition
		// every face: equal as bounds, not always in the last bit.
		got, want := m.MinMaxDistPR(p, b), refMinMaxDistPR(m, p, b)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("%s: MinMaxDistPR(%v, %v) = %v, over faces %v", m.Name(), p, b, got, want)
		}
		if want := tabledMinMaxDistPR(m.(lpMetric), p, b); !sameBits(got, want) {
			t.Fatalf("%s: MinMaxDistPR(%v, %v) = %v, tabulated %v", m.Name(), p, b, got, want)
		}
	}
}

// TestFaceBoundsMatchFaces runs the comparison over random boxes, points and
// boxes degenerate in some dimensions, in one to five dimensions.
func TestFaceBoundsMatchFaces(t *testing.T) {
	rnd := rand.New(rand.NewSource(18))
	for n := 0; n < 400; n++ {
		dims := 1 + rnd.Intn(5)
		mk := func() Rect {
			lo, hi := make(Point, dims), make(Point, dims)
			for i := range lo {
				lo[i] = rnd.NormFloat64() * 100
				hi[i] = lo[i]
				if rnd.Intn(3) > 0 {
					hi[i] += rnd.Float64() * 50
				}
			}
			return Rect{Lo: lo, Hi: hi}
		}
		a, b := mk(), mk()
		if n%5 == 0 {
			b = Rect{Lo: b.Lo, Hi: b.Lo}
		}
		if n%7 == 0 {
			a = Rect{Lo: a.Hi, Hi: a.Hi}
		}
		checkFaceBounds(t, a, b, mk().Lo)
	}
}

// TestAllocBounds gates the d_max bounds at zero allocations, for points and
// for boxes, under every metric.
func TestAllocBounds(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	box, box2 := R(Pt(0, 0, 0), Pt(2, 3, 4)), R(Pt(5, 5, 5), Pt(6, 9, 7))
	pt, pt2 := Pt(1, 7, 2), Pt(8, 1, 1)
	for _, m := range []Metric{Manhattan, Euclidean, Chessboard, Lp(3), Lp(2.5)} {
		if n := testing.AllocsPerRun(200, func() {
			sink += m.MinMaxDist(box, box2) + m.MinMaxDist(pt.Rect(), box) + m.MinMaxDist(pt.Rect(), pt2.Rect())
			sink += m.MinMaxDistPR(pt, box) + m.MinMaxDistPR(pt, pt2.Rect())
			sink += m.MaxDistFace(box, -1, box2, 3) + m.MaxDistFace(box, 0, pt.Rect(), 5)
		}); n != 0 {
			t.Errorf("%s: the d_max bounds allocate %v times, want 0", m.Name(), n)
		}
	}
}

var sink float64
