package geom

import "math"

// MinMaxDistPR implements the MINMAXDIST metric of Roussopoulos et al.
// between a point and a minimal bounding rectangle (paper §2.2.3): because a
// minimally-bounded object touches every face of its bounding rectangle, for
// every face f of r the object has a point within max_{q∈f} d(p,q) of p, so
//
//	MINMAXDIST(p, r) = min over faces f of r of max_{q∈f} d(p, q)
//
// is an upper bound on the distance from p to the object bounded by r. The
// minimum is always attained on one of the d "near" faces, which allows the
// O(d²) closed form below: candidate k fixes dimension k at its nearer
// boundary and all other dimensions at their farther boundary.
func (m lpMetric) MinMaxDistPR(p Point, r Rect) float64 {
	checkDim(len(p), len(r.Lo))
	d := len(p)
	best := math.Inf(1)
	for k := 0; k < d; k++ {
		cand := m.aggregate(func(i int) float64 {
			// |p_i - nearer face coordinate| in dimension k, |p_i - farther
			// face coordinate| in every other.
			lo, hi := math.Abs(p[i]-r.Lo[i]), math.Abs(p[i]-r.Hi[i])
			if (i == k) == (p[i] <= (r.Lo[i]+r.Hi[i])/2) {
				return lo
			}
			return hi
		}, d)
		if cand < best {
			best = cand
		}
	}
	return best
}

// MinMaxDist generalizes MINMAXDIST to two rectangles a and b, each minimally
// bounding one object (paper §2.2.3). Each object touches every face of its
// rectangle, so for any face f of a and any face g of b the two objects have
// points p∈f and q∈g; in the worst case those points are the farthest-apart
// points of the two faces, hence
//
//	MINMAXDIST(a, b) = min over faces f of a, g of b of MaxDist(f, g)
//
// is a sound upper bound on the distance between the two objects. For
// degenerate (point) rectangles this reduces to MinMaxDistPR and ultimately
// to Dist.
func (m lpMetric) MinMaxDist(a, b Rect) float64 {
	checkDim(len(a.Lo), len(b.Lo))
	// Every face of a point is the point: one stands for all 2d of them.
	na, nb := 2*len(a.Lo), 2*len(b.Lo)
	if a.IsPoint() {
		na = 1
	}
	if b.IsPoint() {
		nb = 1
	}
	best := math.Inf(1)
	for f := 0; f < na; f++ {
		for g := 0; g < nb; g++ {
			if d := m.MaxDistFace(a, f, b, g); d < best {
				best = d
			}
		}
	}
	return best
}

// MaxDistFace returns MaxDist between face fa of a and face fb of b without
// building either. Face 2i of a rectangle fixes dimension i at its low
// coordinate, face 2i+1 at its high one; a negative index stands for the
// whole rectangle.
func (m lpMetric) MaxDistFace(a Rect, fa int, b Rect, fb int) float64 {
	checkDim(len(a.Lo), len(b.Lo))
	return m.aggregate(func(i int) float64 {
		alo, ahi := faceSpan(a, fa, i)
		blo, bhi := faceSpan(b, fb, i)
		return math.Max(math.Abs(ahi-blo), math.Abs(bhi-alo))
	}, len(a.Lo))
}

// faceSpan returns the extent in dimension i of face f of r.
func faceSpan(r Rect, f, i int) (lo, hi float64) {
	lo, hi = r.Lo[i], r.Hi[i]
	if f>>1 == i {
		if f&1 == 0 {
			hi = lo
		} else {
			lo = hi
		}
	}
	return lo, hi
}
