package kernel

import (
	"math"
	"testing"

	"distjoin/internal/geom"
)

// FuzzKernelVsScalar feeds random rectangle batches through every metric's
// batch kernels and cross-checks each row against the scalar Metric calls:
// bitwise equality for the L1/L∞/generic kernels (whose accumulation order
// is the scalar's exactly), and ulp-bounded equality for the deferred L2
// kernel, whose squared sums may be contracted into fused multiply-adds on
// architectures where the compiler fuses (the engine's prune decisions
// remain exact on every architecture because PreGreater/PreLessEq compare
// the kernel's own pre-values).
func FuzzKernelVsScalar(f *testing.F) {
	f.Add(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
	f.Add(-10.0, 10.0, -10.0, 10.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(1e-300, 1e300, -1e300, 1e-9, 2.5, 2.5, -2.5, 7.0)
	f.Add(0.1, 0.2, 0.30000000000000004, 0.3, -0.0, 0.0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, b0, b1, b2, b3 float64) {
		for _, v := range []float64{a0, a1, a2, a3, b0, b1, b2, b3} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite coordinates")
			}
		}
		q := rectFrom(a0, a1, a2, a3)
		var rc RectCols
		var pc PointCols
		rc.Reset(2)
		pc.Reset(2)
		// A small batch mixing the fuzzed rectangle with perturbations of
		// it, so separated, touching and overlapping rows coexist.
		base := rectFrom(b0, b1, b2, b3)
		rc.Append(base)
		rc.Append(rectFrom(b0+1, b1, b2, b3))
		rc.Append(rectFrom(b0, b1-1, b2+0.5, b3))
		rc.Append(q)
		pc.Append(geom.Point{b0, b2})
		pc.Append(geom.Point{b1, b3})
		pc.Append(geom.Point{a0, a2})
		out := make([]float64, rc.Len())

		for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan, geom.Chessboard, geom.Lp(3)} {
			k := For(m)
			exact := m != geom.Euclidean

			k.MinDistBatch(q, &rc, out)
			for i := 0; i < rc.Len(); i++ {
				requireRow(t, m.Name()+"/mindist", i, k.Finish(out[i]), m.MinDist(q, rc.Rect(i)), exact)
			}
			k.MaxDistRows(q, rowsOf(rc.rects), out)
			for i := 0; i < rc.Len(); i++ {
				requireRow(t, m.Name()+"/maxdist", i, k.Finish(out[i]), m.MaxDist(q, rc.Rect(i)), exact)
			}
			p := geom.Point{a0, a2}
			k.DistBatch(p, &pc, out[:pc.Len()])
			for i := 0; i < pc.Len(); i++ {
				requireRow(t, m.Name()+"/dist", i, k.Finish(out[i]), m.Dist(p, pc.Point(i)), exact)
			}

			// The deferred comparisons must agree with the finished ones for
			// the batch's own pre-values whatever the architecture computed.
			k.MinDistBatch(q, &rc, out)
			for i := 0; i < rc.Len(); i++ {
				d := k.Finish(out[i])
				for _, bound := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)), 0, math.Inf(1)} {
					if got, want := k.PreGreater(out[i], bound), d > bound; got != want {
						t.Fatalf("%s: PreGreater(%v, %v) = %v, want %v", m.Name(), out[i], bound, got, want)
					}
					if got, want := k.PreLessEq(out[i], bound), d <= bound; got != want {
						t.Fatalf("%s: PreLessEq(%v, %v) = %v, want %v", m.Name(), out[i], bound, got, want)
					}
				}
			}
		}
	})
}

// rectFrom builds a valid 2D rectangle from four fuzzed coordinates by
// sorting each axis pair.
func rectFrom(x0, x1, y0, y1 float64) geom.Rect {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	return geom.Rect{Lo: geom.Point{x0, y0}, Hi: geom.Point{x1, y1}}
}

// requireRow asserts one batch row against its scalar value.
func requireRow(t *testing.T, label string, i int, got, want float64, exact bool) {
	t.Helper()
	if got == want || (math.IsNaN(got) && math.IsNaN(want)) {
		return
	}
	if !exact && ulpDiff(got, want) <= 2 {
		return
	}
	t.Fatalf("%s row %d: batch %v != scalar %v", label, i, got, want)
}
