package kernel

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"distjoin/internal/geom"
)

// testMetrics covers every kernel family: the three specialized canonical
// metrics plus a generic-fallback Lp.
var testMetrics = []geom.Metric{geom.Euclidean, geom.Manhattan, geom.Chessboard, geom.Lp(3)}

// randRect builds a random rectangle of the given dimensionality.
func randRect(rng *rand.Rand, dims int) geom.Rect {
	lo := make(geom.Point, dims)
	hi := make(geom.Point, dims)
	for d := 0; d < dims; d++ {
		a := rng.Float64()*2000 - 1000
		b := a + rng.Float64()*50
		lo[d], hi[d] = a, b
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// randPoint builds a random point.
func randPoint(rng *rand.Rand, dims int) geom.Point {
	p := make(geom.Point, dims)
	for d := 0; d < dims; d++ {
		p[d] = rng.Float64()*2000 - 1000
	}
	return p
}

// ulpDiff returns the distance in representable float64 steps between a
// and b (0 when bitwise equal).
func ulpDiff(a, b float64) int64 {
	if a == b {
		return 0
	}
	ai, bi := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	if ai < 0 {
		ai = math.MinInt64 - ai
	}
	if bi < 0 {
		bi = math.MinInt64 - bi
	}
	d := ai - bi
	if d < 0 {
		d = -d
	}
	return d
}

// wantExact reports whether the batch kernels must match the scalar metric
// bit for bit for this metric on this architecture. L1/L∞ accumulate with
// the scalar's exact operation order everywhere; the L2 squared sums can be
// contracted into FMAs on fusing architectures, so only amd64 (whose gc
// backend does not fuse across statements) pins bitwise equality.
func wantExact(m geom.Metric) bool {
	if m == geom.Euclidean {
		return runtime.GOARCH == "amd64"
	}
	return true
}

// checkBatch compares one kernel output against per-row scalar calls.
func checkBatch(t *testing.T, m geom.Metric, label string, got []float64, scalar func(i int) float64) {
	t.Helper()
	b := For(m)
	for i := range got {
		want := scalar(i)
		have := b.Finish(got[i])
		if wantExact(m) {
			if !(have == want || (math.IsNaN(have) && math.IsNaN(want))) {
				t.Fatalf("%s/%s row %d: batch %v (pre %v) != scalar %v", m.Name(), label, i, have, got[i], want)
			}
		} else if ulpDiff(have, want) > 2 {
			t.Fatalf("%s/%s row %d: batch %v vs scalar %v differ by >2 ulp", m.Name(), label, i, have, want)
		}
	}
}

// TestBatchVsScalar pins every batch kernel against the scalar Metric calls
// row for row, across metrics and dimensionalities (2 exercises the
// unrolled fast paths).
func TestBatchVsScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range []int{2, 3, 5} {
		for _, m := range testMetrics {
			b := For(m)
			var rc RectCols
			var pc PointCols
			rc.Reset(dims)
			pc.Reset(dims)
			const n = 257
			rects := make([]geom.Rect, n)
			pts := make([]geom.Point, n)
			for i := 0; i < n; i++ {
				rects[i], pts[i] = randRect(rng, dims), randPoint(rng, dims)
				rc.Append(rects[i])
				pc.Append(pts[i])
			}
			q := randRect(rng, dims)
			p := randPoint(rng, dims)
			out := make([]float64, n)

			b.MinDistBatch(q, &rc, out)
			checkBatch(t, m, "mindist", out, func(i int) float64 { return m.MinDist(q, rects[i]) })
			b.DistBatch(p, &pc, out)
			checkBatch(t, m, "dist", out, func(i int) float64 { return m.Dist(p, pts[i]) })
		}
	}
}

// TestDistBatchIsMinDistRows pins the point batch kernel to the row kernel
// the engine runs over point leaves: DistBatch from p over a batch of points
// is MinDistRows from p's degenerate rectangle over the points' degenerate
// rows, bit for bit, for every metric family.
func TestDistBatchIsMinDistRows(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, dims := range []int{2, 3, 5} {
		for _, m := range testMetrics {
			b := For(m)
			var pc PointCols
			dist, rows := make([]float64, 64), make([]float64, 64)
			for batch := 0; batch < 200; batch++ {
				pc.Reset(dims)
				pts := make([]geom.Rect, len(dist))
				p := randPoint(rng, dims)
				for i := range pts {
					q := randPoint(rng, dims)
					if i%5 == 0 {
						q[i%dims] = p[i%dims] // equal on one axis
					}
					pc.Append(q)
					pts[i] = q.Rect()
				}
				b.DistBatch(p, &pc, dist)
				b.MinDistRows(p.Rect(), rowsOf(pts), rows)
				for i := range dist {
					if math.Float64bits(dist[i]) != math.Float64bits(rows[i]) {
						t.Fatalf("%s dims %d batch %d row %d: DistBatch %v != MinDistRows %v", m.Name(), dims, batch, i, dist[i], rows[i])
					}
				}
			}
		}
	}
}

// TestBatchTouchingRects pins the intersecting / touching / separated
// boundary cases where the per-dimension delta branches flip.
func TestBatchTouchingRects(t *testing.T) {
	mk := func(lo0, hi0, lo1, hi1 float64) geom.Rect {
		return geom.Rect{Lo: geom.Point{lo0, lo1}, Hi: geom.Point{hi0, hi1}}
	}
	q := mk(0, 10, 0, 10)
	cases := []geom.Rect{
		mk(2, 8, 2, 8),     // contained
		mk(10, 20, 0, 10),  // touching edge
		mk(11, 20, 0, 10),  // separated on axis 0
		mk(-5, -1, -5, -1), // separated on both
		mk(5, 15, 5, 15),   // overlapping
	}
	for _, m := range testMetrics {
		b := For(m)
		var rc RectCols
		rc.Reset(2)
		for _, r := range cases {
			rc.Append(r)
		}
		out := make([]float64, len(cases))
		b.MinDistBatch(q, &rc, out)
		for i, r := range cases {
			if got, want := b.Finish(out[i]), m.MinDist(q, r); got != want {
				t.Errorf("%s: MinDist(%v, %v) batch %v != scalar %v", m.Name(), q, r, got, want)
			}
		}
	}
}

// rowsOf lays rectangles out as a decoded node's coordinate block: one run
// per rectangle, low corner then high corner.
func rowsOf(rects []geom.Rect) []float64 {
	var rows []float64
	for _, r := range rects {
		rows = append(append(rows, r.Lo...), r.Hi...)
	}
	return rows
}

// TestMaxDistRows pins the d_max row kernel against the scalar
// Metric.MaxDist row for row — bitwise for L1, L∞ and the generic fallback,
// and for L2 the pre-distance is the squared sum whose Sqrt the scalar takes
// — in two and three dimensions, over separated, overlapping, touching and
// degenerate (point) rectangles, for a rectangle and a point query.
func TestMaxDistRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, dims := range []int{2, 3} {
		q := randRect(rng, dims)
		rects := []geom.Rect{q, randPoint(rng, dims).Rect(), q.Lo.Rect(), q.Hi.Rect()}
		// Touching q on axis 0; containing q's low corner.
		touch := randRect(rng, dims)
		touch.Lo[0], touch.Hi[0] = q.Hi[0], q.Hi[0]+3
		rects = append(rects, touch, geom.Rect{Lo: q.Lo.Clone(), Hi: q.Lo.Clone()})
		for i := 0; i < 200; i++ {
			if i%3 == 0 {
				rects = append(rects, randPoint(rng, dims).Rect())
			} else {
				rects = append(rects, randRect(rng, dims))
			}
		}
		rows := rowsOf(rects)
		for _, query := range []geom.Rect{q, randPoint(rng, dims).Rect()} {
			for _, m := range testMetrics {
				b := For(m)
				out := make([]float64, len(rects))
				b.MaxDistRows(query, rows, out)
				checkBatch(t, m, "maxdist", out, func(i int) float64 { return m.MaxDist(query, rects[i]) })
				if m != geom.Euclidean || !wantExact(m) {
					continue
				}
				for i, r := range rects {
					var sum float64
					for d := 0; d < dims; d++ {
						delta := math.Max(math.Abs(query.Hi[d]-r.Lo[d]), math.Abs(r.Hi[d]-query.Lo[d]))
						sum += delta * delta
					}
					if out[i] != sum {
						t.Fatalf("dims %d row %d: L2 pre %v != squared sum %v", dims, i, out[i], sum)
					}
				}
			}
		}
	}
}

// TestMaxDistRowsOfPointsIsMinDist pins what lets the engine skip the second
// kernel call on its commonest expansion: between two points the d_max
// pre-distance is the MinDist pre-distance, bit for bit, in every kernel.
func TestMaxDistRowsOfPointsIsMinDist(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, dims := range []int{2, 3} {
		q := randPoint(rng, dims)
		rects := []geom.Rect{q.Rect()}
		for i := 0; i < 200; i++ {
			p := randPoint(rng, dims)
			if i%4 == 0 {
				p[i%dims] = q[i%dims] // equal on one axis
			}
			rects = append(rects, p.Rect())
		}
		rows := rowsOf(rects)
		for _, m := range testMetrics {
			b := For(m)
			lo, hi := make([]float64, len(rects)), make([]float64, len(rects))
			b.MinDistRows(q.Rect(), rows, lo)
			b.MaxDistRows(q.Rect(), rows, hi)
			for i := range lo {
				if lo[i] != hi[i] {
					t.Fatalf("%s dims %d row %d: MaxDistRows %v != MinDistRows %v", m.Name(), dims, i, hi[i], lo[i])
				}
			}
		}
	}
}

// TestPreComparisons pins PreGreater/PreLessEq against the exact finished
// comparison across magnitudes, gray-zone boundaries and non-finite
// corners.
func TestPreComparisons(t *testing.T) {
	b := For(geom.Euclidean)
	rng := rand.New(rand.NewSource(7))
	check := func(pre, bound float64) {
		t.Helper()
		d := math.Sqrt(pre)
		if got, want := b.PreGreater(pre, bound), d > bound; got != want {
			t.Fatalf("PreGreater(%v, %v) = %v, want %v (finished %v)", pre, bound, got, want, d)
		}
		if got, want := b.PreLessEq(pre, bound), d <= bound; got != want {
			t.Fatalf("PreLessEq(%v, %v) = %v, want %v (finished %v)", pre, bound, got, want, d)
		}
	}
	specials := []float64{0, math.Copysign(0, -1), 1, math.Inf(1), math.NaN(),
		-1, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-200, 1e200, 5e-163}
	for _, pre := range specials {
		for _, bound := range specials {
			if pre < 0 {
				continue // kernels never produce negative pre-distances
			}
			check(pre, bound)
		}
	}
	for i := 0; i < 200000; i++ {
		d := math.Exp(rng.Float64()*40 - 20) // magnitudes 1e-9 .. 1e+8
		pre := d * d
		// Bounds at, just below, just above and far from the boundary.
		for _, bound := range []float64{
			d,
			math.Nextafter(d, 0),
			math.Nextafter(d, math.Inf(1)),
			d * (0.4 + rng.Float64()*1.2),
			d * rng.Float64() * 10,
		} {
			check(pre, bound)
		}
	}
	// Non-L2 kernels compare pre-distances directly.
	l1 := For(geom.Manhattan)
	if l1.PreGreater(3, 2) != true || l1.PreLessEq(3, 2) != false {
		t.Fatal("non-deferred PreGreater/PreLessEq must be plain comparisons")
	}
}

// TestFinishDeferred pins the deferral contract: only L2 defers.
func TestFinishDeferred(t *testing.T) {
	if !For(geom.Euclidean).Deferred() {
		t.Fatal("L2 kernels must defer the sqrt")
	}
	for _, m := range []geom.Metric{geom.Manhattan, geom.Chessboard, geom.Lp(3)} {
		if For(m).Deferred() {
			t.Fatalf("%s kernels must not defer", m.Name())
		}
		if got := For(m).Finish(7.5); got != 7.5 {
			t.Fatalf("%s Finish(7.5) = %v, want identity", m.Name(), got)
		}
	}
	if got := For(geom.Euclidean).Finish(9); got != 3 {
		t.Fatalf("L2 Finish(9) = %v, want 3", got)
	}
}

// TestSteadyStateAllocs pins the zero-allocation contract of the row
// kernels: they read a node's coordinate block in place, so there is nothing
// to grow, whatever the metric.
func TestSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 64
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = randRect(rng, 2)
	}
	q := randRect(rng, 2)
	out := make([]float64, n)
	rows := rowsOf(rects)
	for _, m := range testMetrics {
		b := For(m)
		if avg := testing.AllocsPerRun(100, func() {
			b.MinDistRows(q, rows, out)
			b.MaxDistRows(q, rows, out)
		}); avg != 0 {
			t.Fatalf("%s: row kernels allocate %v per run, want 0", m.Name(), avg)
		}
	}
}

// benchRects builds a deterministic 2D query and node's worth of
// rectangles, in row layout, for throughput benchmarks.
func benchRects(n int) (geom.Rect, []geom.Rect, []float64) {
	rng := rand.New(rand.NewSource(1998))
	rects := make([]geom.Rect, n)
	for i := range rects {
		rects[i] = randRect(rng, 2)
	}
	return randRect(rng, 2), rects, rowsOf(rects)
}

// BenchmarkKernelMinDist measures the row kernel's throughput over one
// node's worth of 2-D rectangles; compare against BenchmarkScalarMinDist for
// the speedup factor (the acceptance bar is >= 3x on the L2 kernel).
func BenchmarkKernelMinDist(b *testing.B) {
	for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan, geom.Chessboard} {
		b.Run(m.Name(), func(b *testing.B) {
			const n = 64
			q, _, rows := benchRects(n)
			k := For(m)
			out := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.MinDistRows(q, rows, out)
			}
			b.SetBytes(0)
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mdist/s")
		})
	}
}

// BenchmarkScalarMinDist is the interface-call baseline the kernels are
// measured against.
func BenchmarkScalarMinDist(b *testing.B) {
	for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan, geom.Chessboard} {
		b.Run(m.Name(), func(b *testing.B) {
			const n = 64
			q, rects, _ := benchRects(n)
			out := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					out[j] = m.MinDist(q, rects[j])
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mdist/s")
		})
	}
}

// BenchmarkKernelMaxDistRows measures the d_max row kernel over one node's
// worth of 2-D rectangles.
func BenchmarkKernelMaxDistRows(b *testing.B) {
	for _, m := range []geom.Metric{geom.Euclidean, geom.Manhattan, geom.Chessboard} {
		b.Run(m.Name(), func(b *testing.B) {
			const n = 64
			q, _, rows := benchRects(n)
			k := For(m)
			out := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.MaxDistRows(q, rows, out)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mdist/s")
		})
	}
}
