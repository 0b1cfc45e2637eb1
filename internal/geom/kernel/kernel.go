// Package kernel provides batched distance kernels. The join engine's
// expansion phase computes the distance from one query region to every entry
// of a node; the scalar path pays an interface call plus a per-dimension
// closure per entry (geom.lpMetric.aggregate). The kernels here compute the
// whole batch in closure-free loops, specialized for the L1, L2 and L∞
// metrics (with the 2D case unrolled), so the compiler can keep the
// accumulators in registers and eliminate bounds checks. The engine calls
// the row kernels (MinDistRows, MaxDistRows), which read a decoded node's
// coordinate block where it lies. RectCols, PointCols, MinDistBatch and
// DistBatch exist only for the benchmark module's kernel rows
// (benchmark/micro.go): they copy rectangles and points into that same row
// layout and call MinDistRows, so the rows time what the engine runs. The
// benchmark job's `cd benchmark && go vet ./... && go test -short ./...`
// keeps them compiling.
//
// The L2 kernels are "deferred": they produce squared distances, postponing
// the single math.Sqrt to survivors of the caller's prune (Finish). The
// PreGreater/PreLessEq helpers decide comparisons of the finished distance
// against a bound directly in the squared domain when the margin is wide,
// falling back to the exact sqrt comparison inside a generous gray zone —
// so every prune decision is bitwise identical to the scalar path's.
//
// Per-dimension delta expressions and accumulation order are copied from
// geom.lpMetric exactly (same branch shapes, same dimension order), so for
// the canonical metrics the batch results are bitwise equal to the scalar
// Metric calls on amd64, where the gc compiler does not fuse floating-point
// operations across statements. Architectures that fuse (arm64 FMA) may
// differ by at most 1 ulp in the L2 squared sums; the engine only requires
// self-consistency, and the fuzz harness pins the cross-check tolerance.
package kernel

import (
	"math"

	"distjoin/internal/geom"
)

// RectCols is a batch of rectangles in the row layout of a decoded index
// node's coordinate block (spatial.IndexNode.Coords): one run per rectangle,
// low corner then high corner.
type RectCols struct{ rows []float64 }

// Reset empties the batch, retaining its storage. The row layout takes its
// width from the query, so dims is not recorded.
func (c *RectCols) Reset(dims int) { c.rows = c.rows[:0] }

// Append adds one rectangle to the batch.
func (c *RectCols) Append(r geom.Rect) { c.rows = append(append(c.rows, r.Lo...), r.Hi...) }

// PointCols is a batch of points held as the degenerate rectangles they
// are, in RectCols' row layout.
type PointCols struct{ rects RectCols }

// Reset empties the batch, retaining its storage.
func (c *PointCols) Reset(dims int) { c.rects.Reset(dims) }

// Append adds one point to the batch.
func (c *PointCols) Append(p geom.Point) { c.rects.Append(p.Rect()) }

// kind selects a specialized kernel family.
type kind uint8

const (
	kindGeneric kind = iota
	kindL1
	kindL2
	kindLInf
)

// Batch dispatches batched distance computations for one metric. The zero
// Batch is not usable; construct with For.
type Batch struct {
	m    geom.Metric
	kind kind
}

// For returns the batch kernels for m. The canonical geom metrics
// (Euclidean, Manhattan, Chessboard — as returned by the package variables,
// Lp, or MetricByName) get specialized closure-free kernels; any other
// Metric implementation falls back to per-row scalar calls, which keeps the
// caller's code path uniform at the scalar path's cost.
func For(m geom.Metric) Batch {
	b := Batch{m: m, kind: kindGeneric}
	switch m {
	case geom.Manhattan:
		b.kind = kindL1
	case geom.Euclidean:
		b.kind = kindL2
	case geom.Chessboard:
		b.kind = kindLInf
	}
	return b
}

// Deferred reports whether the kernels produce pre-distances (squared, for
// L2) that require Finish before use as true distances. Comparisons against
// bounds can stay in the pre domain via PreGreater/PreLessEq.
func (b Batch) Deferred() bool { return b.kind == kindL2 }

// Finish converts one kernel output to the metric's true distance: the
// deferred L2 kernel's squared distances take their single Sqrt here; all
// other kernels already produce finished distances.
func (b Batch) Finish(pre float64) float64 {
	if b.kind == kindL2 {
		return math.Sqrt(pre)
	}
	return pre
}

// PreGreater reports Finish(pre) > bound, deciding in the pre domain when
// the margin allows. The decision is exactly the scalar comparison's: wide
// margins are decided by monotonicity of sqrt (the factor-4 guard bands
// absorb the rounding of bound*bound and of the sqrt itself), and anything
// inside the gray zone — or any non-finite corner — falls back to the
// exact math.Sqrt comparison. The unbounded case — every child of a join
// with no maximum distance — is decided inline, without a call.
func (b Batch) PreGreater(pre, bound float64) bool {
	if bound > math.MaxFloat64 {
		return false // nothing exceeds +Inf
	}
	return b.preGreater(pre, bound)
}

func (b Batch) preGreater(pre, bound float64) bool {
	if b.kind != kindL2 {
		return pre > bound
	}
	if !(pre >= 0) {
		return false // NaN pre: sqrt(NaN) > bound is false for every bound
	}
	if bound != bound {
		return false // comparisons with NaN are false
	}
	if bound < 0 {
		return true // sqrt(pre) >= 0 > bound
	}
	s := bound * bound
	if s == 0 || math.IsInf(s, 1) {
		return math.Sqrt(pre) > bound // bound² under- or overflowed
	}
	if pre > 4*s {
		return true
	}
	if pre < 0.25*s {
		return false
	}
	return math.Sqrt(pre) > bound
}

// PreLessEq reports Finish(pre) <= bound, the complement decision of
// PreGreater with the same exactness guarantee.
func (b Batch) PreLessEq(pre, bound float64) bool {
	if b.kind != kindL2 {
		return pre <= bound
	}
	if !(pre >= 0) {
		return false // NaN pre
	}
	if math.IsInf(bound, 1) {
		return true // sqrt(pre) is finite or +Inf, both <= +Inf
	}
	if bound != bound || bound < 0 {
		return false
	}
	s := bound * bound
	if s == 0 || math.IsInf(s, 1) {
		return math.Sqrt(pre) <= bound
	}
	if pre > 4*s {
		return false
	}
	if pre < 0.25*s {
		return true
	}
	return math.Sqrt(pre) <= bound
}

// MinDistBatch computes the minimum distance (pre-distance for deferred
// kernels) from query to every rectangle of c, into out: MinDistRows over
// the batch's rows.
func (b Batch) MinDistBatch(query geom.Rect, c *RectCols, out []float64) {
	b.MinDistRows(query, c.rows, out)
}

// minDelta is the per-dimension MinDist gap between intervals [alo, ahi]
// and [blo, bhi] — the exact branch shape of geom.lpMetric.MinDist, which
// is symmetric in its operands bit for bit.
func minDelta(alo, ahi, blo, bhi float64) float64 {
	switch {
	case ahi < blo:
		return blo - ahi
	case bhi < alo:
		return alo - bhi
	default:
		return 0
	}
}

// MinDistRows computes the minimum distance (pre-distance for deferred
// kernels) from query to rectangles in row layout — rows holds one run per
// rectangle, low corner then high corner (geom.RectOf), the layout of a
// decoded index node's coordinate block, read where it lies: out[i]
// receives the (pre-)distance from query to row i, for all
// len(rows)/(2·dims) rows.
func (b Batch) MinDistRows(query geom.Rect, rows []float64, out []float64) {
	dims := len(query.Lo)
	w := 2 * dims
	out = out[:len(rows)/w]
	switch {
	case b.kind == kindGeneric:
		for i := range out {
			out[i] = b.m.MinDist(query, geom.RectOf(rows[i*w:(i+1)*w]))
		}
	case dims == 2 && b.kind != kindLInf:
		qlo0, qhi0, qlo1, qhi1 := query.Lo[0], query.Hi[0], query.Lo[1], query.Hi[1]
		for i := range out {
			r := rows[i*4 : i*4+4 : i*4+4]
			d0 := minDelta(qlo0, qhi0, r[0], r[2])
			d1 := minDelta(qlo1, qhi1, r[1], r[3])
			if b.kind == kindL2 {
				out[i] = d0*d0 + d1*d1
			} else {
				out[i] = d0 + d1
			}
		}
	default:
		for i := range out {
			r := rows[i*w : (i+1)*w : (i+1)*w]
			var acc float64
			for d := 0; d < dims; d++ {
				delta := minDelta(query.Lo[d], query.Hi[d], r[d], r[dims+d])
				switch b.kind {
				case kindLInf:
					if delta > acc {
						acc = delta
					}
				case kindL1:
					acc += delta
				default: // kindL2, squared
					acc += delta * delta
				}
			}
			out[i] = acc
		}
	}
}

// maxDelta is the per-dimension MaxDist term between intervals [alo, ahi]
// and [blo, bhi]: geom.lpMetric.MaxDist's math.Max(|ahi−blo|, |bhi−alo|).
// Both operands are Abs results of finite coordinates (the boundaries refuse
// non-finite input), where a plain comparison picks the value math.Max picks
// — without math.Max's NaN, infinity and signed-zero handling, which (as
// math.archMax, not inlined) doubled the kernel's time per rectangle.
func maxDelta(alo, ahi, blo, bhi float64) float64 {
	x, y := math.Abs(ahi-blo), math.Abs(bhi-alo)
	if y > x {
		return y
	}
	return x
}

// MaxDistRows is MinDistRows for the maximum distance: out[i] receives the
// (pre-)distance Metric.MaxDist(query, row i) — the same per-dimension
// terms, accumulated in the same order, so bit for bit the scalar value
// (its square, for the deferred L2 kernel). MaxDist is the join's d_max
// (§2.2.3) whenever neither operand is a non-degenerate object rectangle:
// between two nodes, between a node and a point object, and between two
// points, where it is their distance. The face minimum that bounds a
// rectangle object is not a row kernel; callers take the scalar
// Metric.MaxDistFace route for it.
func (b Batch) MaxDistRows(query geom.Rect, rows []float64, out []float64) {
	dims := len(query.Lo)
	w := 2 * dims
	out = out[:len(rows)/w]
	switch {
	case b.kind == kindGeneric:
		for i := range out {
			out[i] = b.m.MaxDist(query, geom.RectOf(rows[i*w:(i+1)*w]))
		}
	case dims == 2 && b.kind != kindLInf:
		qlo0, qhi0, qlo1, qhi1 := query.Lo[0], query.Hi[0], query.Lo[1], query.Hi[1]
		for i := range out {
			r := rows[i*4 : i*4+4 : i*4+4]
			d0 := maxDelta(qlo0, qhi0, r[0], r[2])
			d1 := maxDelta(qlo1, qhi1, r[1], r[3])
			if b.kind == kindL2 {
				out[i] = d0*d0 + d1*d1
			} else {
				out[i] = d0 + d1
			}
		}
	default:
		for i := range out {
			r := rows[i*w : (i+1)*w : (i+1)*w]
			var acc float64
			for d := 0; d < dims; d++ {
				delta := maxDelta(query.Lo[d], query.Hi[d], r[d], r[dims+d])
				switch b.kind {
				case kindLInf:
					if delta > acc {
						acc = delta
					}
				case kindL1:
					acc += delta
				default: // kindL2, squared
					acc += delta * delta
				}
			}
			out[i] = acc
		}
	}
}

// DistBatch computes the point-to-point distance (pre-distance for deferred
// kernels) from p to every point of c, into out: MinDistRows from p's
// degenerate rectangle over the points' degenerate rows, as the engine
// reads a point leaf.
func (b Batch) DistBatch(p geom.Point, c *PointCols, out []float64) {
	b.MinDistRows(p.Rect(), c.rects.rows, out)
}
