package distjoin

import "distjoin/internal/geom"

// minDist returns the lower bound on the distance between any object pair
// generated from (a, b) — the queue key of forward joins. For pairs of leaf
// entries in direct-object mode this is the exact object distance.
func (e *engine) minDist(a, b item) float64 {
	d := e.opts.Metric.MinDist(a.rect(), b.rect())
	e.countDistCalc(a, b)
	return d
}

// countDistCalc records one distance calculation for the pair in the
// paper's accounting: an object distance when both operands are object
// geometry (exact or bounding rectangle), a node distance otherwise. The
// batched expansion computes distances in kernels and accounts them here,
// at the same per-pair points the scalar path counts.
func (e *engine) countDistCalc(a, b item) {
	e.m.DistCalc(a.kind == kindNode || b.kind == kindNode)
}

// maxDist returns the d_max upper bound of §2.2.3/§2.2.4 for a pair:
//
//   - node/node: the plain maximum distance between the two regions, which
//     bounds every generated object pair;
//   - node with an object or OBR: every object under the node is within
//     max-distance of some face of the (minimally bounding) object
//     rectangle, so the bound is the smallest such face distance;
//   - two objects/OBRs: the rectangle MINMAXDIST generalization, which for
//     exact geometry degenerates to the object distance itself.
func (e *engine) maxDist(a, b item) float64 {
	m, ra, rb := e.opts.Metric, a.rect(), b.rect()
	switch {
	case a.isNode() && b.isNode():
		return m.MaxDist(ra, rb)
	case a.isNode():
		return minOverFacesMaxDist(m, ra, rb)
	case b.isNode():
		return minOverFacesMaxDist(m, rb, ra)
	default:
		return m.MinMaxDist(ra, rb)
	}
}

// minOverFacesMaxDist returns min over faces g of the minimal bounding
// rectangle obr of MaxDist(region, g): since the bounded object touches
// every face of obr, every point of region is within this distance of the
// object, making it an upper bound on d(o1, o2) for every object o1 inside
// region. For degenerate (point) obr this is simply MaxDist(region, point).
func minOverFacesMaxDist(m geom.Metric, region, obr geom.Rect) float64 {
	if obr.IsPoint() {
		return m.MaxDist(region, obr)
	}
	best := -1.0
	for g := 0; g < 2*obr.Dim(); g++ {
		if d := m.MaxDistFace(region, -1, obr, g); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// minObjects returns the guaranteed minimum number of objects under an
// item: 1 for objects/OBRs, the minimum-fan-out bound for non-root nodes
// (§2.2.4), and a conservative 1 for the root (which is exempt from the
// minimum-fill invariant).
func (e *engine) minObjects(it item, side int) int {
	if !it.isNode() {
		return 1
	}
	t, root := e.t1, e.root1
	if side == 2 {
		t, root = e.t2, e.root2
	}
	if it.ref == root {
		return 1
	}
	if n := t.MinObjectsUnder(int(it.level)); n > 1 {
		return n
	}
	return 1
}
