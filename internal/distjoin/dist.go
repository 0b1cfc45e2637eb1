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

// guaranteed is the count M keeps for p (§2.2.4), how many pairs it is
// certain to yield to the query: c1·c2, or in semi mode c1 if the second item
// holds a partner at all. OmitEqualIDs takes min(c1, c2) off a pair with a
// node: ids are unique within an input, and an equal-id object pair is never
// queued.
func (e *engine) guaranteed(p qpair) int {
	c1, c2 := e.minObjects(p.i1, 1), e.minObjects(p.i2, 2)
	count := c1 * c2
	if e.semi != nil {
		count = c1 * min(c2, 1)
	}
	if e.opts.OmitEqualIDs && (p.i1.isNode() || p.i2.isNode()) {
		count -= min(c1, c2)
	}
	return count
}

// minObjects returns how many objects under an item the query is certain to
// report from: 1 for an object or OBR, which passed its side's selections to
// be queued; for a node the index's minimum-fill bound (0 for a quadtree,
// whose emptied leaves stay in place), 1 for the root of a non-empty index,
// which is exempt from minimum fill, or 0 where its side has a predicate or a
// window that does not contain the node's region.
func (e *engine) minObjects(it item, side int) int {
	if !it.isNode() {
		return 1
	}
	t, root, w, sel := e.t1, e.root1, e.opts.Window1, e.opts.Select1
	if side == 2 {
		t, root, w, sel = e.t2, e.root2, e.opts.Window2, e.opts.Select2
	}
	if sel != nil || w != nil && !w.Contains(it.rect()) {
		return 0
	}
	if it.ref == root {
		return 1
	}
	return t.MinObjectsUnder(int(it.level))
}
