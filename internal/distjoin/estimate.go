package distjoin

import (
	"distjoin/internal/pairheap"
)

// mKey identifies a pair in the estimation set M, or in semi-join mode the
// first item alone (k2 and r2 zero).
type mKey struct {
	k1, k2 itemKind
	r1, r2 uint64
}

// mEntry is an element of the estimation set M (§2.2.4): a pair currently
// on the main queue, the upper bound d_max on the distance of the object
// pairs it generates, and a lower bound on how many it generates.
type mEntry struct {
	pair  mKey // the pair itself
	at    mKey // its key in the index: the pair, or in semi mode its first item
	dmax  float64
	count int
}

// estimator implements the maximum-distance estimation of §2.2.4 and its
// semi-join variant (§2.3). It maintains the set M of eligible pairs in a
// max-priority queue Q_M keyed on d_max, plus a hash index for positional
// deletion, exactly as the paper describes. Whenever the guaranteed number
// of generatable result pairs in M exceeds the number still needed, pairs
// with the largest d_max are evicted and the effective maximum distance is
// tightened to the last evicted d_max.
//
// The minimum-distance estimation of §2.2.5 for farthest-first joins is the
// same device with min and max swapped: the engine runs it by handing this
// estimator every distance negated (engine.observe).
type estimator struct {
	remaining int // result pairs still needed
	total     int // sum of counts in M
	heap      *pairheap.Heap[*mEntry]
	index     map[mKey]pairheap.Handle // M by pair; semi mode: by first item
	semi      bool
	processed map[uint64]bool // semi: first-tree node pages already expanded
}

func newEstimator(k int, semi bool) *estimator {
	est := &estimator{
		remaining: k,
		heap:      pairheap.New(func(a, b *mEntry) bool { return a.dmax > b.dmax }),
		index:     make(map[mKey]pairheap.Handle),
		semi:      semi,
	}
	if semi {
		est.processed = make(map[uint64]bool)
	}
	return est
}

func pairKeyOf(p qpair) mKey {
	return mKey{k1: p.i1.kind, r1: p.i1.ref, k2: p.i2.kind, r2: p.i2.ref}
}

// keyOf is the key p is filed under in M: the pair, or in semi mode its
// first item, where an OBR and the object fetched for it are one item.
func (est *estimator) keyOf(p qpair) mKey {
	if !est.semi {
		return pairKeyOf(p)
	}
	if p.i1.isNode() {
		return mKey{k1: kindNode, r1: p.i1.ref}
	}
	return mKey{k1: kindObj, r1: p.i1.ref}
}

// observe considers an enqueued pair for M and returns the tightened
// maximum distance (or the current one unchanged). dmaxCur is the effective
// maximum in force and dmin the minimum; d, dmax and count describe the pair
// per §2.2.4.
func (est *estimator) observe(p qpair, d, dmax, dmin, dmaxCur float64, count int) float64 {
	// Eligibility: every object pair generated from p is certain to lie in
	// [dmin, dmaxCur].
	if d < dmin || dmax > dmaxCur {
		return dmaxCur
	}
	// A semi-join node may enter only if it was never expanded (its entries
	// would otherwise be double counted).
	if est.semi && p.i1.isNode() && est.processed[p.i1.ref] {
		return dmaxCur
	}
	ent := &mEntry{pair: pairKeyOf(p), at: est.keyOf(p), dmax: dmax, count: count}
	if old, ok := est.index[ent.at]; ok {
		// A pair is never enqueued twice; a semi-join first item is in M
		// once, under its smallest d_max.
		if !est.semi || dmax >= est.heap.Value(old).dmax {
			return dmaxCur
		}
		est.evict(est.heap.Value(old))
	}
	est.index[ent.at] = est.heap.Insert(ent)
	est.total += count

	// Shrink M while it guarantees more pairs than are still needed,
	// tightening the maximum distance to the last evicted d_max — the
	// paper's exact procedure. Evicting may drop the sum below K, but the
	// guarantee survives: the remaining pairs plus the last evicted pair
	// (whose own results all lie within the new bound, since the bound IS
	// its d_max) still cover K.
	for est.total > est.remaining && !est.heap.Empty() {
		top := est.heap.Min() // max d_max (heap is inverted)
		est.evict(top)
		dmaxCur = top.dmax
	}
	return dmaxCur
}

func (est *estimator) evict(ent *mEntry) {
	est.heap.Delete(est.index[ent.at])
	delete(est.index, ent.at)
	est.total -= ent.count
}

// onPop removes a pair retrieved from the main queue from M (§2.2.4: "when
// a pair is retrieved from the priority queue, we must also remove the pair
// from M if it is present"). In semi mode any pair with a first node takes
// that node's entry with it: the node is processed from here on, and its
// children may enter M, which would count its objects twice.
func (est *estimator) onPop(p qpair) {
	if h, ok := est.index[est.keyOf(p)]; ok &&
		(est.heap.Value(h).pair == pairKeyOf(p) || est.semi && p.i1.isNode()) {
		est.evict(est.heap.Value(h))
	}
	if est.semi && p.i1.isNode() {
		est.processed[p.i1.ref] = true
	}
}

// onReport accounts for a delivered result pair: one fewer is needed, and
// in semi-join mode any M pair sharing the reported first object is removed
// (§2.3).
func (est *estimator) onReport(p qpair) {
	est.remaining--
	if !est.semi {
		return
	}
	if h, ok := est.index[est.keyOf(p)]; ok {
		est.evict(est.heap.Value(h))
	}
}
