package distjoin

import (
	"distjoin/internal/pairheap"
)

// mKey identifies a pair in the estimation set M.
type mKey struct {
	k1, k2 itemKind
	r1, r2 uint64
}

// firstKey identifies the first item of a pair (semi-join M entries are
// unique on it).
type firstKey struct {
	node bool
	ref  uint64
}

// mEntry is an element of the estimation set M (§2.2.4): a pair currently
// on the main queue, the upper bound d_max on the distance of the object
// pairs it generates, and a lower bound on how many it generates.
type mEntry struct {
	key   mKey
	first firstKey
	dmax  float64
	count int
}

// estimator implements the maximum-distance estimation of §2.2.4 and its
// semi-join variant (§2.3). It maintains the set M of eligible pairs in a
// max-priority queue Q_M keyed on d_max, plus hash indexes for positional
// deletion, exactly as the paper describes. Whenever the guaranteed number
// of generatable result pairs in M exceeds the number still needed, pairs
// with the largest d_max are evicted and the effective maximum distance is
// tightened to the last evicted d_max.
type estimator struct {
	remaining int // result pairs still needed
	total     int // sum of counts in M
	heap      *pairheap.Heap[*mEntry]
	byPair    map[mKey]pairheap.Handle     // join mode
	byFirst   map[firstKey]pairheap.Handle // semi mode
	semi      bool
	processed map[uint64]bool // semi: first-tree node pages already expanded
}

func newEstimator(k int, semi bool) *estimator {
	est := &estimator{
		remaining: k,
		heap:      pairheap.New(func(a, b *mEntry) bool { return a.dmax > b.dmax }),
		semi:      semi,
	}
	if semi {
		est.byFirst = make(map[firstKey]pairheap.Handle)
		est.processed = make(map[uint64]bool)
	} else {
		est.byPair = make(map[mKey]pairheap.Handle)
	}
	return est
}

func pairKeyOf(p qpair) mKey {
	return mKey{k1: p.i1.kind, r1: p.i1.ref, k2: p.i2.kind, r2: p.i2.ref}
}

func firstKeyOf(i item) firstKey {
	return firstKey{node: i.isNode(), ref: i.ref}
}

// observe considers an enqueued pair for M and returns the tightened
// maximum distance (or the current one unchanged). dmaxCur is the effective
// maximum in force; dmax and count describe the pair per §2.2.4.
func (est *estimator) observe(p qpair, dmax, dmin, dmaxCur float64, count int) float64 {
	// Eligibility: every object pair generated from p is certain to lie in
	// [dmin, dmaxCur].
	if p.key < dmin || dmax > dmaxCur {
		return dmaxCur
	}
	ent := &mEntry{key: pairKeyOf(p), first: firstKeyOf(p.i1), dmax: dmax, count: count}
	if est.semi {
		// First items must be unique in M; a node may enter only if it was
		// never expanded (its entries would otherwise be double counted).
		if ent.first.node && est.processed[ent.first.ref] {
			return dmaxCur
		}
		if old, ok := est.byFirst[ent.first]; ok {
			if dmax >= est.heap.Value(old).dmax {
				return dmaxCur
			}
			est.total -= est.heap.Value(old).count
			est.heap.Delete(old)
			delete(est.byFirst, ent.first)
		}
		est.byFirst[ent.first] = est.heap.Insert(ent)
	} else {
		if _, ok := est.byPair[ent.key]; ok {
			return dmaxCur // already tracked (duplicate enqueue cannot happen, but be safe)
		}
		est.byPair[ent.key] = est.heap.Insert(ent)
	}
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
	if est.semi {
		node := est.byFirst[ent.first]
		est.heap.Delete(node)
		delete(est.byFirst, ent.first)
	} else {
		node := est.byPair[ent.key]
		est.heap.Delete(node)
		delete(est.byPair, ent.key)
	}
	est.total -= ent.count
}

// onPop removes a pair retrieved from the main queue from M (§2.2.4: "when
// a pair is retrieved from the priority queue, we must also remove the pair
// from M if it is present").
func (est *estimator) onPop(p qpair) {
	if est.semi {
		fk := firstKeyOf(p.i1)
		if node, ok := est.byFirst[fk]; ok && est.heap.Value(node).key == pairKeyOf(p) {
			est.evict(est.heap.Value(node))
		}
		if p.i1.isNode() {
			est.processed[p.i1.ref] = true
		}
		return
	}
	if node, ok := est.byPair[pairKeyOf(p)]; ok {
		est.evict(est.heap.Value(node))
	}
}

// onReport accounts for a delivered result pair: one fewer is needed, and
// in semi-join mode any M pair sharing the reported first object is removed
// (§2.3).
func (est *estimator) onReport(p qpair) {
	est.remaining--
	if est.semi {
		fk := firstKeyOf(p.i1)
		if node, ok := est.byFirst[fk]; ok {
			est.evict(est.heap.Value(node))
		}
	}
}

// revEstimator implements the §2.2.5 counterpart of the maximum-distance
// estimation for reverse (farthest-first) joins: given an upper bound K on
// the number of pairs requested, it maintains the set M of pairs whose
// guaranteed result counts raise a lower bound on the distance of the K-th
// farthest pair. Pairs with the SMALLEST minimum distance are evicted when
// M over-covers K, tightening the bound to the last evicted minimum; any
// pair whose distance upper bound falls below the bound can never be among
// the K farthest and is pruned.
type revEstimator struct {
	remaining int
	total     int
	heap      *pairheap.Heap[*mEntry] // min-heap on the pair's MINIMUM distance
	byPair    map[mKey]pairheap.Handle
}

func newRevEstimator(k int) *revEstimator {
	return &revEstimator{
		remaining: k,
		heap:      pairheap.New(func(a, b *mEntry) bool { return a.dmax < b.dmax }),
		byPair:    make(map[mKey]pairheap.Handle),
	}
}

// observe considers an enqueued pair; ent.dmax is reused to carry the
// pair's MINIMUM distance (the quantity this direction orders on). It
// returns the possibly-raised lower bound dminCur.
func (est *revEstimator) observe(p qpair, dmin, dmax, dminCur, dmaxRange float64, count int) float64 {
	// Eligibility: every generated pair is certain to lie in the query
	// range and at or above the current bound is not required — only that
	// the count is guaranteed, i.e. all generated pairs respect the range
	// maximum.
	if dmax > dmaxRange || dmin < dminCur {
		// Pairs already below the bound cannot raise it (their guaranteed
		// results may fall under the K-th farthest).
		return dminCur
	}
	ent := &mEntry{key: pairKeyOf(p), dmax: dmin, count: count}
	if _, ok := est.byPair[ent.key]; ok {
		return dminCur
	}
	est.byPair[ent.key] = est.heap.Insert(ent)
	est.total += count
	for est.total > est.remaining && !est.heap.Empty() {
		low := est.heap.Min() // smallest guaranteed minimum distance
		est.evictRev(low)
		dminCur = low.dmax
	}
	return dminCur
}

func (est *revEstimator) evictRev(ent *mEntry) {
	node := est.byPair[ent.key]
	est.heap.Delete(node)
	delete(est.byPair, ent.key)
	est.total -= ent.count
}

// onPop removes a retrieved pair from M.
func (est *revEstimator) onPop(p qpair) {
	if node, ok := est.byPair[pairKeyOf(p)]; ok {
		est.evictRev(est.heap.Value(node))
	}
}

// onReport accounts for a delivered pair.
func (est *revEstimator) onReport() { est.remaining-- }
