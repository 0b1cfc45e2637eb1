package distjoin

// KClosestPairs returns the k closest (a, b) object pairs in ascending
// distance order — a one-call wrapper over the incremental join with the
// §2.2.4 maximum-distance estimation enabled. Fewer than k pairs are
// returned when the Cartesian product is smaller.
func KClosestPairs(a, b *Index, k int, opts Options) ([]Pair, error) {
	if k <= 0 {
		return nil, nil
	}
	opts.MaxPairs = k
	j, err := DistanceJoinIndexes(a.AsSpatialIndex(), b.AsSpatialIndex(), opts)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	out := make([]Pair, 0, k)
	for len(out) < k {
		p, ok, err := j.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, p)
	}
	return out, nil
}

// ClosestPair returns the single closest pair of the two inputs, and false
// when either input is empty.
func ClosestPair(a, b *Index, opts Options) (Pair, bool, error) {
	pairs, err := KClosestPairs(a, b, 1, opts)
	if err != nil || len(pairs) == 0 {
		return Pair{}, false, err
	}
	return pairs[0], true, nil
}

// WithinPairs invokes fn for every (a, b) pair within maxDist of each
// other, in ascending distance order — the spatial join with a within
// predicate (§1), computed incrementally so fn can stop the enumeration
// early by returning false.
func WithinPairs(a, b *Index, maxDist float64, opts Options, fn func(Pair) bool) error {
	opts.MaxDist = maxDist
	j, err := DistanceJoinIndexes(a.AsSpatialIndex(), b.AsSpatialIndex(), opts)
	if err != nil {
		return err
	}
	defer j.Close()
	for {
		p, ok, err := j.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if !fn(p) {
			return nil
		}
	}
}

// AllNearestNeighbors computes, for every object of idx, its nearest OTHER
// object in the same index — the classic all-nearest-neighbours operation
// the paper's introduction positions the distance join against — returned
// in ascending order of distance. The index must hold at least two objects
// for any result to exist.
func AllNearestNeighbors(idx *Index, opts Options) ([]Pair, error) {
	opts.OmitEqualIDs = true
	ix := idx.AsSpatialIndex()
	s, err := KNearestJoinIndexes(ix, ix, 1, FilterInside2, opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	out := make([]Pair, 0, idx.Len())
	for {
		p, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, p)
	}
}

// AssignNearest computes the full distance semi-join as a map from each
// first-input object to its nearest second-input partner — the clustering
// operation of §1 (a discrete Voronoi assignment for point data).
func AssignNearest(a, b *Index, opts Options) (map[ObjID]Pair, error) {
	s, err := DistanceSemiJoinIndexes(a.AsSpatialIndex(), b.AsSpatialIndex(), FilterGlobalAll, opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	out := make(map[ObjID]Pair, a.Len())
	for {
		p, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out[p.Obj1] = p
	}
}
