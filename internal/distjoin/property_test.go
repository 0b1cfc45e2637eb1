package distjoin

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
)

// TestPropJoinPrefixCorrect draws random datasets, random option
// combinations and a random prefix length, and checks the incremental join
// against brute force. This is the central correctness property of the
// paper: for ANY configuration, the k-th reported pair is the k-th closest.
func TestPropJoinPrefixCorrect(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		na, nb := 20+rnd.Intn(120), 20+rnd.Intn(120)
		a, b := clusteredPoints(seed*2+1, na), clusteredPoints(seed*2+2, nb)

		items := func(pts []geom.Point) []rtree.Item {
			out := make([]rtree.Item, len(pts))
			for i, p := range pts {
				out[i] = rtree.Item{Rect: p.Rect(), Obj: rtree.ObjID(i)}
			}
			return out
		}
		cfg := rtree.Config{Dims: 2, PageSize: 512, BufferFrames: 32}
		var ta, tb *rtree.Tree
		var err error
		// Randomly mix bulk-loaded and insert-built trees.
		if rnd.Intn(2) == 0 {
			ta, err = rtree.BulkLoad(cfg, items(a))
		} else {
			ta, err = rtree.New(cfg)
			if err == nil {
				for i, p := range a {
					if err = ta.InsertPoint(p, rtree.ObjID(i)); err != nil {
						break
					}
				}
			}
		}
		if err != nil {
			return false
		}
		defer ta.Close()
		tb, err = rtree.BulkLoad(cfg, items(b))
		if err != nil {
			return false
		}
		defer tb.Close()

		opts := Options{
			Traversal: Traversal(rnd.Intn(3)),
			TieBreak:  TieBreak(rnd.Intn(2)),
		}
		if rnd.Intn(3) == 0 {
			opts.Queue = QueueHybrid
			opts.QueueStore = memQueueStore
			opts.HybridDT = 10 + rnd.Float64()*100
		}
		if rnd.Intn(3) == 0 {
			opts.MaxPairs = 1 + rnd.Intn(200)
		}

		j, err := NewJoinIndexes(WrapRTree(ta), WrapRTree(tb), opts)
		if err != nil {
			return false
		}
		defer j.Close()

		want := bruteJoin(a, b, geom.Euclidean)
		limit := 1 + rnd.Intn(500)
		if opts.MaxPairs > 0 && opts.MaxPairs < limit {
			limit = opts.MaxPairs
		}
		count := 0
		for count < limit {
			p, ok, err := j.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			if math.Abs(p.Dist-want[count].d) > 1e-9 {
				return false
			}
			count++
		}
		wantCount := limit
		if len(want) < wantCount {
			wantCount = len(want)
		}
		return count == wantCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropSemiJoinAllFilters checks that every filtering strategy produces
// exactly the brute-force semi-join on random inputs, including with a
// random MaxPairs bound.
func TestPropSemiJoinAllFilters(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		na, nb := 10+rnd.Intn(80), 10+rnd.Intn(80)
		a, b := clusteredPoints(seed*3+1, na), clusteredPoints(seed*3+2, nb)
		items := func(pts []geom.Point) []rtree.Item {
			out := make([]rtree.Item, len(pts))
			for i, p := range pts {
				out[i] = rtree.Item{Rect: p.Rect(), Obj: rtree.ObjID(i)}
			}
			return out
		}
		cfg := rtree.Config{Dims: 2, PageSize: 512, BufferFrames: 32}
		ta, err := rtree.BulkLoad(cfg, items(a))
		if err != nil {
			return false
		}
		defer ta.Close()
		tb, err := rtree.BulkLoad(cfg, items(b))
		if err != nil {
			return false
		}
		defer tb.Close()

		filter := allFilters[rnd.Intn(len(allFilters))]
		opts := Options{}
		if rnd.Intn(3) == 0 {
			opts.MaxPairs = 1 + rnd.Intn(na)
		}
		s, err := NewSemiJoinIndexes(WrapRTree(ta), WrapRTree(tb), filter, opts)
		if err != nil {
			return false
		}
		defer s.Close()

		want := bruteSemiJoin(a, b, geom.Euclidean)
		limit := len(want)
		if opts.MaxPairs > 0 && opts.MaxPairs < limit {
			limit = opts.MaxPairs
		}
		count := 0
		seen := map[uint64]bool{}
		for {
			p, ok, err := s.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			if seen[uint64(p.Obj1)] {
				return false // duplicate first object
			}
			seen[uint64(p.Obj1)] = true
			if math.Abs(p.Dist-want[count].d) > 1e-9 {
				return false
			}
			count++
		}
		return count == limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropDmaxConsistency: the engine's d_max bound must never be below the
// exact distance of any object pair drawn from the two items' regions —
// verified here for node/node and node/point combinations.
func TestPropDmaxConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		mkRect := func() geom.Rect {
			x, y := rnd.Float64()*100, rnd.Float64()*100
			return geom.R(geom.Pt(x, y), geom.Pt(x+rnd.Float64()*30, y+rnd.Float64()*30))
		}
		e := &engine{opts: Options{Metric: geom.Euclidean}}
		a := newItem(kindNode, 0, 0, mkRect())
		bPt := geom.Pt(rnd.Float64()*100, rnd.Float64()*100)
		b := newItem(kindObj, 0, 0, bPt.Rect())
		bound := e.maxDist(a, b)
		// Every point inside a's region must be within bound of the point b.
		for k := 0; k < 20; k++ {
			p := geom.Pt(
				a.rect().Lo[0]+rnd.Float64()*(a.rect().Hi[0]-a.rect().Lo[0]),
				a.rect().Lo[1]+rnd.Float64()*(a.rect().Hi[1]-a.rect().Lo[1]))
			if geom.Euclidean.Dist(p, bPt) > bound+1e-9 {
				return false
			}
		}
		// node/node: MaxDist bounds all cross pairs.
		c := newItem(kindNode, 0, 0, mkRect())
		nb := e.maxDist(a, c)
		for k := 0; k < 20; k++ {
			p := geom.Pt(
				a.rect().Lo[0]+rnd.Float64()*(a.rect().Hi[0]-a.rect().Lo[0]),
				a.rect().Lo[1]+rnd.Float64()*(a.rect().Hi[1]-a.rect().Lo[1]))
			q := geom.Pt(
				c.rect().Lo[0]+rnd.Float64()*(c.rect().Hi[0]-c.rect().Lo[0]),
				c.rect().Lo[1]+rnd.Float64()*(c.rect().Hi[1]-c.rect().Lo[1]))
			if geom.Euclidean.Dist(p, q) > nb+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
