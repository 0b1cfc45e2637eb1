package distjoin

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
	"distjoin/internal/stats"
)

// The deprecated Options.Parallelism is ignored: every join runs on one
// engine. The tests below pin that setting it changes nothing — not the
// pairs, not the work counters, not how a run ends or closes — over the
// operators, indexes and options a partitioned execution would have to
// split.

// drainAll pulls every pair from a Join.
func drainAll(t testing.TB, j *Join) []Pair {
	t.Helper()
	var out []Pair
	for {
		p, ok, err := j.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

// sameWithParallelism drains open once without and once with Parallelism p
// and fails unless both runs deliver the same pairs and the same work
// counters. It returns the pairs.
func sameWithParallelism(t *testing.T, label string, open func(Options) (*Join, error), opts Options, p int) []Pair {
	t.Helper()
	run := func(opts Options) ([]Pair, stats.Counters) {
		var c stats.Counters
		opts.Counters = &c
		j, err := open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		return drainAll(t, j), c.Snapshot()
	}
	opts.Parallelism = 0
	want, wantC := run(opts)
	opts.Parallelism = p
	got, gotC := run(opts)
	if !reflect.DeepEqual(got, want) || gotC != wantC {
		t.Errorf("%s: Parallelism %d changed the run: %d pairs, counters %+v; without it %d pairs, %+v",
			label, p, len(got), gotC, len(want), wantC)
	}
	return got
}

// TestPropParallelJoinMatchesSequential: across random datasets, metrics,
// queue kinds, orderings, distance ranges and MaxPairs values, a join with
// Parallelism set is the join without it.
func TestPropParallelJoinMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		na, nb := 30+rnd.Intn(170), 30+rnd.Intn(170)
		ta := WrapRTree(buildTree(t, clusteredPoints(seed*3+1, na)))
		tb := WrapRTree(buildTree(t, clusteredPoints(seed*3+2, nb)))

		opts := Options{
			Traversal: Traversal(rnd.Intn(3)),
			TieBreak:  TieBreak(rnd.Intn(2)),
		}
		if rnd.Intn(2) == 0 {
			opts.Metric = geom.Manhattan
		}
		switch rnd.Intn(4) {
		case 0:
			opts.MaxPairs = 1
		case 1:
			opts.MaxPairs = 1 + rnd.Intn(50)
		case 2:
			opts.MaxPairs = na * nb / 2
		}
		if rnd.Intn(3) == 0 {
			opts.MaxDist = 50 + rnd.Float64()*300
		}
		if rnd.Intn(4) == 0 {
			opts.MinDist = rnd.Float64() * 40
			if opts.MaxDist != 0 && opts.MaxDist < opts.MinDist {
				opts.MaxDist = opts.MinDist + 100
			}
		}
		if rnd.Intn(3) == 0 {
			opts.Queue = QueueHybrid
			opts.QueueStore = memQueueStore
		}
		if opts.Queue == QueueMemory && rnd.Intn(4) == 0 {
			opts.Reverse = true
		}
		open := func(o Options) (*Join, error) { return NewJoinIndexes(ta, tb, o) }
		sameWithParallelism(t, "join", open, opts, 2+rnd.Intn(7))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropParallelSemiJoinMatchesSequential is the same property for the
// distance semi-join and the k-nearest-neighbours join across the filtering
// ladder; an unrestricted drain reports k pairs for each first object.
func TestPropParallelSemiJoinMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		na, nb := 30+rnd.Intn(120), 30+rnd.Intn(120)
		ta := WrapRTree(buildTree(t, clusteredPoints(seed*7+1, na)))
		tb := WrapRTree(buildTree(t, clusteredPoints(seed*7+2, nb)))

		filter := SemiFilter(rnd.Intn(6))
		k := 1 + rnd.Intn(2)
		opts := Options{Traversal: Traversal(rnd.Intn(3))}
		if rnd.Intn(2) == 0 {
			opts.Metric = geom.Manhattan
		}
		if rnd.Intn(3) == 0 {
			opts.MaxPairs = 1 + rnd.Intn(na)
		}
		if rnd.Intn(4) == 0 {
			opts.MaxDist = 100 + rnd.Float64()*400
		}
		open := func(o Options) (*Join, error) { return NewKNearestJoinIndexes(ta, tb, k, filter, o) }
		got := sameWithParallelism(t, "semi-join", open, opts, 2+rnd.Intn(7))
		if opts.MaxPairs == 0 && opts.MaxDist == 0 && len(got) != na*k {
			t.Errorf("unrestricted drain: %d pairs, want %d", len(got), na*k)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestParallelSemiMergeEndsAtLimit: a semi-join with Parallelism set ends
// when its last first object is reported, like the one without it — the
// same pairs and the same work, so no tail of pops runs after the last
// pair.
func TestParallelSemiMergeEndsAtLimit(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(301, 300)))
	tb := WrapRTree(buildTree(t, clusteredPoints(302, 800)))
	for _, filter := range []SemiFilter{FilterInside2, FilterLocal, FilterGlobalAll} {
		open := func(o Options) (*Join, error) { return NewSemiJoinIndexes(ta, tb, filter, o) }
		if got := sameWithParallelism(t, filter.String(), open, Options{}, 2); len(got) != 300 {
			t.Errorf("%s: %d pairs, want one per first object (300)", filter, len(got))
		}
	}
}

// TestParallelQuadtreeMatchesSequential is the property over quadtrees on
// both sides and mixed with an R-tree.
func TestParallelQuadtreeMatchesSequential(t *testing.T) {
	a := clusteredPoints(401, 150)
	b := clusteredPoints(402, 150)
	taR, tbR := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	taQ, tbQ := WrapQuadtree(buildQuadtree(t, a)), WrapQuadtree(buildQuadtree(t, b))
	for _, tc := range []struct {
		name   string
		i1, i2 SpatialIndex
	}{
		{"quad-quad", taQ, tbQ},
		{"rtree-quad", taR, tbQ},
		{"quad-rtree", taQ, tbR},
	} {
		open := func(o Options) (*Join, error) { return NewJoinIndexes(tc.i1, tc.i2, o) }
		sameWithParallelism(t, tc.name, open, Options{}, 4)
	}
}

// TestParallelFallbacks covers the configurations no partitioning could
// split: OBR mode, the symmetric clustering join, tiny inputs and empty
// inputs.
func TestParallelFallbacks(t *testing.T) {
	a := clusteredPoints(501, 80)
	b := clusteredPoints(502, 80)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))

	t.Run("obr", func(t *testing.T) {
		opts := Options{
			Fetch1: func(id rtree.ObjID) (geom.Rect, error) { return a[id].Rect(), nil },
			Fetch2: func(id rtree.ObjID) (geom.Rect, error) { return b[id].Rect(), nil },
		}
		sameWithParallelism(t, "obr", func(o Options) (*Join, error) { return NewJoinIndexes(ta, tb, o) }, opts, 4)
	})
	t.Run("clustering", func(t *testing.T) {
		open := func(o Options) (*Join, error) { return NewClusteringJoinIndexes(ta, tb, FilterInside2, o) }
		sameWithParallelism(t, "clustering", open, Options{}, 4)
	})
	t.Run("tiny", func(t *testing.T) {
		tt := WrapRTree(buildTree(t, clusteredPoints(503, 2)))
		open := func(o Options) (*Join, error) { return NewJoinIndexes(tt, tt, o) }
		if got := sameWithParallelism(t, "tiny", open, Options{OmitEqualIDs: true}, 8); len(got) != 2 {
			t.Fatalf("tiny self join reported %d pairs, want 2", len(got))
		}
	})
	t.Run("empty", func(t *testing.T) {
		te := WrapRTree(buildTree(t, nil))
		open := func(o Options) (*Join, error) { return NewJoinIndexes(te, tb, o) }
		if got := sameWithParallelism(t, "empty", open, Options{}, 4); len(got) != 0 {
			t.Fatalf("empty join reported %d pairs", len(got))
		}
	})
}

// TestParallelEarlyClose closes a join with Parallelism set mid-stream:
// Close is clean and idempotent, and Next after it reports nothing.
func TestParallelEarlyClose(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(601, 400)))
	tb := WrapRTree(buildTree(t, clusteredPoints(602, 400)))
	for i := 0; i < 10; i++ {
		j, err := NewJoinIndexes(ta, tb, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 3; n++ {
			if _, ok, err := j.Next(); err != nil || !ok {
				t.Fatalf("next %d: ok=%v err=%v", n, ok, err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := j.Next(); ok {
			t.Fatal("Next returned a pair after Close")
		}
	}
}

// TestParallelCounters: a fully drained join with Parallelism set accounts
// every reported pair, in the counters and in Reported, and its counters
// equal the run's without it.
func TestParallelCounters(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(701, 120)))
	tb := WrapRTree(buildTree(t, clusteredPoints(702, 120)))
	open := func(o Options) (*Join, error) { return NewJoinIndexes(ta, tb, o) }
	if got := sameWithParallelism(t, "join", open, Options{}, 4); len(got) != 120*120 {
		t.Fatalf("reported %d pairs, want %d", len(got), 120*120)
	}
	var c stats.Counters
	j, err := NewJoinIndexes(ta, tb, Options{Parallelism: 4, Counters: &c})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := drainAll(t, j)
	if s := c.Snapshot(); s.PairsReported != int64(len(got)) || j.Reported() != len(got) {
		t.Errorf("PairsReported = %d, Reported() = %d, want %d", s.PairsReported, j.Reported(), len(got))
	}
}

// TestParallelRaceStress drives several joins with Parallelism set
// concurrently over the same trees — all of them hammer the same two buffer
// pools — to give the race detector something to chew on; each must report
// what the join reports alone.
func TestParallelRaceStress(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(801, 200)))
	tb := WrapRTree(buildTree(t, clusteredPoints(802, 200)))
	j, err := NewJoinIndexes(ta, tb, Options{MaxPairs: 500})
	if err != nil {
		t.Fatal(err)
	}
	want := drainAll(t, j)
	j.Close()

	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			j, err := NewJoinIndexes(ta, tb, Options{Parallelism: 3 + g, MaxPairs: 500})
			if err != nil {
				done <- err
				return
			}
			defer j.Close()
			for n := 0; ; n++ {
				p, ok, err := j.Next()
				if err != nil || !ok {
					done <- err
					return
				}
				if !reflect.DeepEqual(p, want[n]) {
					t.Errorf("goroutine %d: pair %d differs", g, n)
					done <- nil
					return
				}
			}
		}(g)
	}
	deadline := time.After(testTimeout)
	for g := 0; g < 4; g++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("concurrent joins still running after %v (%d goroutines)", testTimeout, runtime.NumGoroutine())
		}
	}
}
