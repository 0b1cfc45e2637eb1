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

// comparePairs asserts two result streams are identical, field for field.
func comparePairs(t *testing.T, seq, par []Pair, label string) bool {
	t.Helper()
	if len(seq) != len(par) {
		t.Errorf("%s: sequential reported %d pairs, parallel %d", label, len(seq), len(par))
		return false
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("%s: pair %d differs:\n  sequential %+v\n  parallel   %+v", label, i, seq[i], par[i])
			return false
		}
	}
	return true
}

// TestPropParallelJoinMatchesSequential is the tentpole equivalence
// property: across random datasets, partition counts, metrics, queue
// kinds, orderings and MaxPairs values, the parallel join's output must be
// identical — order and all fields — to the sequential iterator's.
func TestPropParallelJoinMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		na, nb := 30+rnd.Intn(170), 30+rnd.Intn(170)
		a := clusteredPoints(seed*3+1, na)
		b := clusteredPoints(seed*3+2, nb)
		ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))

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

		seqOpts := opts
		seqOpts.Parallelism = 1
		js, err := NewJoinIndexes(ta, tb, seqOpts)
		if err != nil {
			t.Fatal(err)
		}
		seq := drainAll(t, js)
		js.Close()

		parOpts := opts
		parOpts.Parallelism = 2 + rnd.Intn(7)
		jp, err := NewJoinIndexes(ta, tb, parOpts)
		if err != nil {
			t.Fatal(err)
		}
		par := drainAll(t, jp)
		jp.Close()

		return comparePairs(t, seq, par, "join")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropParallelSemiJoinMatchesSequential is the same equivalence for
// the distance semi-join and the k-nearest-neighbours join, across the
// filtering ladder. The parallel run must also end: an unrestricted drain
// stops at the last first object's k-th pair, and no partition worker
// outlives Close.
func TestPropParallelSemiJoinMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		na, nb := 30+rnd.Intn(120), 30+rnd.Intn(120)
		a := clusteredPoints(seed*7+1, na)
		b := clusteredPoints(seed*7+2, nb)
		ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))

		filter := SemiFilter(rnd.Intn(6))
		k := 1 + rnd.Intn(2)
		opts := Options{
			Traversal: Traversal(rnd.Intn(3)),
		}
		if rnd.Intn(2) == 0 {
			opts.Metric = geom.Manhattan
		}
		if rnd.Intn(3) == 0 {
			opts.MaxPairs = 1 + rnd.Intn(na)
		}
		if rnd.Intn(4) == 0 {
			opts.MaxDist = 100 + rnd.Float64()*400
		}

		seqOpts := opts
		ss, err := NewKNearestJoinIndexes(ta, tb, k, filter, seqOpts)
		if err != nil {
			t.Fatal(err)
		}
		seq := drainAll(t, ss)
		ss.Close()

		parOpts := opts
		parOpts.Parallelism = 2 + rnd.Intn(7)
		before := runtime.NumGoroutine()
		sp, err := NewKNearestJoinIndexes(ta, tb, k, filter, parOpts)
		if err != nil {
			t.Fatal(err)
		}
		if pj, ok := sp.r.(*parallelJoin); ok && opts.MaxPairs == 0 && pj.limit != na*k {
			t.Errorf("the merge ends after %d pairs, want %d (k for each first object)", pj.limit, na*k)
		}
		par := drainAll(t, sp)
		if _, ok, err := sp.Next(); ok || err != nil {
			t.Fatalf("Next after the end: ok %v, err %v", ok, err)
		}
		sp.Close()
		if opts.MaxPairs == 0 && opts.MaxDist == 0 && len(par) != na*k {
			t.Errorf("unrestricted parallel drain: %d pairs, want %d", len(par), na*k)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Close, %d before the join opened", runtime.NumGoroutine(), before)
			}
		}

		return comparePairs(t, seq, par, "semi-join")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestParallelSemiMergeEndsAtLimit: once the merge delivers the pair that
// reaches its limit — for a semi-join, k pairs for every first object — it
// ends the run without waiting for any stream's next head. Stream b stays
// open and empty, as a partition still working after its last pair does;
// a pull from it would block.
func TestParallelSemiMergeEndsAtLimit(t *testing.T) {
	a := &parWorker{out: make(chan parResult, 2)}
	b := &parWorker{out: make(chan parResult, 2)}
	a.out <- parResult{pair: Pair{Obj1: 1, Dist: 1}}
	a.out <- parResult{pair: Pair{Obj1: 3, Dist: 3}}
	b.out <- parResult{pair: Pair{Obj1: 2, Dist: 2}}
	r := &parallelJoin{workers: []*parWorker{a, b}, limit: 2, done: make(chan struct{})}
	got := make(chan []Pair, 1)
	go func() {
		var out []Pair
		for {
			p, ok, err := r.merge()
			if err != nil || !ok {
				got <- out
				return
			}
			out = append(out, p)
		}
	}()
	select {
	case out := <-got:
		if len(out) != 2 || out[0].Obj1 != 1 || out[1].Obj1 != 2 {
			t.Fatalf("merged %+v, want objects 1 and 2", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the merge waited on a stream after its last pair")
	}
}

// TestParallelQuadtreeMatchesSequential checks the parallel path over
// non-R-tree indexes (quadtree on both sides, and mixed).
func TestParallelQuadtreeMatchesSequential(t *testing.T) {
	a := clusteredPoints(401, 150)
	b := clusteredPoints(402, 150)
	taR, tbR := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	taQ, tbQ := buildQuadtree(t, a), buildQuadtree(t, b)

	cases := []struct {
		name   string
		i1, i2 SpatialIndex
	}{
		{"quad-quad", WrapQuadtree(taQ), WrapQuadtree(tbQ)},
		{"rtree-quad", taR, WrapQuadtree(tbQ)},
		{"quad-rtree", WrapQuadtree(taQ), tbR},
	}
	for _, tc := range cases {
		js, err := NewJoinIndexes(tc.i1, tc.i2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq := drainAll(t, js)
		js.Close()

		jp, err := NewJoinIndexes(tc.i1, tc.i2, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		par := drainAll(t, jp)
		jp.Close()
		comparePairs(t, seq, par, tc.name)
	}
}

// TestParallelFallbacks exercises the configurations that must silently
// fall back to the sequential engine: OBR mode, the symmetric clustering
// join, tiny inputs, and empty inputs.
func TestParallelFallbacks(t *testing.T) {
	a := clusteredPoints(501, 80)
	b := clusteredPoints(502, 80)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))

	t.Run("obr", func(t *testing.T) {
		fetch1 := func(id rtree.ObjID) (geom.Rect, error) { return a[id].Rect(), nil }
		fetch2 := func(id rtree.ObjID) (geom.Rect, error) { return b[id].Rect(), nil }
		js, err := NewJoinIndexes(ta, tb, Options{Fetch1: fetch1, Fetch2: fetch2})
		if err != nil {
			t.Fatal(err)
		}
		seq := drainAll(t, js)
		js.Close()
		jp, err := NewJoinIndexes(ta, tb, Options{Fetch1: fetch1, Fetch2: fetch2, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		par := drainAll(t, jp)
		jp.Close()
		comparePairs(t, seq, par, "obr")
	})

	t.Run("clustering", func(t *testing.T) {
		ss, err := NewClusteringJoinIndexes(ta, tb, FilterInside2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq := drainAll(t, ss)
		ss.Close()
		sp, err := NewClusteringJoinIndexes(ta, tb, FilterInside2, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		par := drainAll(t, sp)
		sp.Close()
		comparePairs(t, seq, par, "clustering")
	})

	t.Run("tiny", func(t *testing.T) {
		tt := WrapRTree(buildTree(t, clusteredPoints(503, 2)))
		jp, err := NewJoinIndexes(tt, tt, Options{Parallelism: 8, OmitEqualIDs: true})
		if err != nil {
			t.Fatal(err)
		}
		got := drainAll(t, jp)
		jp.Close()
		if len(got) != 2 {
			t.Fatalf("tiny self join reported %d pairs, want 2", len(got))
		}
	})

	t.Run("empty", func(t *testing.T) {
		te := WrapRTree(buildTree(t, nil))
		jp, err := NewJoinIndexes(te, tb, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := drainAll(t, jp); len(got) != 0 {
			t.Fatalf("empty join reported %d pairs", len(got))
		}
		jp.Close()
	})
}

// TestParallelEarlyClose closes a parallel join mid-stream; the workers
// must shut down cleanly (verified by -race and the goroutine leak this
// would otherwise produce under repeated runs).
func TestParallelEarlyClose(t *testing.T) {
	a := clusteredPoints(601, 400)
	b := clusteredPoints(602, 400)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
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
		// Close is idempotent, and Next after Close reports exhaustion.
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := j.Next(); ok {
			t.Fatal("Next returned a pair after Close")
		}
	}
}

// TestParallelCounters checks that per-worker counter shards merge into
// the caller's Counters: a fully drained parallel join must account every
// reported pair and some distance work.
func TestParallelCounters(t *testing.T) {
	a := clusteredPoints(701, 120)
	b := clusteredPoints(702, 120)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))
	var c stats.Counters
	j, err := NewJoinIndexes(ta, tb, Options{Parallelism: 4, Counters: &c})
	if err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, j)
	j.Close()
	if len(got) != 120*120 {
		t.Fatalf("reported %d pairs, want %d", len(got), 120*120)
	}
	s := c.Snapshot()
	if s.PairsReported != int64(len(got)) {
		t.Errorf("PairsReported = %d, want %d", s.PairsReported, len(got))
	}
	if s.DistCalcs == 0 || s.QueueInserts == 0 || s.MaxQueueSize == 0 {
		t.Errorf("counters not merged from workers: %+v", s)
	}
	if j.Reported() != len(got) {
		t.Errorf("Reported() = %d, want %d", j.Reported(), len(got))
	}
}

// TestParallelRaceStress drives several parallel joins concurrently over
// the same trees — partition workers of all of them hammer the same two
// buffer pools — to give the race detector something to chew on.
func TestParallelRaceStress(t *testing.T) {
	a := clusteredPoints(801, 200)
	b := clusteredPoints(802, 200)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))

	var want []Pair
	{
		j, err := NewJoinIndexes(ta, tb, Options{MaxPairs: 500})
		if err != nil {
			t.Fatal(err)
		}
		want = drainAll(t, j)
		j.Close()
	}

	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			j, err := NewJoinIndexes(ta, tb, Options{Parallelism: 3 + g, MaxPairs: 500})
			if err != nil {
				done <- err
				return
			}
			defer j.Close()
			var n int
			for {
				p, ok, err := j.Next()
				if err != nil {
					done <- err
					return
				}
				if !ok {
					break
				}
				if !reflect.DeepEqual(p, want[n]) {
					t.Errorf("goroutine %d: pair %d differs", g, n)
					done <- nil
					return
				}
				n++
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
