package meter_test

import (
	"math/rand"
	"testing"
	"time"

	"distjoin/internal/distjoin"
	"distjoin/internal/geom"
	"distjoin/internal/meter"
	"distjoin/internal/obs"
	"distjoin/internal/rtree"
)

// randomTree bulk-loads n random points into a small-node R-tree.
func randomTree(t *testing.T, seed int64, n int) distjoin.SpatialIndex {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	items := make([]rtree.Item, n)
	for i := range items {
		items[i] = rtree.Item{Rect: geom.Pt(rnd.Float64()*1000, rnd.Float64()*1000).Rect(), Obj: rtree.ObjID(i)}
	}
	tr, err := rtree.BulkLoad(rtree.Config{Dims: 2, PageSize: 512, BufferFrames: 32}, items)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return distjoin.WrapRTree(tr)
}

// TestClockReadBudget runs a join with every timing view attached on a
// clock that advances 1µs per read, and counts the reads of each Next call:
// a step that pops and reports reads the clock at most 3 times, each
// expansion in it at most 3 more, and Recorder.Emit reads none of its own —
// its pop-to-emit latencies are exactly the step walls the meter's reads
// bound. The phase times sum to the steps' walls.
func TestClockReadBudget(t *testing.T) {
	a, b := randomTree(t, 1, 400), randomTree(t, 2, 400)
	var reads int
	var elapsed time.Duration
	t.Cleanup(meter.SetClock(func(time.Time) time.Duration {
		reads++
		elapsed += time.Microsecond
		return elapsed
	}))
	counters, spans, rec := &meter.Counters{}, &meter.Spans{}, obs.New(obs.Config{})
	j, err := distjoin.NewJoinIndexes(a, b, distjoin.Options{MaxPairs: 300, Counters: counters, Profile: spans, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	var wall, emitWall, pairs, expansions int64
	for {
		before, expBefore := reads, counters.Snapshot().Expansions
		_, ok, err := j.Next()
		if err != nil {
			t.Fatal(err)
		}
		n, exp := int64(reads-before), counters.Snapshot().Expansions-expBefore
		if limit := 3 + 3*exp; n > limit {
			t.Fatalf("Next call %d read the clock %d times over %d expansions, budget %d", pairs+1, n, exp, limit)
		}
		wall += n - 1 // the first read opens the step, each later one closes a slice
		expansions += exp
		if !ok {
			break
		}
		pairs++
		emitWall += n - 1
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if pairs != 300 || expansions == 0 {
		t.Fatalf("drained %d pairs over %d expansions, want 300 over some", pairs, expansions)
	}
	if got := spans.Tally().TotalNS(); got != wall*int64(time.Microsecond) {
		t.Errorf("phases sum to %v, the steps' walls to %v", time.Duration(got), time.Duration(wall)*time.Microsecond)
	}
	s := rec.Snapshot()
	if want := time.Duration(emitWall) * time.Microsecond / time.Duration(pairs); s.PopToEmit.Count != pairs ||
		time.Duration(s.PopToEmit.MeanS*1e9+0.5) != want {
		t.Errorf("pop-to-emit: %d observations of mean %gs, want %d of the meter's %v", s.PopToEmit.Count, s.PopToEmit.MeanS, pairs, want)
	}
}

// TestInterPairDelayIsPerQuery runs two short joins one after the other on
// one Recorder, with a 50 ms pause between them on a clock that otherwise
// advances 1µs per read. The inter-pair delay is a query's own: n₁ + n₂ − 2
// delays are recorded (each query's first pair has no predecessor), and
// none of them spans the pause — with the Recorder alone (its own stamps)
// and with a timing view attached (the phase clock's stamps).
func TestInterPairDelayIsPerQuery(t *testing.T) {
	a, b := randomTree(t, 3, 300), randomTree(t, 4, 300)
	var elapsed time.Duration
	t.Cleanup(meter.SetClock(func(time.Time) time.Duration {
		elapsed += time.Microsecond
		return elapsed
	}))
	const pause = 50 * time.Millisecond
	for _, timed := range []bool{false, true} {
		rec := obs.New(obs.Config{})
		opts := distjoin.Options{Obs: rec}
		if timed {
			opts.Profile = &meter.Spans{}
		}
		var pairs int64
		for _, n := range []int{5, 7} {
			opts.MaxPairs = n
			j, err := distjoin.NewJoinIndexes(a, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, ok, err := j.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				pairs++
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			elapsed += pause
		}
		d := rec.Snapshot().InterPairDelay
		if pairs != 12 || d.Count != pairs-2 {
			t.Errorf("timed=%v: %d delays over %d pairs in two queries, want %d", timed, d.Count, pairs, pairs-2)
		}
		if sum := time.Duration(d.MeanS * float64(d.Count) * 1e9); sum >= pause {
			t.Errorf("timed=%v: the delays sum to %v, so one spans the %v between the queries", timed, sum, pause)
		}
	}
}
