package distjoin_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"distjoin"
	"distjoin/internal/datagen"
)

var update = flag.Bool("update", false, "rewrite testdata/work_counters.json from this run instead of comparing against it")

// TestWorkCounters is the work-counter gate: the paper's hardware-independent
// measures (Table 1: distance calculations, queue size, node I/O) and every
// other field of the Stats snapshot must reproduce, to the unit, the numbers
// checked in as testdata/work_counters.json. The legs are deterministic —
// fixed data, sequential engines, caches dropped before each — so any
// difference is a change in what the algorithm does, never noise.
//
// A change that moves a counter on purpose rebaselines with
//
//	go test -run TestWorkCounters -update .
//
// and says in its description which numbers moved and why.
func TestWorkCounters(t *testing.T) {
	const pairs = 400
	wp, rp := datagen.Water(1998, 800), datagen.Roads(1999, 1_600)
	water, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, wp)
	if err != nil {
		t.Fatal(err)
	}
	defer water.Close()
	roads, err := distjoin.BulkIndexPoints(distjoin.IndexConfig{}, rp)
	if err != nil {
		t.Fatal(err)
	}
	defer roads.Close()

	hybrid := distjoin.Options{Queue: distjoin.QueueHybrid, HybridDT: 120, QueueStore: distjoin.NewMemPageStore}
	with := func(mutate func(*distjoin.Options)) distjoin.Options {
		o := hybrid
		mutate(&o)
		return o
	}
	window := distjoin.R(distjoin.Pt(20_000, 10_000), distjoin.Pt(90_000, 80_000))
	legs := []struct {
		name   string
		semi   bool
		filter distjoin.SemiFilter
		k      int  // partners per first object; 0 and 1: the plain semi-join
		sym    bool // with semi: the clustering join, which consumes both objects of a pair
		opts   distjoin.Options
	}{
		// The Table-1 default (Even traversal, hybrid queue) and its
		// memory-queue and Basic-traversal ablations.
		{name: "table1-even-hybrid", opts: hybrid},
		{name: "table1-even-memory", opts: distjoin.Options{Queue: distjoin.QueueMemory}},
		{name: "table1-basic-hybrid", opts: with(func(o *distjoin.Options) { o.Traversal = distjoin.TraverseBasic })},
		// Simultaneous traversal with a result bound: the estimator tightens
		// D_max, which switches the expansion onto the batched plane sweep
		// (the one leg with a non-zero BatchPruned).
		{name: "kernel-sweep-hybrid", opts: with(func(o *distjoin.Options) {
			o.Traversal = distjoin.TraverseSimultaneous
			o.MaxPairs = pairs
		})},
		{name: "semi-local-hybrid", semi: true, filter: distjoin.FilterLocal, opts: hybrid},
		// The semi-join family on the memory queue with no option set: the top
		// of the filter ladder (Local bound, GlobalNodes and GlobalAll tables)
		// and the kNN join, which degrades to Inside2.
		{name: "semi-global-memory", semi: true, filter: distjoin.FilterGlobalAll},
		{name: "knn-join-memory", semi: true, filter: distjoin.FilterGlobalAll, k: 3},
		// Two expansions the enqueue ladder decides differently from the legs
		// above: the §2.2.5 selections on the memory queue (a window on the
		// first input, a predicate on the second), and the top of the filter
		// ladder feeding the hybrid queue pair by pair.
		{name: "window-select-memory", opts: distjoin.Options{
			Window1: &window,
			Select2: func(id distjoin.ObjID) bool { return id%3 != 0 },
		}},
		{name: "semi-global-hybrid", semi: true, filter: distjoin.FilterGlobalAll, opts: hybrid},
		// What a served cursor runs: the request's max_pairs becomes MaxPairs.
		// TestServerWorkloadMatchesInProcess (internal/server) pins the HTTP
		// drain of this leg to the in-process one counted here.
		{name: "server-cursor-hybrid", opts: with(func(o *distjoin.Options) { o.MaxPairs = pairs })},
		// The hybrid queue choosing D_T from its first insertions, and
		// re-tiering what it holds once it has.
		{name: "adaptive-hybrid", opts: with(func(o *distjoin.Options) { o.HybridDT = 0 })},
		// The §2.2.4 estimation in the two orders and modes no leg above
		// runs it in: farthest-first (§2.2.5), where it raises the minimum
		// distance, and the semi-join, where M is unique on first items.
		{name: "reverse-maxpairs-memory", opts: distjoin.Options{Reverse: true, MaxPairs: pairs}},
		{name: "semi-maxpairs-memory", semi: true, filter: distjoin.FilterGlobalAll, opts: distjoin.Options{MaxPairs: pairs}},
		// A selection keeping 1 object in 25 of the second input: a node of
		// that input guarantees no pair, so M counts only what can be
		// reported, the raised minimum distance never overshoots, and the run
		// does the distance calculations and expansions of the same join
		// without MaxPairs.
		{name: "reverse-select-maxpairs-memory", opts: distjoin.Options{
			Reverse:  true,
			MaxPairs: pairs,
			Select2:  func(id distjoin.ObjID) bool { return id%25 == 0 },
		}},
		// The clustering join of [32] in bounding-rectangle mode: a reported
		// pair consumes both of its objects, and on the Inside1 rung a queued
		// pair whose second object is consumed is dropped at pop, before its
		// exact distance is asked for.
		{name: "clustering-inside1-obr-memory", semi: true, sym: true, filter: distjoin.FilterInside1, opts: distjoin.Options{
			ExactDist: func(a, b distjoin.ObjID) (float64, error) { return distjoin.Euclidean.Dist(wp[a], rp[b]), nil },
		}},
		// A plain join in bounding-rectangle mode whose ExactDist hook lies
		// up to 160 beyond the point distance, bounded by MaxPairs: the
		// rectangles' MINMAXDIST does not bound what the hook returns, so no
		// estimator runs, and the run does the work of the same join without
		// MaxPairs.
		{name: "obr-exactdist-maxpairs-memory", opts: distjoin.Options{
			MaxPairs: pairs,
			ExactDist: func(a, b distjoin.ObjID) (float64, error) {
				return distjoin.Euclidean.Dist(wp[a], rp[b]) + float64(40*((7*a+13*b)%5)), nil
			},
		}},
		// The clustering join bounded by MaxPairs on the bottom rung of the
		// filter ladder: a consumed second object can break any first item's
		// count, so no estimator runs, and the run does the work of the same
		// join without MaxPairs.
		{name: "clustering-outside-maxpairs-memory", semi: true, sym: true, filter: distjoin.FilterOutside, opts: distjoin.Options{MaxPairs: pairs}},
	}

	got := make(map[string]distjoin.Stats, len(legs))
	for _, leg := range legs {
		if err := water.Tree().DropCache(); err != nil {
			t.Fatal(err)
		}
		if err := roads.Tree().DropCache(); err != nil {
			t.Fatal(err)
		}
		c := &distjoin.Stats{}
		water.SetCounters(c)
		roads.SetCounters(c)
		opts := leg.opts
		opts.Counters = c

		var next func() (distjoin.Pair, bool, error)
		var closeFn func() error
		if leg.semi {
			open := func(a, b distjoin.SpatialIndex, f distjoin.SemiFilter, o distjoin.Options) (*distjoin.Join, error) {
				return distjoin.KNearestJoinIndexes(a, b, max(leg.k, 1), f, o)
			}
			if leg.sym {
				open = distjoin.ClusteringJoinIndexes
			}
			s, err := open(water.AsSpatialIndex(), roads.AsSpatialIndex(), leg.filter, opts)
			if err != nil {
				t.Fatalf("%s: %v", leg.name, err)
			}
			next, closeFn = s.Next, s.Close
		} else {
			j, err := distjoin.DistanceJoinIndexes(water.AsSpatialIndex(), roads.AsSpatialIndex(), opts)
			if err != nil {
				t.Fatalf("%s: %v", leg.name, err)
			}
			next, closeFn = j.Next, j.Close
		}
		for n := 0; n < pairs; n++ {
			if _, ok, err := next(); err != nil || !ok {
				t.Fatalf("%s: pair %d: ok=%v err=%v", leg.name, n+1, ok, err)
			}
		}
		if err := closeFn(); err != nil {
			t.Fatalf("%s: close: %v", leg.name, err)
		}
		got[leg.name] = c.Snapshot()
	}

	golden := filepath.Join("testdata", "work_counters.json")
	if *update {
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]distjoin.Stats
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d legs, the test runs %d", golden, len(want), len(got))
	}
	for _, leg := range legs {
		if got[leg.name] != want[leg.name] {
			t.Errorf("%s: work counters moved\n got %+v\nwant %+v", leg.name, got[leg.name], want[leg.name])
		}
	}
}
