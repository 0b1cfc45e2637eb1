package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"distjoin"
	"distjoin/internal/datagen"
)

// TestServerWorkloadMatchesInProcess is the cursor-layer-invariance check:
// draining a query through the HTTP cursor service in fixed 128-pair pulls
// must leave every work counter of the server's Recorder exactly equal to
// the in-process drain with the same MaxPairs — the service may add
// transport time, never work. The join row is the "server-cursor-hybrid"
// leg of the root package's TestWorkCounters (same data, options and pair
// target), which pins its numbers.
func TestServerWorkloadMatchesInProcess(t *testing.T) {
	const pairs, batch = 400, 128
	water := distjoin.NewIndexFromPoints(datagen.Water(1998, 800))
	defer water.Close()
	roads := distjoin.NewIndexFromPoints(datagen.Roads(1999, 1_600))
	defer roads.Close()
	hybrid := distjoin.Options{Queue: distjoin.QueueHybrid, HybridDT: 120, QueueStore: distjoin.NewMemPageStore}

	dropCaches := func(t *testing.T) {
		t.Helper()
		for _, idx := range []*distjoin.Index{water, roads} {
			if err := idx.Tree().DropCache(); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, tc := range []struct {
		kind string
		req  QueryRequest
	}{
		{"join", QueryRequest{Kind: "join"}},
		{"semi", QueryRequest{Kind: "semijoin", Filter: "local"}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			req := tc.req
			req.Index1, req.Index2, req.MaxPairs = "water", "roads", pairs

			// The served drain. NewServer attaches served to both indexes' pools.
			dropCaches(t)
			served := distjoin.NewRecorder(distjoin.ObsConfig{})
			reg := NewRegistry()
			for name, idx := range map[string]*distjoin.Index{"water": water, "roads": roads} {
				if err := reg.RegisterIndex(name, idx); err != nil {
					t.Fatal(err)
				}
			}
			f := &testFixture{rec: served}
			f.srv = NewServer(Config{Registry: reg, BaseOptions: hybrid, Obs: served, TTL: time.Minute})
			f.ts = httptest.NewServer(f.srv.Handler())
			defer func() { f.ts.Close(); f.srv.Close() }()
			cr := f.create(t, req)
			n := 0
			for {
				nr := f.next(t, cr.Cursor, batch)
				n += len(nr.Pairs)
				if nr.Done {
					break
				}
			}
			// DELETE closes the engine, which folds its last counts.
			if code, raw := f.do(t, http.MethodDelete, "/v1/cursor/"+cr.Cursor, nil); code != http.StatusNoContent {
				t.Fatalf("delete: %d: %s", code, raw)
			}
			if n != pairs {
				t.Fatalf("served drain delivered %d pairs, want %d", n, pairs)
			}

			// The in-process drain of the same request.
			dropCaches(t)
			inproc := &distjoin.Stats{}
			water.SetCounters(inproc)
			roads.SetCounters(inproc)
			opts := hybrid
			opts.MaxPairs, opts.Counters = pairs, inproc
			it, err := openIterator(&req, water.AsSpatialIndex(), roads.AsSpatialIndex(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for n = 0; ; n++ {
				if _, ok, err := it.Next(); err != nil {
					t.Fatal(err)
				} else if !ok {
					break
				}
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if n != pairs {
				t.Fatalf("in-process drain delivered %d pairs, want %d", n, pairs)
			}

			if got, want := served.Counts().Snapshot(), inproc.Snapshot(); got != want {
				t.Fatalf("cursor service changed engine work:\nserver     %+v\nin-process %+v", got, want)
			}
		})
	}
}

// TestDaemonCountsView drives one served session with distjoind's wiring —
// one Recorder, the registry's pools fed through SetObserver — over indexes
// with cold buffer pools. The Recorder is the daemon's one counts view: the
// cursor's query trace must report the same work and node I/O it holds.
func TestDaemonCountsView(t *testing.T) {
	water := distjoin.NewIndexFromPoints(datagen.Water(1998, 800))
	defer water.Close()
	roads := distjoin.NewIndexFromPoints(datagen.Roads(1999, 1_600))
	defer roads.Close()
	reg := NewRegistry()
	for name, idx := range map[string]*distjoin.Index{"water": water, "roads": roads} {
		if err := idx.Tree().DropCache(); err != nil {
			t.Fatal(err)
		}
		if err := reg.RegisterIndex(name, idx); err != nil {
			t.Fatal(err)
		}
	}
	rec := distjoin.NewRecorder(distjoin.ObsConfig{})
	f := &testFixture{rec: rec, tracer: distjoin.NewQueryTracer(distjoin.QueryTraceConfig{FlightSize: 4})}
	f.srv = NewServer(Config{Registry: reg, Obs: rec, Tracer: f.tracer, TTL: time.Minute})
	f.ts = httptest.NewServer(f.srv.Handler())
	defer func() { f.ts.Close(); f.srv.Close() }()

	cr := f.create(t, QueryRequest{Kind: "join", Index1: "water", Index2: "roads", MaxPairs: 300})
	for !f.next(t, cr.Cursor, 128).Done {
	}
	if code, raw := f.do(t, http.MethodDelete, "/v1/cursor/"+cr.Cursor, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d: %s", code, raw)
	}

	c := rec.Counts().Snapshot()
	if c.NodeReads == 0 || c.BufferHits == 0 || c.PairsReported != 300 {
		t.Fatalf("counts %+v: want 300 pairs and the pools' node reads and buffer hits", c)
	}
	tr := f.tracer.Trace(cr.Cursor)
	if tr == nil {
		t.Fatalf("no query trace for %s", cr.Cursor)
	}
	want := distjoin.QueryResources{
		Pairs: c.PairsReported, DistCalcs: c.DistCalcs, NodeDistCalcs: c.NodeDistCalcs,
		NodeIO: c.NodeReads + c.NodeWrites, BufferHits: c.BufferHits,
		QueueInserts: c.QueueInserts, QueuePops: c.QueuePops, QueueDiskPairs: c.QueueDiskPairs,
		IOFaults: c.IOFaults, IORetries: c.IORetries, BatchPruned: c.BatchPruned,
		Filtered: c.Filtered, PeakQueueDepth: c.MaxQueueSize,
	}
	if tr.Resources != want {
		t.Fatalf("query trace resources differ from the counts view:\ntrace %+v\nview  %+v", tr.Resources, want)
	}
}

// TestServedSemiJoinEndsAtLastPair pulls a semi-join cursor with k larger
// than what is left of it: the pull that carries the last first object's
// pair must also say done, and the query trace must count exactly the
// expansions an in-process drain has made at its last pair — the end of a
// served semi-join costs no work either.
func TestServedSemiJoinEndsAtLastPair(t *testing.T) {
	const n1, k = 800, 300
	water := distjoin.NewIndexFromPoints(datagen.Water(1998, n1))
	defer water.Close()
	roads := distjoin.NewIndexFromPoints(datagen.Roads(1999, 1_600))
	defer roads.Close()
	reg := NewRegistry()
	for name, idx := range map[string]*distjoin.Index{"water": water, "roads": roads} {
		if err := reg.RegisterIndex(name, idx); err != nil {
			t.Fatal(err)
		}
	}
	tracer := distjoin.NewQueryTracer(distjoin.QueryTraceConfig{FlightSize: 4})
	f := &testFixture{tracer: tracer}
	f.srv = NewServer(Config{Registry: reg, Tracer: tracer, TTL: time.Minute})
	f.ts = httptest.NewServer(f.srv.Handler())
	defer func() { f.ts.Close(); f.srv.Close() }()

	req := QueryRequest{Kind: "semijoin", Filter: "globalall", Index1: "water", Index2: "roads"}
	cr := f.create(t, req)
	n := 0
	for {
		nr := f.next(t, cr.Cursor, k)
		n += len(nr.Pairs)
		if nr.Done {
			if len(nr.Pairs) != n1%k || n != n1 {
				t.Fatalf("done after %d pairs, %d in the last pull; want %d, %d", n, len(nr.Pairs), n1, n1%k)
			}
			break
		}
		if len(nr.Pairs) != k {
			t.Fatalf("a pull that is not done carried %d pairs, want %d", len(nr.Pairs), k)
		}
	}
	if code, raw := f.do(t, http.MethodDelete, "/v1/cursor/"+cr.Cursor, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d: %s", code, raw)
	}
	tr := tracer.Trace(cr.Cursor)
	if tr == nil {
		t.Fatalf("no query trace for %s", cr.Cursor)
	}

	inproc := &distjoin.Stats{}
	it, err := openIterator(&req, water.AsSpatialIndex(), roads.AsSpatialIndex(), distjoin.Options{Counters: inproc})
	if err != nil {
		t.Fatal(err)
	}
	var atLast int64
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		atLast = inproc.Expansions
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Root.Find("expand").Count; got != atLast {
		t.Fatalf("served semi-join expanded %d node pairs, the in-process drain %d at its last pair", got, atLast)
	}
}
