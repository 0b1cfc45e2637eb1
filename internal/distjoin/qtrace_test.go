package distjoin

import (
	"errors"
	"strings"
	"testing"
	"time"

	"distjoin/internal/faultstore"
	"distjoin/internal/pager"
	"distjoin/internal/profile"
	"distjoin/internal/qtrace"
	"distjoin/internal/rtree"
	"distjoin/internal/stats"
)

// drainTraced runs a full join with a query tracer (and spans + counters)
// attached, returning the completed trace from the flight recorder. Both
// trees start cold and report their buffer pools' traffic to the counters.
func drainTraced(t *testing.T, tr *qtrace.Tracer, opts Options) (*qtrace.QueryTrace, *profile.Spans, *stats.Counters) {
	t.Helper()
	sp := &profile.Spans{}
	c := &stats.Counters{}
	ra, rb := buildTree(t, clusteredPoints(11, 300)), buildTree(t, clusteredPoints(23, 300))
	for _, r := range []*rtree.Tree{ra, rb} {
		if err := r.DropCache(); err != nil {
			t.Fatal(err)
		}
		r.Pool().SetCounters(stats.NodeSink(c))
	}
	ta, tb := WrapRTree(ra), WrapRTree(rb)
	opts.Tracer = tr
	opts.Profile = sp
	opts.Counters = c
	j, err := NewJoinIndexes(ta, tb, opts)
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
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	traces := tr.Traces()
	if len(traces) == 0 {
		t.Fatal("no trace landed in the flight recorder")
	}
	return traces[0], sp, c
}

// TestQueryTraceSequential pins the tentpole acceptance criterion on the
// sequential path: the span tree's phase spans cover ≥95% of query wall
// time, the span counts agree with the work counters, and the caller's
// Profile/Counters see the same numbers as an untraced run (the engine
// records into the query's accumulator and merges back on close).
func TestQueryTraceSequential(t *testing.T) {
	tr := qtrace.New(qtrace.Config{})
	qt, sp, c := drainTraced(t, tr, Options{MaxPairs: 500})
	s := c.Snapshot()

	if qt.Kind != "join" || !strings.HasPrefix(qt.ID, "q") {
		t.Fatalf("trace header = kind %q id %q", qt.Kind, qt.ID)
	}
	if qt.Error != "" {
		t.Fatalf("trace error %q, want a clean finish", qt.Error)
	}
	if ch := qt.Root.Children; len(ch) != 2 || ch[0].Name != "plan" || ch[1].Name != "worker" {
		t.Fatalf("root's children = %+v, want plan and one worker", ch)
	}
	if qt.Coverage < 0.95 {
		t.Errorf("phase coverage %.3f, want >= 0.95", qt.Coverage)
	}
	if qt.Coverage > 1.001 {
		t.Errorf("phase coverage %.3f exceeds 1", qt.Coverage)
	}

	// Span tree shape and agreement with the counters.
	worker := qt.Root.Find("worker")
	if worker == nil {
		t.Fatal("no worker span in the trace")
	}
	if pop := qt.Root.Find("pop"); pop == nil || pop.Count != s.QueuePops {
		t.Errorf("pop span = %+v, counter pops %d", pop, s.QueuePops)
	}
	if push := qt.Root.Find("push"); push == nil || push.Count != s.QueueInserts {
		t.Errorf("push span = %+v, counter inserts %d", push, s.QueueInserts)
	}
	if qt.Root.Find("plan") == nil {
		t.Error("no plan span in the trace")
	}

	// Resource accounting is the run's Counters view, column for column:
	// the engine's own counts and the pools' node I/O during the query.
	if s.NodeReads == 0 || s.BufferHits == 0 {
		t.Fatalf("cold trees saw %d node reads and %d buffer hits, want some of each", s.NodeReads, s.BufferHits)
	}
	want := qtrace.Resources{
		Pairs: s.PairsReported, DistCalcs: s.DistCalcs, NodeDistCalcs: s.NodeDistCalcs,
		NodeIO: s.NodeReads + s.NodeWrites, BufferHits: s.BufferHits,
		QueueInserts: s.QueueInserts, QueuePops: s.QueuePops, QueueDiskPairs: s.QueueDiskPairs,
		IOFaults: s.IOFaults, IORetries: s.IORetries, BatchPruned: s.BatchPruned,
		Filtered: s.Filtered, PeakQueueDepth: s.MaxQueueSize,
	}
	if qt.Resources != want {
		t.Errorf("resources = %+v, counters view = %+v", qt.Resources, want)
	}

	// The caller's Spans received the merged-back engine accounting.
	if sp.Tally().Counts[profile.PhasePop] != s.QueuePops {
		t.Errorf("caller spans pops %d, counter pops %d — merge-back broken", sp.Tally().Counts[profile.PhasePop], s.QueuePops)
	}
}

// TestQueryTraceHybridIO: the disk-tier spans carry the nested physical
// I/O children.
func TestQueryTraceHybridIO(t *testing.T) {
	tr := qtrace.New(qtrace.Config{})
	qt, _, c := drainTraced(t, tr, Options{
		Queue:      QueueHybrid,
		HybridDT:   5,
		QueueStore: memQueueStore,
	})
	if c.Snapshot().QueueDiskPairs == 0 {
		t.Fatal("workload did not exercise the disk tier")
	}
	spill := qt.Root.Find("spill")
	if spill == nil || spill.Find("io_write") == nil {
		t.Errorf("spill span lacks nested io_write: %+v", spill)
	}
	fetch := qt.Root.Find("fetch")
	if fetch == nil || fetch.Find("io_read") == nil {
		t.Errorf("fetch span lacks nested io_read: %+v", fetch)
	}
	if qt.Resources.QueueDiskPairs == 0 {
		t.Error("trace resources missed the disk-tier pairs")
	}
}

// TestQueryTraceQueryID: a caller-supplied ID wins over the assigned one,
// and the trace is retrievable by it.
func TestQueryTraceQueryID(t *testing.T) {
	tr := qtrace.New(qtrace.Config{})
	qt, _, _ := drainTraced(t, tr, Options{QueryID: "user-42", MaxPairs: 10})
	if qt.ID != "user-42" {
		t.Fatalf("trace ID = %q, want user-42", qt.ID)
	}
	if got := tr.Trace("user-42"); got != qt {
		t.Fatalf("Trace(user-42) = %v, want the completed trace", got)
	}
}

// TestQueryTraceConstructorError: a join that fails validation still
// produces no dangling active query (the trace only begins after
// validation), and a constructor failure after Begin (queue store refusing
// to open) lands an error-annotated trace.
func TestQueryTraceConstructorError(t *testing.T) {
	tr := qtrace.New(qtrace.Config{})
	ta := WrapRTree(buildTree(t, clusteredPoints(5, 50)))
	tb := WrapRTree(buildTree(t, clusteredPoints(7, 50)))

	// Validation failure: before Begin, nothing recorded.
	if _, err := NewJoinIndexes(ta, tb, Options{Tracer: tr, MinDist: -1}); err == nil {
		t.Fatal("invalid options accepted")
	}
	if tr.Active() != 0 || len(tr.Traces()) != 0 {
		t.Fatalf("validation failure leaked a query: active %d, traces %d", tr.Active(), len(tr.Traces()))
	}

	// Constructor failure after Begin: the plan dies, the trace lands.
	boom := errors.New("store refused")
	_, err := NewJoinIndexes(ta, tb, Options{
		Tracer:     tr,
		Queue:      QueueHybrid,
		QueueStore: func(pageSize int) (pager.Store, error) { return nil, boom },
	})
	if err == nil {
		t.Fatal("failing store factory accepted")
	}
	if tr.Active() != 0 {
		t.Fatalf("constructor failure left %d active queries", tr.Active())
	}
	traces := tr.Traces()
	if len(traces) != 1 || !strings.Contains(traces[0].Error, "store refused") {
		t.Fatalf("constructor-failure trace = %+v", traces)
	}
	// The engine that never ran still reports: a plan span and an empty
	// worker span, and resources of no work at all.
	qt := traces[0]
	if ch := qt.Root.Children; len(ch) != 2 || ch[0].Name != "plan" || ch[0].Count != 1 ||
		ch[1].Name != "worker" || ch[1].Count != 0 || len(ch[1].Children) != 0 {
		t.Fatalf("constructor-failure span tree = %+v, want plan and an empty worker", qt.Root)
	}
	if qt.Resources != (qtrace.Resources{}) {
		t.Fatalf("constructor-failure resources = %+v, want none", qt.Resources)
	}
}

// TestQueryTraceFaultAnnotated is the fault-injection satellite: a query
// that dies mid-join on a permanent faultstore error must still land a
// complete, error-annotated trace in the flight recorder — with the span
// tree and the resource accounting (including the observed I/O faults) of
// the work done before the failure.
func TestQueryTraceFaultAnnotated(t *testing.T) {
	tr := qtrace.New(qtrace.Config{})
	ta := WrapRTree(buildTree(t, clusteredPoints(71, 120)))
	tb := WrapRTree(buildTree(t, clusteredPoints(72, 140)))
	c := &stats.Counters{}
	j, err := NewJoinIndexes(ta, tb, Options{
		Tracer:        tr,
		Counters:      c,
		Queue:         QueueHybrid,
		HybridDT:      4,
		QueuePageSize: 256,
		// RetryIO attaches the fault-accounting callbacks; the injected
		// error is permanent, so it is counted but never retried.
		RetryIO: pager.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}},
		QueueStore: func(pageSize int) (pager.Store, error) {
			mem, err := pager.NewMemStore(pageSize)
			if err != nil {
				return nil, err
			}
			return faultstore.New(mem, faultstore.Config{FailWriteAt: 10}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var joinErr error
	for {
		_, ok, err := j.Next()
		if err != nil {
			joinErr = err
			break
		}
		if !ok {
			break
		}
	}
	if !errors.Is(joinErr, faultstore.ErrInjected) {
		t.Fatalf("join error = %v, want the injected fault", joinErr)
	}
	j.Close()

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("flight recorder has %d traces, want 1", len(traces))
	}
	qt := traces[0]
	if qt.Error == "" || !strings.Contains(qt.Error, "injected") {
		t.Fatalf("trace error = %q, want the injected fault", qt.Error)
	}
	if qt.Root.Name != "query" || qt.Root.Find("worker") == nil || qt.Root.Find("plan") == nil {
		t.Fatalf("errored trace is incomplete: %+v", qt.Root)
	}
	if qt.Resources.IOFaults == 0 {
		t.Error("errored trace recorded no I/O faults")
	}
	if qt.Resources.QueueInserts == 0 {
		t.Error("errored trace recorded no pre-failure work")
	}
	if tr.Active() != 0 {
		t.Fatalf("errored query still active: %d", tr.Active())
	}
}

// TestQueryTraceDisabledUntouched pins the Options contract end to end: a
// join without a sink takes the exact untraced constructor path (no query,
// no meter).
func TestQueryTraceDisabledUntouched(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(5, 100)))
	tb := WrapRTree(buildTree(t, clusteredPoints(7, 100)))
	j, err := NewJoinIndexes(ta, tb, Options{MaxPairs: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for {
		_, ok, err := j.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	// With no sink, the engine must carry no meter and Close must not
	// fabricate traces out of thin air.
	if j.e.m != nil {
		t.Fatal("untraced join carries a meter")
	}
}

// TestQueryTraceKinds: each public constructor stamps its kind.
func TestQueryTraceKinds(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(5, 60)))
	tb := WrapRTree(buildTree(t, clusteredPoints(7, 60)))
	cases := []struct {
		kind string
		run  func(tr *qtrace.Tracer) error
	}{
		{"join", func(tr *qtrace.Tracer) error {
			j, err := NewJoinIndexes(ta, tb, Options{Tracer: tr, MaxPairs: 5})
			if err != nil {
				return err
			}
			return j.Close()
		}},
		{"semijoin", func(tr *qtrace.Tracer) error {
			s, err := NewSemiJoinIndexes(ta, tb, FilterInside2, Options{Tracer: tr, MaxPairs: 5})
			if err != nil {
				return err
			}
			return s.Close()
		}},
		{"knn", func(tr *qtrace.Tracer) error {
			s, err := NewKNearestJoinIndexes(ta, tb, 3, FilterInside2, Options{Tracer: tr, MaxPairs: 5})
			if err != nil {
				return err
			}
			return s.Close()
		}},
		{"clustering", func(tr *qtrace.Tracer) error {
			s, err := NewClusteringJoinIndexes(ta, tb, FilterInside2, Options{Tracer: tr, MaxPairs: 5})
			if err != nil {
				return err
			}
			return s.Close()
		}},
	}
	for _, tc := range cases {
		tr := qtrace.New(qtrace.Config{})
		if err := tc.run(tr); err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		traces := tr.Traces()
		if len(traces) != 1 || traces[0].Kind != tc.kind {
			t.Errorf("kind %s: traces = %+v", tc.kind, traces)
		}
	}
}
