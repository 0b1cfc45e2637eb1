package distjoin

import (
	"fmt"
	"reflect"
	"testing"

	"distjoin/internal/obs"
	"distjoin/internal/profile"
	"distjoin/internal/qtrace"
	"distjoin/internal/rtree"
	"distjoin/internal/stats"
)

// viewRun is one drained run of a view-equivalence case: the delivered
// pairs and what each attached view held when the iterator closed.
type viewRun struct {
	pairs []Pair
	stats stats.Counters // growth of the (pre-loaded) Counters view over the run
	sp    *profile.Spans
	rec   *obs.Recorder
	trace *qtrace.QueryTrace
}

// The four views, as bits of a mask.
const (
	viewCounters = 1 << iota
	viewObs
	viewProfile
	viewTracer
	viewAll = viewCounters | viewObs | viewProfile | viewTracer
)

// TestViewEquivalence pins that the four telemetry sinks are views of one
// per-engine meter: on {join, semi-join} × {memory, hybrid} × {par=0,
// par=2} a run with all four attached and a run with each one alone deliver
// the identical pair sequence and agree on every number they share — the
// Stats snapshot, the Profile span counts (pop spans = QueuePops, push =
// QueueInserts, spill = QueueDiskPairs), the tracer's Resources (= the Stats
// growth over the run, node I/O included) and the Recorder's counts — and
// that Stats is readable, exact and monotone between two Next calls. The
// par=2 legs set the deprecated Options.Parallelism, which must change
// nothing: their pairs and Stats equal a run without it.
func TestViewEquivalence(t *testing.T) {
	ta := buildTree(t, clusteredPoints(31, 60))
	tb := buildTree(t, clusteredPoints(32, 70))

	for _, semi := range []bool{false, true} {
		for _, hybrid := range []bool{false, true} {
			for _, par := range []int{0, 2} {
				name := fmt.Sprintf("semi=%v/hybrid=%v/par=%d", semi, hybrid, par)
				t.Run(name, func(t *testing.T) {
					run := func(views, par int) viewRun {
						t.Helper()
						opts := Options{Parallelism: par}
						if hybrid {
							opts.Queue, opts.HybridDT, opts.QueueStore = QueueHybrid, 15, memQueueStore
						}
						// The Counters view starts non-zero and also receives the
						// index pools' node I/O, like a long-lived shared Stats.
						c := &stats.Counters{DistCalcs: 1000, PairsReported: 7, MaxQueueSize: 1}
						var out viewRun
						if views&viewCounters != 0 {
							opts.Counters = c
							for _, tr := range []*rtree.Tree{ta, tb} {
								tr.Pool().SetCounters(stats.NodeSink(c))
								defer tr.Pool().SetCounters(nil)
							}
						}
						if views&viewObs != 0 {
							out.rec = obs.New(obs.Config{})
							opts.Obs = out.rec
						}
						if views&viewProfile != 0 {
							out.sp = &profile.Spans{}
							opts.Profile = out.sp
						}
						var tracer *qtrace.Tracer
						if views&viewTracer != 0 {
							tracer = qtrace.New(qtrace.Config{})
							opts.Tracer = tracer
						}
						before := c.Snapshot()

						var it *Join
						var err error
						if semi {
							it, err = NewSemiJoinIndexes(WrapRTree(ta), WrapRTree(tb), FilterGlobalAll, opts)
						} else {
							it, err = NewJoinIndexes(WrapRTree(ta), WrapRTree(tb), opts)
						}
						if err != nil {
							t.Fatal(err)
						}
						prev := before
						for {
							p, ok, err := it.Next()
							if err != nil {
								t.Fatal(err)
							}
							if !ok {
								break
							}
							out.pairs = append(out.pairs, p)
							if views&viewCounters == 0 {
								continue
							}
							// Readable, monotone and exact between two Next calls:
							// every delivered pair is counted.
							now := c.Snapshot()
							for i, f := range fieldsOf(&now) {
								if was := *fieldsOf(&prev)[i]; *f < was {
									t.Fatalf("after pair %d, counter %d went backwards: %d -> %d", len(out.pairs), i, was, *f)
								}
							}
							if got := now.PairsReported - before.PairsReported; got != int64(len(out.pairs)) {
								t.Fatalf("after %d pairs, Stats.PairsReported grew by %d", len(out.pairs), got)
							}
							prev = now
						}
						if err := it.Close(); err != nil {
							t.Fatal(err)
						}
						after := c.Snapshot()
						out.stats = delta(after, before)
						if tracer != nil {
							out.trace = tracer.Traces()[0]
						}
						return out
					}

					all := run(viewAll, par)
					if len(all.pairs) == 0 || all.stats.QueuePops == 0 || (hybrid && all.stats.QueueDiskPairs == 0) {
						t.Fatalf("workload too small: %d pairs, stats %+v", len(all.pairs), all.stats)
					}
					s := all.stats
					checkSpans := func(who string, sp *profile.Spans) {
						t.Helper()
						for p, want := range map[profile.Phase]int64{
							profile.PhasePop: s.QueuePops, profile.PhasePush: s.QueueInserts,
							profile.PhaseSpill: s.QueueDiskPairs, profile.PhaseExpand: s.Expansions,
						} {
							if got := sp.Tally().Counts[p]; got != want {
								t.Errorf("%s: %s spans = %d, matching count = %d", who, p, got, want)
							}
						}
						if io := sp.IOSnapshot(); io.Reads != s.QueueReads || io.Writes != s.QueueWrites {
							t.Errorf("%s: timed I/O %d r / %d w, counts %d / %d", who, io.Reads, io.Writes, s.QueueReads, s.QueueWrites)
						}
					}
					checkResources := func(who string, r qtrace.Resources, nodeIO bool) {
						t.Helper()
						want := qtrace.Resources{
							Pairs: s.PairsReported, DistCalcs: s.DistCalcs, NodeDistCalcs: s.NodeDistCalcs,
							QueueInserts: s.QueueInserts, QueuePops: s.QueuePops, QueueDiskPairs: s.QueueDiskPairs,
							IOFaults: s.IOFaults, IORetries: s.IORetries, BatchPruned: s.BatchPruned,
							Filtered: s.Filtered, PeakQueueDepth: s.MaxQueueSize,
						}
						if nodeIO {
							want.NodeIO, want.BufferHits = s.NodeReads+s.NodeWrites, s.BufferHits
							if want.BufferHits == 0 {
								t.Errorf("%s: the index pools reported no node accesses", who)
							}
						}
						if r != want {
							t.Errorf("%s: tracer resources\n got %+v\nwant %+v (the Stats growth)", who, r, want)
						}
					}
					checkRecorder := func(who string, rec *obs.Recorder) {
						t.Helper()
						c := rec.Counts().Snapshot()
						if c.PairsReported != int64(len(all.pairs)) ||
							c.Expansions != s.Expansions || c.QueueDiskPairs != s.QueueDiskPairs {
							t.Errorf("%s: recorder delivered %d expansions %d spilled %d; want %d %d %d", who,
								c.PairsReported, c.Expansions, c.QueueDiskPairs,
								len(all.pairs), s.Expansions, s.QueueDiskPairs)
						}
					}
					checkSpans("all", all.sp)
					checkResources("all", all.trace.Resources, true)
					checkRecorder("all", all.rec)

					for _, alone := range []struct {
						name  string
						views int
					}{{"counters", viewCounters}, {"obs", viewObs}, {"profile", viewProfile}, {"tracer", viewTracer}} {
						got := run(alone.views, par)
						if len(got.pairs) != len(all.pairs) {
							t.Fatalf("%s alone: %d pairs, all four sinks %d", alone.name, len(got.pairs), len(all.pairs))
						}
						for i := range got.pairs {
							if a, b := got.pairs[i], all.pairs[i]; a.Obj1 != b.Obj1 || a.Obj2 != b.Obj2 || a.Dist != b.Dist {
								t.Fatalf("%s alone: pair %d = %+v, all four sinks %+v", alone.name, i, a, b)
							}
						}
						switch alone.views {
						case viewCounters:
							if got.stats != s {
								t.Errorf("counters alone:\n got %+v\nwant %+v", got.stats, s)
							}
						case viewObs:
							checkRecorder("obs alone", got.rec)
						case viewProfile:
							checkSpans("profile alone", got.sp)
						case viewTracer:
							// No Counters view: nobody observed the pools' node I/O.
							checkResources("tracer alone", got.trace.Resources, false)
						}
					}
					if par != 0 {
						seq := run(viewCounters, 0)
						if !reflect.DeepEqual(seq.pairs, all.pairs) || seq.stats != s {
							t.Errorf("Parallelism %d changed the run: %d pairs, stats %+v; without it %d pairs, stats %+v",
								par, len(all.pairs), s, len(seq.pairs), seq.stats)
						}
					}
				})
			}
		}
	}
}

// delta returns the growth of a Counters view over a run. MaxQueueSize is a
// high-water mark: the run's own peak shows through because the pre-loaded
// value is tiny.
func delta(after, before stats.Counters) stats.Counters {
	d := after
	for i, f := range fieldsOf(&d) {
		*f -= *fieldsOf(&before)[i]
	}
	d.MaxQueueSize = after.MaxQueueSize
	return d
}

// fieldsOf lists pointers to every counter of c.
func fieldsOf(c *stats.Counters) []*int64 {
	v := reflect.ValueOf(c).Elem()
	out := make([]*int64, v.NumField())
	for i := range out {
		out[i] = v.Field(i).Addr().Interface().(*int64)
	}
	return out
}

// TestNoSinkNoMeter is the engine-side half of the nil-sink pin: with every
// sink nil no meter exists, so each hook is one nil test
// (TestNilSinksZeroAllocsZeroClockReads in internal/meter pins that a nil
// meter allocates nothing and reads no clock).
func TestNoSinkNoMeter(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(5, 100)))
	tb := WrapRTree(buildTree(t, clusteredPoints(7, 100)))
	for _, opts := range []Options{
		{},
		{Queue: QueueHybrid, HybridDT: 15, QueueStore: memQueueStore},
	} {
		j, err := NewJoinIndexes(ta, tb, opts)
		if err != nil {
			t.Fatal(err)
		}
		if j.e.m != nil {
			t.Fatal("a sink-less engine carries a meter")
		}
		if _, ok, err := j.Next(); err != nil || !ok {
			t.Fatalf("Next: ok=%v err=%v", ok, err)
		}
		j.Close()
	}
}
