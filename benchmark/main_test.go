package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"distjoin"
	"distjoin/internal/pager"
	"distjoin/internal/spatial"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if v, ok := percentile(sorted, 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(sorted[:999], 0.99); ok {
		t.Error("p99 of 999 samples has only 9 samples beyond it and must not be reported")
	}
	// The fallback steps down to the highest rank that is supported.
	v, q := tailPercentile(sorted[:100], 0.99)
	if v != 90 || q != 0.9 {
		t.Errorf("tail of 100 samples = %v at q=%v; want 90 at 0.9", v, q)
	}
	if v, q := tailPercentile(sorted[:12], 0.99); v != 7 {
		t.Errorf("tail of 12 samples = %v at q=%v; want the median 7", v, q)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeIsBusyMinusChildren(t *testing.T) {
	var tab spanTable
	tab.add(spNext, spQuery, 100*time.Millisecond, 50)
	tab.add(spOpen, spQuery, 10*time.Millisecond, 1)
	tab.add(spNode, spNext, 30*time.Millisecond, 7)
	tab.add(spNode, spOpen, 4*time.Millisecond, 2) // under open: not next's child
	tab.add(spStoreRead, spNext, 20*time.Millisecond, 3)
	tab.add(spStoreWrite, spNext, 5*time.Millisecond, 3)
	if got := tab.self(spNext); got != 45*time.Millisecond {
		t.Errorf("self(next) = %v, want 45ms", got)
	}
	if got := tab.self(spOpen); got != 6*time.Millisecond {
		t.Errorf("self(open) = %v, want 6ms", got)
	}
	if busy, calls := tab.busy(spNode); busy != 34*time.Millisecond || calls != 9 {
		t.Errorf("busy(node) = %v over %d calls, want 34ms over 9", busy, calls)
	}
	rec := tab.record("t")
	if len(rec.Spans) != 6 {
		t.Errorf("record has %d spans, want 6: %+v", len(rec.Spans), rec.Spans)
	}
}

func TestOracle(t *testing.T) {
	a := []distjoin.Point{distjoin.Pt(0, 0), distjoin.Pt(10, 0)}
	b := []distjoin.Point{distjoin.Pt(0, 3), distjoin.Pt(10, 4), distjoin.Pt(5, 0)}
	if got, want := bruteJoin(a, b, 4), []float64{3, 4, 5, 5}; !reflect.DeepEqual([]float64(got), want) {
		t.Errorf("bruteJoin k=4 = %v, want %v", got, want)
	}
	if got := bruteJoin(a, b, 0); len(got) != 6 {
		t.Errorf("bruteJoin k=0 returned %d distances, want all 6", len(got))
	}
	if got, want := bruteSemiJoin(a, b), []float64{3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("bruteSemiJoin = %v, want %v", got, want)
	}
	if err := sameDistances([]float64{3, 4}, []float64{3, 4.1}); err == nil {
		t.Error("sameDistances accepted a wrong distance")
	}
	if err := sameDistances([]float64{3}, []float64{3, 4}); err == nil {
		t.Error("sameDistances accepted a short sequence")
	}
	if fnvOffset.add(1).add(2) == fnvOffset.add(2).add(1) {
		t.Error("digest does not depend on order")
	}
}

// recordingStore notes which Store methods were called with what.
type recordingStore struct {
	pager.Store
	calls []string
}

func (s *recordingStore) note(c string) { s.calls = append(s.calls, c) }

func (s *recordingStore) PageSize() int { s.note("PageSize"); return s.Store.PageSize() }
func (s *recordingStore) Allocate() (pager.PageID, error) {
	s.note("Allocate")
	return s.Store.Allocate()
}
func (s *recordingStore) Free(id pager.PageID) error { s.note("Free"); return s.Store.Free(id) }
func (s *recordingStore) ReadPage(id pager.PageID, buf []byte) error {
	s.note("ReadPage")
	return s.Store.ReadPage(id, buf)
}
func (s *recordingStore) WritePage(id pager.PageID, buf []byte) error {
	s.note("WritePage")
	return s.Store.WritePage(id, buf)
}
func (s *recordingStore) NumAllocated() int { s.note("NumAllocated"); return s.Store.NumAllocated() }
func (s *recordingStore) Close() error      { s.note("Close"); return s.Store.Close() }

func TestTracedStoreForwardsEveryMethod(t *testing.T) {
	mem, err := pager.NewMemStore(256)
	if err != nil {
		t.Fatal(err)
	}
	inner := &recordingStore{Store: mem}
	tr := &tracer{}
	tr.enter(spNext)
	s := tracedStore{inner: inner, tr: tr}

	if s.PageSize() != 256 {
		t.Error("PageSize not forwarded")
	}
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 256)
	page[7] = 42
	if err := s.WritePage(id, page); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	if err := s.ReadPage(id, got); err != nil || got[7] != 42 {
		t.Errorf("ReadPage = %v, byte %d; want the written page", err, got[7])
	}
	if s.NumAllocated() != 1 {
		t.Error("NumAllocated not forwarded")
	}
	if err := s.Free(id); err != nil {
		t.Error(err)
	}
	if err := s.ReadPage(id, got); err == nil {
		t.Error("the inner store's error on a freed page was swallowed")
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	want := []string{"PageSize", "Allocate", "WritePage", "ReadPage", "NumAllocated", "Free", "ReadPage", "Close"}
	if !reflect.DeepEqual(inner.calls, want) {
		t.Errorf("inner store saw %v, want %v", inner.calls, want)
	}
	spans := tr.finish()
	if spans[spStoreRead][spNext].Count != 2 || spans[spStoreWrite][spNext].Count != 1 {
		t.Errorf("spans: %d reads, %d writes under next; want 2 and 1",
			spans[spStoreRead][spNext].Count, spans[spStoreWrite][spNext].Count)
	}
}

// TestWrappersChangeNothing runs the hybrid drain with and without the
// wrappers: the same pairs and the same work counters must come out, and
// the wrapped index must report the inner index's fan-out.
func TestWrappersChangeNothing(t *testing.T) {
	sc, err := scaleByName("smoke")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := buildIndexes(makeData(1, 0, sc.water, sc.roads))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	wl, _ := inProcessByName("join-drain-hybrid")
	q := wl.query(sc, t.TempDir())

	tr := &tracer{}
	a, b := ix.water.AsSpatialIndex(), ix.roads.AsSpatialIndex()
	ta, tb := tracedIndex{inner: a, tr: tr}, tracedIndex{inner: b, tr: tr}
	if got, want := ta.MaxFanout(), a.(spatial.Fanout).MaxFanout(); got != want || want == 0 {
		t.Errorf("wrapped MaxFanout = %d, inner %d", got, want)
	}
	if ta.Dims() != a.Dims() || ta.NumObjects() != a.NumObjects() || ta.MinObjectsUnder(1) != a.MinObjectsUnder(1) {
		t.Error("wrapped index does not forward Dims, NumObjects or MinObjectsUnder")
	}

	run := func(a, b distjoin.SpatialIndex, wrapStore bool) (repetition, []float64, distjoin.Stats) {
		counters := &distjoin.Stats{}
		ix.water.SetCounters(counters)
		ix.roads.SetCounters(counters)
		defer ix.water.SetCounters(nil)
		defer ix.roads.SetCounters(nil)
		opts := q.opts
		opts.Counters = counters
		var t2 *tracer
		if wrapStore {
			t2 = tr
			opts.QueueStore = fileStoreFactory(opts.HybridDir, tr)
		}
		var dists []float64
		rep, err := q.run(a, b, opts, t2, nil, &dists)
		if err != nil {
			t.Fatal(err)
		}
		return rep, dists, counters.Snapshot()
	}
	// Fill the buffer pools first, so both runs start from the same
	// residency and their node-read counters can be compared.
	run(a, b, false)
	plainRep, plain, plainC := run(a, b, false)
	tracedRep, traced, tracedC := run(ta, tb, true)

	if plainRep.pairs != sc.drainPairs || plainRep.bad != 0 {
		t.Fatalf("plain run delivered %d pairs, %d bad", plainRep.pairs, plainRep.bad)
	}
	if !reflect.DeepEqual(plain, traced) || plainRep.sum != tracedRep.sum {
		t.Error("wrapped run delivered different distances")
	}
	if plainC != tracedC {
		t.Errorf("counters differ:\nplain  %+v\ntraced %+v", plainC, tracedC)
	}
	spans := tr.finish()
	if nodeBusy, calls := spans.busy(spNode); calls == 0 || nodeBusy <= 0 {
		t.Error("no spatial.node spans recorded")
	}
	if _, writes := spans.busy(spStoreWrite); writes != plainC.QueueWrites {
		t.Errorf("%d store-write spans, counters say %d page writes", writes, plainC.QueueWrites)
	}
	if spans.self(spNext) < 0 {
		t.Errorf("negative self time %v", spans.self(spNext))
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestContractMatchesCode keeps BENCHMARK.json and the tables the runner
// reports from in step.
func TestContractMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, runner default %v", c.RunSeconds, defaultSeconds)
	}
	whys := map[string]string{servedWorkload.name: servedWorkload.why}
	for _, wl := range inProcessWorkloads {
		whys[wl.name] = wl.why
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || w.Why != whys[w.Name] {
			t.Errorf("workload %s: why %q (%d characters), runner has %q", w.Name, w.Why, len(w.Why), whys[w.Name])
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, runner has %v", names, workloadNames())
	}
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the runner's table:\n%+v\n%+v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the runner's table")
	}
	hasSetup := false
	for _, d := range c.EndToEnd {
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
}

// checkResult asserts a run reported exactly the metrics of defs, all
// finite, and found its outputs correct.
func checkResult(t *testing.T, res *result, defs []metricDef, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.problems)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s in %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
			t.Errorf("metric %s = %v", d.Name, m.Value)
		case nonZero && m.Value == 0:
			t.Errorf("end-to-end metric %s is 0", d.Name)
		}
	}
}

// TestSmokeEndToEnd passes every workload, untraced and traced, at smoke
// scale. The served leg builds distjoind and is skipped under -short.
func TestSmokeEndToEnd(t *testing.T) {
	microScale = 25
	defer func() { microScale = 1 }()
	out := t.TempDir()
	cfg := config{root: "..", outDir: out, seed: 3, seconds: 0.05, scale: "smoke"}

	for _, name := range workloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := cfg
			cfg.workload = name
			if name == servedWorkload.name {
				if testing.Short() {
					t.Skip("builds and starts distjoind")
				}
				cfg.distjoind = filepath.Join(out, "distjoind")
				build := exec.Command("go", "build", "-o", cfg.distjoind, "./cmd/distjoind")
				build.Dir = ".."
				if msg, err := build.CombinedOutput(); err != nil {
					t.Fatalf("building distjoind: %v\n%s", err, msg)
				}
			}
			res, err := measure(cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd, true)

			cfg.trace = true
			res, err = measure(cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer, false)
			if self := res.Metrics["distjoin.self_s"].Value; self <= 0 {
				t.Errorf("distjoin.self_s = %v", self)
			}
			if over := res.Metrics["bench.trace_overhead"].Value; over <= 0 {
				t.Errorf("bench.trace_overhead = %v", over)
			}
			share := res.Metrics["pqueue.store.share"].Value
			if hybrid := name == "join-drain-hybrid"; hybrid != (share > 0) {
				t.Errorf("pqueue.store.share = %v", share)
			}
			// The ratio exceeds 1 at the scale the workload is defined at; here
			// it only has to be measured (the race detector slows this
			// process, not the daemon).
			if name == servedWorkload.name && res.Metrics["server.overhead_ratio"].Value <= 0 {
				t.Errorf("server.overhead_ratio = %v", res.Metrics["server.overhead_ratio"].Value)
			}
			if len(res.traces) == 0 {
				t.Error("no traces recorded")
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}
