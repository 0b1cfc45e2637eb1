package distjoin

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"distjoin/internal/faultstore"
	"distjoin/internal/geom"
	"distjoin/internal/pager"
	"distjoin/internal/pqueue"
	"distjoin/internal/rtree"
	"distjoin/internal/stats"
)

// ---------------------------------------------------------------------------
// Differential correctness harness: the engine versus a brute-force oracle,
// under randomized workloads × queue configurations × fault schedules. The
// invariant is absolute: the delivered stream is always a correct ordered
// prefix of the oracle result — matching it completely when no error
// surfaces, and ending in a sticky, surfaced error otherwise. Never wrong,
// never silently truncated, never hung.
// ---------------------------------------------------------------------------

// harnessCase is one engine run: drain everything, note the terminal error.
type harnessResult struct {
	pairs []Pair
	err   error
}

// testTimeout bounds one engine run; a case that exceeds it is a hang.
const testTimeout = 30 * time.Second

// quickRetry is a retry policy that never sleeps.
func quickRetry(attempts int) pager.RetryPolicy {
	return pager.RetryPolicy{MaxAttempts: attempts, Sleep: func(time.Duration) {}}
}

// buildFaultTree bulk-loads pts over a fault-injecting store (disarmed
// during the build so the fixture itself is sound, armed afterwards). A
// tiny buffer pool forces physical reads during the join, so the fault
// schedule actually fires.
func buildFaultTree(t *testing.T, pts []geom.Point, cfg faultstore.Config, retry bool) (*rtree.Tree, *faultstore.Store) {
	t.Helper()
	mem, err := pager.NewMemStore(512)
	if err != nil {
		t.Fatal(err)
	}
	fs := faultstore.New(mem, cfg)
	fs.SetArmed(false)
	var store pager.Store = fs
	if retry {
		store = pager.NewRetryStore(fs, quickRetry(8))
	}
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{Rect: p.Rect(), Obj: rtree.ObjID(i)}
	}
	tr, err := rtree.BulkLoad(rtree.Config{Dims: 2, PageSize: 512, BufferFrames: 4, Store: store}, items)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr, fs
}

// faultSchedule describes where faults land for one case family.
type faultSchedule struct {
	name string
	// queueFaults configures the hybrid queue's disk-tier store (zero
	// Config means a clean store). Only hybrid queue configs exercise it.
	queueFaults faultstore.Config
	// treeFaults configures the second tree's store; treeRetry wraps that
	// store in a RetryStore.
	treeFaults *faultstore.Config
	treeRetry  bool
	// retry is the engine's Options.RetryIO for the queue store.
	retry pager.RetryPolicy
	// mustComplete asserts the run finishes with no error at all (clean
	// schedules and fully-retried transient schedules).
	mustComplete bool
	// mustFire asserts, from the queue stores' own Stats, that the
	// schedule injected at least one fault (the op-count schedules: a count
	// the run never reaches would pass vacuously).
	mustFire bool
}

// storeLog is an Options.QueueStore factory that keeps the fault stores it
// hands out — one per engine — so a test can read what they injected.
type storeLog struct {
	mu     sync.Mutex
	stores []*faultstore.Store
}

func (l *storeLog) factory(cfg faultstore.Config) func(pageSize int) (pager.Store, error) {
	return func(pageSize int) (pager.Store, error) {
		mem, err := pager.NewMemStore(pageSize)
		if err != nil {
			return nil, err
		}
		fs := faultstore.New(mem, cfg)
		l.mu.Lock()
		l.stores = append(l.stores, fs)
		l.mu.Unlock()
		return fs, nil
	}
}

// injected sums what the handed-out stores did and injected.
func (l *storeLog) injected() (sum faultstore.Stats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, fs := range l.stores {
		st := fs.Stats()
		sum.Ops += st.Ops
		sum.Reads += st.Reads
		sum.Writes += st.Writes
		sum.TransientErrors += st.TransientErrors
		sum.PermanentErrors += st.PermanentErrors
		sum.CorruptedReads += st.CorruptedReads
		sum.Crashed = sum.Crashed || st.Crashed
	}
	return sum
}

func harnessSchedules() []faultSchedule {
	return []faultSchedule{
		{name: "clean", mustComplete: true},
		{
			name:         "transient-retried",
			queueFaults:  faultstore.Config{TransientReadProb: 0.08, TransientWriteProb: 0.08},
			retry:        quickRetry(12),
			mustComplete: true,
		},
		{
			name:        "transient-unretried",
			queueFaults: faultstore.Config{TransientReadProb: 0.35, TransientWriteProb: 0.35},
		},
		{
			name:        "permanent-at-n",
			queueFaults: faultstore.Config{FailWriteAt: 4, FailReadAt: 3},
			retry:       quickRetry(4),
			mustFire:    true,
		},
		{
			name:        "corrupt-at-n",
			queueFaults: faultstore.Config{CorruptReadAt: 2},
			mustFire:    true,
		},
		{
			name:        "crash-after-ops",
			queueFaults: faultstore.Config{CrashAfterOps: 12},
			retry:       quickRetry(4),
			mustFire:    true,
		},
		{
			name:       "tree-crash",
			treeFaults: &faultstore.Config{CrashAfterOps: 20},
			mustFire:   true,
		},
		{
			name:         "tree-transient-retried",
			treeFaults:   &faultstore.Config{TransientReadProb: 0.1},
			treeRetry:    true,
			mustComplete: true,
		},
	}
}

// queueConfig is one priority-queue configuration under test.
type queueConfig struct {
	name  string
	apply func(o *Options)
}

func harnessQueues() []queueConfig {
	return []queueConfig{
		{"mem", func(o *Options) { o.Queue = QueueMemory }},
		{"hybrid", func(o *Options) {
			o.Queue = QueueHybrid
			o.HybridDT = 60
			// 10 pairs a page: a page is written per full tail, not per
			// pair, so with 4 KiB pages these workloads would hardly touch
			// the store and the op-count schedules would never fire.
			o.QueuePageSize = 1024
		}},
		{"spill", func(o *Options) { // tiny DT + small pages: disk-tier heavy
			o.Queue = QueueHybrid
			o.HybridDT = 4
			o.QueuePageSize = 256
		}},
	}
}

// checkOracle asserts the delivered stream is a correct ordered prefix of
// the oracle (which is already MaxDist-filtered and distance-sorted).
func checkOracle(t *testing.T, got []Pair, oracle []bruteResult, res harnessResult, wantN int, mustComplete bool) {
	t.Helper()
	if len(got) > wantN {
		t.Fatalf("delivered %d pairs, result has only %d", len(got), wantN)
	}
	byPair := make(map[[2]rtree.ObjID]float64, len(oracle))
	for _, r := range oracle {
		byPair[[2]rtree.ObjID{rtree.ObjID(r.i), rtree.ObjID(r.j)}] = r.d
	}
	seen := make(map[[2]rtree.ObjID]bool, len(got))
	last := math.Inf(-1)
	for i, p := range got {
		if math.Abs(p.Dist-oracle[i].d) > 1e-9 {
			t.Fatalf("pair %d: dist %g, oracle %g — stream is not the oracle prefix", i, p.Dist, oracle[i].d)
		}
		if p.Dist < last-1e-12 {
			t.Fatalf("pair %d: distance %g after %g — order violated", i, p.Dist, last)
		}
		last = p.Dist
		key := [2]rtree.ObjID{p.Obj1, p.Obj2}
		d, ok := byPair[key]
		if !ok {
			t.Fatalf("pair %d: (%d,%d) not in oracle result", i, p.Obj1, p.Obj2)
		}
		if math.Abs(p.Dist-d) > 1e-9 {
			t.Fatalf("pair %d: (%d,%d) reported at %g, true distance %g", i, p.Obj1, p.Obj2, p.Dist, d)
		}
		if seen[key] {
			t.Fatalf("pair %d: (%d,%d) delivered twice", i, p.Obj1, p.Obj2)
		}
		seen[key] = true
	}
	if res.err == nil && len(got) != wantN {
		t.Fatalf("clean run delivered %d pairs, want %d — silent truncation", len(got), wantN)
	}
	if mustComplete && res.err != nil {
		t.Fatalf("schedule must complete but failed after %d pairs: %v", len(got), res.err)
	}
}

// runCase drives one join to exhaustion or error under a deadline.
func runCase(t *testing.T, mk func() (*Join, error)) harnessResult {
	t.Helper()
	out := make(chan harnessResult, 1)
	go func() {
		var res harnessResult
		j, err := mk()
		if err != nil {
			res.err = err
			out <- res
			return
		}
		for {
			p, ok, err := j.Next()
			if err != nil {
				res.err = err
				// Terminal-state contract: the error is sticky and Err
				// agrees with it.
				if _, _, again := j.Next(); !errors.Is(again, err) {
					res.err = errors.Join(err, errors.New("harness: error not latched on repeated Next"))
				}
				if le := j.Err(); !errors.Is(le, err) {
					res.err = errors.Join(err, errors.New("harness: Err() disagrees with Next error"))
				}
				break
			}
			if !ok {
				break
			}
			res.pairs = append(res.pairs, p)
		}
		j.Close()
		out <- res
	}()
	select {
	case res := <-out:
		return res
	case <-time.After(testTimeout):
		t.Fatalf("join hung for %v", testTimeout)
		return harnessResult{}
	}
}

// TestDifferentialFaultHarness is the acceptance harness: 240 randomized
// cases of workload seed × queue config × fault schedule × parallelism.
func TestDifferentialFaultHarness(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	schedules := harnessSchedules()
	queues := harnessQueues()
	seeds := []int64{1, 2, 3, 4, 5}
	cases := 0
	for _, seed := range seeds {
		a := clusteredPoints(seed*100+1, 55)
		b := clusteredPoints(seed*100+2, 65)
		fullOracle := bruteJoin(a, b, geom.Euclidean)

		// Derive the workload's result bounds deterministically from the
		// seed: every other seed caps MaxPairs (exercising the §2.2.4
		// estimation), every third seed caps MaxDist.
		maxPairs, maxDist := 0, 0.0
		if seed%2 == 0 {
			maxPairs = int(seed*137) % len(fullOracle)
		}
		oracle := fullOracle
		if seed%3 == 0 {
			cut := len(fullOracle) / 3
			// Halfway between two distinct distances, so inclusive versus
			// exclusive boundary handling cannot matter.
			for cut+1 < len(fullOracle) && fullOracle[cut+1].d == fullOracle[cut].d {
				cut++
			}
			if cut+1 < len(fullOracle) {
				maxDist = (fullOracle[cut].d + fullOracle[cut+1].d) / 2
				oracle = fullOracle[:cut+1]
			}
		}
		wantN := len(oracle)
		if maxPairs > 0 && maxPairs < wantN {
			wantN = maxPairs
		}

		for _, qc := range queues {
			for _, fs := range schedules {
				// The par legs set the deprecated Options.Parallelism, which
				// must change nothing: they meet the same oracle.
				for _, par := range []int{1, 3} {
					p := "seq"
					if par > 1 {
						p = "par"
					}
					name := fmt.Sprintf("seed%d/%s/%s/%s", seed, qc.name, fs.name, p)
					fs, qc, par, seed := fs, qc, par, seed
					t.Run(name, func(t *testing.T) {
						cases++
						ta := WrapRTree(buildTree(t, a))
						var tb *rtree.Tree
						var treeStore *faultstore.Store
						if fs.treeFaults != nil {
							cfg := *fs.treeFaults
							cfg.Seed = seed * 31
							tb, treeStore = buildFaultTree(t, b, cfg, fs.treeRetry)
							treeStore.SetArmed(true)
						} else {
							tb = buildTree(t, b)
						}

						counters := &stats.Counters{}
						opts := Options{
							MaxPairs:    maxPairs,
							MaxDist:     maxDist,
							Parallelism: par,
							Counters:    counters,
							RetryIO:     fs.retry,
						}
						qc.apply(&opts)
						var queueStores storeLog
						if opts.Queue == QueueHybrid {
							qcfg := fs.queueFaults
							qcfg.Seed = seed * 17
							opts.QueueStore = queueStores.factory(qcfg)
						}

						res := runCase(t, func() (*Join, error) { return NewJoinIndexes(ta, WrapRTree(tb), opts) })
						checkOracle(t, res.pairs, oracle, res, wantN, fs.mustComplete)
						if res.err != nil && !errors.Is(res.err, faultstore.ErrInjected) &&
							!errors.Is(res.err, pqueue.ErrPageChecksum) {
							t.Fatalf("surfaced error does not trace back to the injected fault: %v", res.err)
						}
						// An op-count schedule that never reaches its count passes
						// vacuously: it must have injected its fault.
						if fs.mustFire && treeStore != nil && !treeStore.Stats().Crashed {
							t.Fatalf("schedule %+v never fired: the tree store saw %d ops", *fs.treeFaults, treeStore.Stats().Ops)
						}
						if fs.mustFire && fs.treeFaults == nil && opts.Queue == QueueHybrid {
							if st := queueStores.injected(); st.PermanentErrors+st.CorruptedReads == 0 && !st.Crashed {
								t.Fatalf("schedule %+v never fired: the queue stores saw %d reads, %d writes, %d ops",
									fs.queueFaults, st.Reads, st.Writes, st.Ops)
							}
						}
						if fs.name == "transient-retried" && opts.Queue == QueueHybrid {
							snap := counters.Snapshot()
							if snap.IOFaults > 0 && snap.IORetries == 0 {
								t.Fatalf("IOFaults=%d but IORetries=0: retries not accounted", snap.IOFaults)
							}
						}
					})
				}
			}
		}
	}
	if cases < 200 {
		t.Fatalf("harness ran %d cases, acceptance requires 200+", cases)
	}
	waitForGoroutines(t, goroutinesBefore)
}

// waitForGoroutines asserts the goroutine count returns to (near) the
// baseline: a failed or canceled run must leave nothing running.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelPartitionFailureCancelsSiblings: with the deprecated
// Options.Parallelism set and the queue store failing permanently, the run
// surfaces the error within the timeout after a correct prefix, and no
// goroutine outlives it.
func TestParallelPartitionFailureCancelsSiblings(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	a := clusteredPoints(71, 120)
	b := clusteredPoints(72, 140)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))

	opts := Options{
		Parallelism:   4,
		Queue:         QueueHybrid,
		HybridDT:      4,
		QueuePageSize: 256,
		QueueStore: func(pageSize int) (pager.Store, error) {
			mem, err := pager.NewMemStore(pageSize)
			if err != nil {
				return nil, err
			}
			return faultstore.New(mem, faultstore.Config{Seed: 1, FailWriteAt: 10}), nil
		},
	}
	res := runCase(t, func() (*Join, error) { return NewJoinIndexes(ta, tb, opts) })
	if res.err == nil {
		t.Fatal("a permanently failing queue store completed cleanly")
	}
	if !errors.Is(res.err, faultstore.ErrInjected) {
		t.Fatalf("error is not the injected fault: %v", res.err)
	}
	oracle := bruteJoin(a, b, geom.Euclidean)
	checkOracle(t, res.pairs, oracle, res, len(oracle), false)
	waitForGoroutines(t, goroutinesBefore)
}
