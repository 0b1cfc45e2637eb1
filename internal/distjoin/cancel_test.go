package distjoin

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"distjoin/internal/faultstore"
	"distjoin/internal/pager"
	"distjoin/internal/rtree"
	"distjoin/internal/stats"
)

// ---------------------------------------------------------------------------
// Cancellation sweep: the stop-anytime dual of the fault harness. A canceled
// run must deliver exactly the ordered prefix it was allowed to produce,
// then latch a sticky ErrCanceled — never a wrong pair, never a hang, never
// a leaked goroutine or pinned pager frame.
// ---------------------------------------------------------------------------

// assertStoreConserved checks a hybrid engine's disk tier while quiescent:
// the pages allocated in its store are exactly those its class chains link —
// a cancellation that struck mid-spill or mid-fetch must not leak a page or
// drop a chain.
func assertStoreConserved(t *testing.T, it *Join) {
	t.Helper()
	if e := it.e; e.q.disk != nil {
		if err := e.q.disk.CheckStore(); err != nil {
			t.Fatalf("after cancellation: %v", err)
		}
	}
}

// drainReference runs one configuration to completion with no context and
// returns the full delivered stream as the oracle for canceled prefixes.
func drainReference(t *testing.T, mk func(opts Options) (*Join, error), opts Options) []Pair {
	t.Helper()
	it, err := mk(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var ref []Pair
	for {
		p, ok, err := it.Next()
		if err != nil {
			t.Fatalf("reference run failed after %d pairs: %v", len(ref), err)
		}
		if !ok {
			return ref
		}
		ref = append(ref, p)
	}
}

// checkCanceledPrefix asserts got is a correct ordered prefix of ref:
// distances match positionally (so tie reorderings between runs cannot
// produce spurious failures) and every delivered pair exists in ref at its
// reported distance, with no duplicates.
func checkCanceledPrefix(t *testing.T, got, ref []Pair) {
	t.Helper()
	if len(got) > len(ref) {
		t.Fatalf("canceled run delivered %d pairs, reference has %d", len(got), len(ref))
	}
	byPair := make(map[[2]rtree.ObjID]float64, len(ref))
	for _, p := range ref {
		byPair[[2]rtree.ObjID{p.Obj1, p.Obj2}] = p.Dist
	}
	seen := make(map[[2]rtree.ObjID]bool, len(got))
	for i, p := range got {
		if math.Abs(p.Dist-ref[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: dist %g, reference %g — not the ordered prefix", i, p.Dist, ref[i].Dist)
		}
		key := [2]rtree.ObjID{p.Obj1, p.Obj2}
		d, ok := byPair[key]
		if !ok {
			t.Fatalf("pair %d: (%d,%d) not in the reference result", i, p.Obj1, p.Obj2)
		}
		if math.Abs(p.Dist-d) > 1e-9 {
			t.Fatalf("pair %d: (%d,%d) at %g, true distance %g", i, p.Obj1, p.Obj2, p.Dist, d)
		}
		if seen[key] {
			t.Fatalf("pair %d: (%d,%d) delivered twice", i, p.Obj1, p.Obj2)
		}
		seen[key] = true
	}
}

// TestCancellationSweep is the acceptance sweep: cancel at evenly spread
// points of the stream across {join, semijoin, knn} × {memory, hybrid} ×
// {seq, par}, 100+ cancellation points total. The par legs set the
// deprecated Options.Parallelism, which must change nothing: their prefixes
// are checked against the seq reference. At every point the delivered
// pairs must be the exact ordered prefix, the very next Next must
// surface ErrCanceled (bounded cancel latency: the check sits at the top of
// every step), the error must be sticky, the cancellation must be counted
// once, and nothing may leak.
func TestCancellationSweep(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	a := clusteredPoints(901, 55)
	b := clusteredPoints(902, 65)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))

	kinds := []struct {
		name string
		mk   func(opts Options) (*Join, error)
	}{
		{"join", func(opts Options) (*Join, error) {
			opts.MaxPairs = 400
			return NewJoinIndexes(ta, tb, opts)
		}},
		{"semijoin", func(opts Options) (*Join, error) {
			return NewSemiJoinIndexes(ta, tb, FilterGlobalAll, opts)
		}},
		{"knn", func(opts Options) (*Join, error) {
			return NewKNearestJoinIndexes(ta, tb, 3, FilterGlobalAll, opts)
		}},
	}
	queues := []queueConfig{
		{"mem", func(o *Options) { o.Queue = QueueMemory }},
		{"hybrid", func(o *Options) {
			o.Queue = QueueHybrid
			o.HybridDT = 20
			o.QueueStore = memQueueStore
		}},
	}

	const pointsPerConfig = 10
	totalPoints := 0
	for _, kd := range kinds {
		for _, qc := range queues {
			for _, par := range []int{1, 3} {
				p := "seq"
				if par > 1 {
					p = "par"
				}
				kd, qc, par := kd, qc, par
				t.Run(fmt.Sprintf("%s/%s/%s", kd.name, qc.name, p), func(t *testing.T) {
					base := Options{Parallelism: par}
					qc.apply(&base)
					seq := base
					seq.Parallelism = 0
					ref := drainReference(t, kd.mk, seq)
					if len(ref) < pointsPerConfig {
						t.Fatalf("reference run too small: %d pairs", len(ref))
					}
					for i := 0; i < pointsPerConfig; i++ {
						cut := i * len(ref) / pointsPerConfig
						totalPoints++
						ctx, cancel := context.WithCancel(context.Background())
						opts := base
						opts.Context = ctx
						opts.Counters = &stats.Counters{}
						it, err := kd.mk(opts)
						if err != nil {
							cancel()
							t.Fatal(err)
						}
						var got []Pair
						for len(got) < cut {
							p, ok, err := it.Next()
							if err != nil || !ok {
								cancel()
								t.Fatalf("cut %d: run ended early at %d pairs (ok=%v err=%v)", cut, len(got), ok, err)
							}
							got = append(got, p)
						}
						cancel()
						// Bounded cancel latency: the very next Next after the
						// cancel must surface the error — no extra pairs.
						_, ok, err := it.Next()
						if ok || err == nil {
							t.Fatalf("cut %d: Next after cancel returned ok=%v err=%v", cut, ok, err)
						}
						if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
							t.Fatalf("cut %d: error %v does not wrap ErrCanceled and context.Canceled", cut, err)
						}
						// Sticky terminal state: repeated Next and Err agree.
						if _, _, again := it.Next(); !errors.Is(again, err) {
							t.Fatalf("cut %d: error not latched: %v then %v", cut, err, again)
						}
						if le := it.Err(); !errors.Is(le, ErrCanceled) {
							t.Fatalf("cut %d: Err() = %v, want ErrCanceled", cut, le)
						}
						checkCanceledPrefix(t, got, ref)
						assertStoreConserved(t, it)
						if err := it.Close(); err != nil {
							t.Fatalf("cut %d: close after cancel: %v", cut, err)
						}
						if n := opts.Counters.Snapshot().Cancellations; n != 1 {
							t.Fatalf("cut %d: Cancellations = %d, want 1", cut, n)
						}
					}
				})
			}
		}
	}
	if totalPoints < 100 {
		t.Fatalf("sweep exercised %d cancellation points, acceptance requires 100+", totalPoints)
	}
	waitForGoroutines(t, goroutinesBefore)
}

// TestDeadlineCancellation checks the deadline flavour: a context that times
// out mid-run surfaces an error wrapping both ErrCanceled and
// context.DeadlineExceeded, and context.Cause's verdict rides along.
func TestDeadlineCancellation(t *testing.T) {
	a := clusteredPoints(903, 80)
	b := clusteredPoints(904, 90)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	j, err := NewJoinIndexes(ta, tb, Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var n int
	for {
		_, ok, err := j.Next()
		if err != nil {
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("error %v does not wrap ErrCanceled and DeadlineExceeded", err)
			}
			return
		}
		if !ok {
			t.Skip("join exhausted before the 1ms deadline fired")
		}
		n++
		// Park until the deadline has certainly lapsed; the next step's
		// cancel check must then fire.
		if n == 1 {
			<-ctx.Done()
		}
	}
}

// TestCancelSeenBeforeMaxPairs: a run canceled after its MaxPairs-th pair was
// delivered, but before any Next said "exhausted", ends canceled — the
// cancellation check comes before the MaxPairs shortcut. (A served cursor
// drawn with exactly k = MaxPairs and then hard-canceled must answer 410, not
// 200 done.) An engine that has already reported exhaustion stays done.
func TestCancelSeenBeforeMaxPairs(t *testing.T) {
	ta, tb := WrapRTree(buildTree(t, clusteredPoints(911, 40))), WrapRTree(buildTree(t, clusteredPoints(912, 50)))
	const k = 25
	iters := map[string]func(Options) (*Join, error){
		"join": func(o Options) (*Join, error) { return NewJoinIndexes(ta, tb, o) },
		"semi": func(o Options) (*Join, error) { return NewSemiJoinIndexes(ta, tb, FilterGlobalAll, o) },
	}
	for name, mk := range iters {
		for _, queue := range []QueueKind{QueueMemory, QueueHybrid} {
			for _, sawEnd := range []bool{false, true} {
				ctx, cancel := context.WithCancel(context.Background())
				it, err := mk(Options{Context: ctx, MaxPairs: k, Queue: queue, HybridDT: 20, QueueStore: memQueueStore})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < k; i++ {
					if _, ok, err := it.Next(); !ok || err != nil {
						t.Fatalf("%s/%s: pair %d: ok=%v err=%v", name, queue, i, ok, err)
					}
				}
				if sawEnd {
					if _, ok, err := it.Next(); ok || err != nil {
						t.Fatalf("%s/%s: Next after pair %d: ok=%v err=%v, want exhausted", name, queue, k, ok, err)
					}
				}
				cancel()
				_, ok, err := it.Next()
				switch {
				case ok:
					t.Fatalf("%s/%s: a pair beyond MaxPairs", name, queue)
				case sawEnd && err != nil:
					t.Fatalf("%s/%s: exhausted, then canceled: Next = %v, want still exhausted", name, queue, err)
				case !sawEnd && !errors.Is(err, ErrCanceled):
					t.Fatalf("%s/%s: canceled right after pair %d: Next = %v, want ErrCanceled", name, queue, k, err)
				}
				it.Close()
			}
		}
	}
}

// TestCancelSeenBeforeMaxPairsParallel is the same check with the
// deprecated Options.Parallelism set, which changes nothing: only a call
// that reports the end makes the run done — a cancel that lands between the
// MaxPairs-th pair and that call is answered ErrCanceled — and no goroutine
// outlives Close.
func TestCancelSeenBeforeMaxPairsParallel(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	ta, tb := WrapRTree(buildTree(t, clusteredPoints(910, 120))), WrapRTree(buildTree(t, clusteredPoints(911, 140)))
	const k = 25
	for _, queue := range []QueueKind{QueueMemory, QueueHybrid} {
		for _, sawEnd := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			j, err := NewJoinIndexes(ta, tb, Options{Context: ctx, MaxPairs: k, Parallelism: 4, Queue: queue, HybridDT: 8, QueueStore: memQueueStore})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if _, ok, err := j.Next(); !ok || err != nil {
					t.Fatalf("%s: pair %d: ok=%v err=%v", queue, i, ok, err)
				}
			}
			if sawEnd {
				if _, ok, err := j.Next(); ok || err != nil {
					t.Fatalf("%s: Next after pair %d: ok=%v err=%v, want exhausted", queue, k, ok, err)
				}
			}
			cancel()
			_, ok, err := j.Next()
			switch {
			case ok:
				t.Fatalf("%s: a pair beyond MaxPairs", queue)
			case sawEnd && err != nil:
				t.Fatalf("%s: exhausted, then canceled: Next = %v, want still exhausted", queue, err)
			case !sawEnd && !errors.Is(err, ErrCanceled):
				t.Fatalf("%s: canceled right after pair %d: Next = %v, want ErrCanceled", queue, k, err)
			}
			if err := j.Close(); err != nil {
				t.Fatalf("%s: close: %v", queue, err)
			}
		}
	}
	waitForGoroutines(t, goroutinesBefore)
}

// TestCancelCausePropagates checks that a custom cancellation cause set via
// context.WithCancelCause is preserved on the surfaced error chain.
func TestCancelCausePropagates(t *testing.T) {
	a := clusteredPoints(905, 40)
	b := clusteredPoints(906, 40)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))

	reason := errors.New("operator killed the query")
	ctx, cancel := context.WithCancelCause(context.Background())
	j, err := NewJoinIndexes(ta, tb, Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, _, err := j.Next(); err != nil {
		t.Fatal(err)
	}
	cancel(reason)
	if _, _, err := j.Next(); !errors.Is(err, reason) || !errors.Is(err, ErrCanceled) {
		t.Fatalf("error %v does not carry the cancellation cause", err)
	}
}

// TestCancelInterruptsRetryBackoff wires a huge retry backoff against a
// permanently failing hybrid-queue store and cancels mid-ladder: the engine
// context must cut the backoff sleep short (pager.ErrRetryInterrupted under
// the hood) and surface ErrCanceled promptly instead of sleeping out the
// ladder — and no pager frame may stay pinned behind it.
func TestCancelInterruptsRetryBackoff(t *testing.T) {
	a := clusteredPoints(907, 60)
	b := clusteredPoints(908, 70)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{
		Context:       ctx,
		Queue:         QueueHybrid,
		HybridDT:      4,
		QueuePageSize: 256,
		// A ladder that would sleep for minutes if uninterrupted.
		RetryIO: pager.RetryPolicy{MaxAttempts: 1000, Backoff: 10 * time.Second},
		QueueStore: func(pageSize int) (pager.Store, error) {
			mem, err := pager.NewMemStore(pageSize)
			if err != nil {
				return nil, err
			}
			return faultstore.New(mem, faultstore.Config{
				Seed:               909,
				TransientWriteProb: 1, // every write fails: the retry ladder engages at once
			}), nil
		},
	}
	j, err := NewJoinIndexes(ta, tb, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// Cancel while the engine is (almost certainly) in its first backoff.
	time.AfterFunc(50*time.Millisecond, func() { cancel() })
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		for {
			_, ok, err := j.Next()
			if err != nil || !ok {
				done <- err
				return
			}
		}
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("interrupted retry surfaced %v, want ErrCanceled", err)
		}
		if !errors.Is(err, pager.ErrRetryInterrupted) && !errors.Is(err, context.Canceled) {
			t.Fatalf("error %v names neither the interrupted ladder nor the canceled context", err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("cancellation took %v to cut the backoff ladder", d)
		}
		assertStoreConserved(t, j)
	case <-time.After(testTimeout):
		t.Fatalf("canceled retry ladder still sleeping after %v", testTimeout)
	}
}

// TestCanceledParallelJoinLeaksNothing cancels a hybrid join that sets the
// deprecated Options.Parallelism mid-stream and asserts Next surfaces
// ErrCanceled, Close is clean and no goroutine is left behind.
func TestCanceledParallelJoinLeaksNothing(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	a := clusteredPoints(910, 120)
	b := clusteredPoints(911, 140)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j, err := NewJoinIndexes(ta, tb, Options{
		Context:       ctx,
		Parallelism:   4,
		Queue:         QueueHybrid,
		HybridDT:      8,
		QueueStore:    memQueueStore,
		QueuePageSize: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, ok, err := j.Next(); err != nil || !ok {
			t.Fatalf("pair %d: ok=%v err=%v", i, ok, err)
		}
	}
	cancel()
	if _, ok, err := j.Next(); ok || !errors.Is(err, ErrCanceled) {
		t.Fatalf("Next after cancel: ok=%v err=%v", ok, err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close after cancel: %v", err)
	}
	waitForGoroutines(t, goroutinesBefore)
}

// TestBackgroundContextZeroCost pins the zero-overhead claim structurally: a
// nil Options.Context and an explicit context.Background() both leave the
// engine's cancellation channel nil, so the hot loop's only cost is one nil
// test.
func TestBackgroundContextZeroCost(t *testing.T) {
	a := clusteredPoints(912, 30)
	b := clusteredPoints(913, 30)
	ta, tb := WrapRTree(buildTree(t, a)), WrapRTree(buildTree(t, b))

	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"nil", nil},
		{"background", context.Background()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, err := NewJoinIndexes(ta, tb, Options{Context: tc.ctx})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if j.e.ctxDone != nil {
				t.Fatal("background context produced a non-nil cancellation channel — hot path would pay for it")
			}
			if _, ok, err := j.Next(); err != nil || !ok {
				t.Fatalf("Next: ok=%v err=%v", ok, err)
			}
		})
	}
}
