package distjoin

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"distjoin/internal/faultstore"
	"distjoin/internal/pager"
)

// Iterator-misuse coverage: Next after exhaustion, Next after Close,
// double Close, Abort after Close, Close mid-run, and error
// stickiness — the terminal-state machine of the public API. Every
// operator returns a *Join, so every row of one table answers to the same
// contract.

// iterCase is one row of the contract table: an operator over a pair of
// fixtures, and the number of pairs a full drain delivers.
type iterCase struct {
	name string
	open func(opts Options) (*Join, error)
	want int
}

// iterCases is the contract table: the four operators on an R-tree pair
// and on an R-tree × quadtree pair.
func iterCases(t *testing.T) []iterCase {
	const na, nb = 30, 35
	b := clusteredPoints(42, nb)
	ra := WrapRTree(buildTree(t, clusteredPoints(41, na)))
	var cases []iterCase
	for _, fx := range []struct {
		name string
		b    SpatialIndex
	}{
		{"rtree×rtree", WrapRTree(buildTree(t, b))},
		{"rtree×quadtree", WrapQuadtree(buildQuadtree(t, b))},
	} {
		rb := fx.b
		cases = append(cases,
			iterCase{"join/" + fx.name, func(o Options) (*Join, error) {
				return NewJoinIndexes(ra, rb, o)
			}, na * nb},
			iterCase{"semijoin/" + fx.name, func(o Options) (*Join, error) {
				return NewSemiJoinIndexes(ra, rb, FilterGlobalAll, o)
			}, na},
			iterCase{"knn/" + fx.name, func(o Options) (*Join, error) {
				return NewKNearestJoinIndexes(ra, rb, 3, FilterGlobalAll, o)
			}, 3 * na},
			iterCase{"clustering/" + fx.name, func(o Options) (*Join, error) {
				return NewClusteringJoinIndexes(ra, rb, FilterInside2, o)
			}, na},
		)
	}
	return cases
}

// mustOpen opens the row's operator or fails the test.
func (c iterCase) mustOpen(t *testing.T, opts Options) *Join {
	t.Helper()
	j, err := c.open(opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return j
}

func TestNextAfterExhaustion(t *testing.T) {
	for _, c := range iterCases(t) {
		j := c.mustOpen(t, Options{})
		if n := len(drainJoin(t, j, 0)); n != c.want {
			t.Fatalf("%s: drained %d pairs, want %d", c.name, n, c.want)
		}
		for i := 0; i < 3; i++ {
			if _, ok, err := j.Next(); ok || err != nil {
				t.Fatalf("%s: Next after exhaustion: ok=%v err=%v, want quiet false", c.name, ok, err)
			}
		}
		if j.Err() != nil {
			t.Fatalf("%s: Err after clean exhaustion: %v", c.name, j.Err())
		}
		if err := j.Close(); err != nil {
			t.Fatalf("%s: Close: %v", c.name, err)
		}
		if j.Err() != nil {
			t.Fatalf("%s: Err after clean close: %v", c.name, j.Err())
		}
	}
}

func TestNextAfterClose(t *testing.T) {
	for _, c := range iterCases(t) {
		j := c.mustOpen(t, Options{})
		if _, _, err := j.Next(); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := j.Next(); ok || !errors.Is(err, ErrIteratorClosed) {
			t.Fatalf("%s: Next after Close: ok=%v err=%v, want ErrIteratorClosed", c.name, ok, err)
		}
	}
}

func TestDoubleClose(t *testing.T) {
	for _, c := range iterCases(t) {
		j := c.mustOpen(t, Options{})
		if err := j.Close(); err != nil {
			t.Fatalf("%s: first Close: %v", c.name, err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("%s: second Close: %v", c.name, err)
		}
	}
}

// TestAbortAfterClose: Abort on a closed iterator does nothing, as Close
// does. It must not latch its cause as the terminal error of a run whose
// Close already landed it clean, nor replace the cause an earlier Abort
// latched.
func TestAbortAfterClose(t *testing.T) {
	late := errors.New("late abort")
	for _, c := range iterCases(t) {
		j := c.mustOpen(t, Options{})
		drainJoin(t, j, 5)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if err := j.Abort(late); err != nil {
			t.Fatalf("%s: Abort after Close = %v, want nil", c.name, err)
		}
		if err := j.Err(); err != nil {
			t.Fatalf("%s: Err after Close then Abort = %v, want nil", c.name, err)
		}

		first := errors.New("first abort")
		j = c.mustOpen(t, Options{})
		if err := j.Abort(first); err != nil {
			t.Fatal(err)
		}
		if err := j.Abort(late); err != nil {
			t.Fatalf("%s: second Abort = %v, want nil", c.name, err)
		}
		if err := j.Err(); err != first {
			t.Fatalf("%s: Err after two Aborts = %v, want the first cause", c.name, err)
		}
		if _, _, err := j.Next(); !errors.Is(err, ErrIteratorClosed) {
			t.Fatalf("%s: Next after Abort = %v, want ErrIteratorClosed", c.name, err)
		}
	}
}

// TestSemiJoinEffectiveMaxDist: with MaxPairs the §2.3 estimation tightens
// the semi-join's maximum distance, but never below a distance it has
// already reported — the bound in force covers the whole delivered prefix.
func TestSemiJoinEffectiveMaxDist(t *testing.T) {
	a, b := clusteredPoints(45, 400), clusteredPoints(46, 500)
	ra := WrapRTree(buildTree(t, a))
	tightened := false
	for _, rb := range []SpatialIndex{WrapRTree(buildTree(t, b)), WrapQuadtree(buildQuadtree(t, b))} {
		for _, k := range []int{1, 10, 60, 250} {
			j, err := NewSemiJoinIndexes(ra, rb, FilterGlobalAll, Options{MaxPairs: k})
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; ; n++ {
				p, ok, err := j.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					if n != k {
						t.Fatalf("MaxPairs %d: delivered %d pairs", k, n)
					}
					break
				}
				if d := j.EffectiveMaxDist(); d < p.Dist {
					t.Fatalf("MaxPairs %d, pair %d at %g: EffectiveMaxDist %g is below it", k, n, p.Dist, d)
				} else if !math.IsInf(d, 1) {
					tightened = true
				}
			}
			j.Close()
		}
	}
	if !tightened {
		t.Fatal("the estimation never tightened the bound: the check saw nothing")
	}
}

// TestCloseMidParallelJoin closes a running join that sets the deprecated
// Options.Parallelism after a few pairs and checks no goroutine is left
// behind.
func TestCloseMidParallelJoin(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ta := WrapRTree(buildTree(t, clusteredPoints(51, 150)))
		tb := WrapRTree(buildTree(t, clusteredPoints(52, 170)))
		j, err := NewJoinIndexes(ta, tb, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			if _, ok, err := j.Next(); err != nil || !ok {
				t.Fatalf("pair %d: ok=%v err=%v", k, ok, err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitForGoroutines(t, baseline)
}

// TestErrorIsSticky drives a join into a storage error, and every operator
// into a cancellation, and checks the public iterator latches it: repeated
// Next returns the same error, Err() agrees, and a later Abort does not
// replace it.
func TestErrorIsSticky(t *testing.T) {
	ta := WrapRTree(buildTree(t, clusteredPoints(61, 60)))
	tb := WrapRTree(buildTree(t, clusteredPoints(62, 70)))
	j, err := NewJoinIndexes(ta, tb, Options{
		Queue:         QueueHybrid,
		HybridDT:      4,
		QueuePageSize: 256,
		QueueStore: func(pageSize int) (pager.Store, error) {
			mem, err := pager.NewMemStore(pageSize)
			if err != nil {
				return nil, err
			}
			return faultstore.New(mem, faultstore.Config{Seed: 8, FailReadAt: 2}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var firstErr error
	for {
		_, ok, err := j.Next()
		if err != nil {
			firstErr = err
			break
		}
		if !ok {
			break
		}
	}
	if firstErr == nil {
		t.Fatal("fault schedule never fired: the join completed without reading a queue page twice")
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := j.Next(); ok || !errors.Is(err, firstErr) {
			t.Fatalf("Next %d after error: ok=%v err=%v, want latched %v", i, ok, err, firstErr)
		}
	}
	if !errors.Is(j.Err(), firstErr) {
		t.Fatalf("Err() = %v, want %v", j.Err(), firstErr)
	}
	if !errors.Is(firstErr, faultstore.ErrInjected) {
		t.Fatalf("error lost its cause chain: %v", firstErr)
	}
	for _, c := range iterCases(t) {
		ctx, cancel := context.WithCancel(context.Background())
		j := c.mustOpen(t, Options{Context: ctx})
		if _, ok, err := j.Next(); !ok || err != nil {
			t.Fatalf("%s: first pair: ok=%v err=%v", c.name, ok, err)
		}
		cancel()
		for i := 0; i < 3; i++ {
			if _, ok, err := j.Next(); ok || !errors.Is(err, ErrCanceled) {
				t.Fatalf("%s: Next %d after cancel: ok=%v err=%v, want ErrCanceled", c.name, i, ok, err)
			}
		}
		if err := j.Abort(errors.New("teardown")); err != nil {
			t.Fatalf("%s: Abort: %v", c.name, err)
		}
		if !errors.Is(j.Err(), ErrCanceled) {
			t.Fatalf("%s: Err() = %v, want the latched ErrCanceled", c.name, j.Err())
		}
	}
}
