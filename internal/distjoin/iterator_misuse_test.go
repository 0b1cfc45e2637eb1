package distjoin

import (
	"errors"
	"runtime"
	"testing"

	"distjoin/internal/faultstore"
	"distjoin/internal/pager"
)

// Iterator-misuse coverage: Next after exhaustion, Next after Close,
// double Close, Close mid-parallel-join, and error stickiness — the
// terminal-state machine of the public API.

func smallJoin(t *testing.T, opts Options) *Join {
	t.Helper()
	ta := buildTree(t, clusteredPoints(41, 30))
	tb := buildTree(t, clusteredPoints(42, 35))
	j, err := NewJoin(ta, tb, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestNextAfterExhaustion(t *testing.T) {
	j := smallJoin(t, Options{})
	defer j.Close()
	n := 0
	for {
		_, ok, err := j.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 30*35 {
		t.Fatalf("drained %d pairs, want %d", n, 30*35)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := j.Next(); ok || err != nil {
			t.Fatalf("Next after exhaustion: ok=%v err=%v, want quiet false", ok, err)
		}
	}
	if j.Err() != nil {
		t.Fatalf("Err after clean exhaustion: %v", j.Err())
	}
}

func TestNextAfterClose(t *testing.T) {
	for _, par := range []int{1, 3} {
		j := smallJoin(t, Options{Parallelism: par})
		if _, _, err := j.Next(); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := j.Next(); ok || !errors.Is(err, ErrIteratorClosed) {
			t.Fatalf("parallelism %d: Next after Close: ok=%v err=%v, want ErrIteratorClosed", par, ok, err)
		}
	}
}

func TestDoubleClose(t *testing.T) {
	for _, par := range []int{1, 3} {
		j := smallJoin(t, Options{Parallelism: par})
		if err := j.Close(); err != nil {
			t.Fatalf("parallelism %d: first Close: %v", par, err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("parallelism %d: second Close: %v", par, err)
		}
	}
}

func TestSemiJoinMisuse(t *testing.T) {
	ta := buildTree(t, clusteredPoints(43, 25))
	tb := buildTree(t, clusteredPoints(44, 25))
	s, err := NewSemiJoin(ta, tb, FilterGlobalAll, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if _, ok, err := s.Next(); ok || err != nil {
		t.Fatalf("Next after exhaustion: ok=%v err=%v", ok, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if _, _, err := s.Next(); !errors.Is(err, ErrIteratorClosed) {
		t.Fatalf("Next after Close: %v", err)
	}
	if s.Err() != nil {
		t.Fatalf("Err after clean close: %v", s.Err())
	}
}

// TestCloseMidParallelJoin closes a running parallel join after a few
// pairs and checks every partition worker exits (no goroutine leak).
func TestCloseMidParallelJoin(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ta := buildTree(t, clusteredPoints(51, 150))
		tb := buildTree(t, clusteredPoints(52, 170))
		j, err := NewJoin(ta, tb, Options{Parallelism: 4})
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

// TestErrorIsSticky drives a join into a storage error and checks the
// public iterator latches it: repeated Next returns the same error and
// Err() agrees.
func TestErrorIsSticky(t *testing.T) {
	ta := buildTree(t, clusteredPoints(61, 60))
	tb := buildTree(t, clusteredPoints(62, 70))
	j, err := NewJoin(ta, tb, Options{
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
}
