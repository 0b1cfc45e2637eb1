package pqueue

import (
	"errors"
	"testing"
	"time"

	"distjoin/internal/faultstore"
	"distjoin/internal/pager"
)

// spillElems inserts n elements far enough beyond D2 to land on the disk
// tier (DT=1, distances in [10, 10+n)).
func spillElems(t *testing.T, q *HybridQueue[elem], n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := q.Insert(elem{dist: 10 + float64(i%7), id: uint64(i)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if q.Len() != n {
		t.Fatalf("Len=%d want %d", q.Len(), n)
	}
}

func newFaultHybrid(t *testing.T, cfg faultstore.Config) (*HybridQueue[elem], *faultstore.Store) {
	t.Helper()
	mem, err := pager.NewMemStore(128)
	if err != nil {
		t.Fatal(err)
	}
	fs := faultstore.New(mem, cfg)
	q, err := NewHybridQueue[elem](elemLess, elemKey, elemCodec{}, HybridConfig{
		DT: 1, PageSize: 128, Store: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q, fs
}

// TestHybridDetectsCorruption: a page corrupted below the queue must
// surface as ErrPageChecksum, never decode into garbage elements.
func TestHybridDetectsCorruption(t *testing.T) {
	q, fs := newFaultHybrid(t, faultstore.Config{Seed: 3, CorruptReadProb: 1})
	fs.SetArmed(false)
	spillElems(t, q, 200) // many pages across several buckets
	fs.SetArmed(true)

	var firstErr error
	for i := 0; i < 220; i++ {
		if _, ok, err := q.Pop(); err != nil {
			firstErr = err
			break
		} else if !ok {
			break
		}
	}
	if !errors.Is(firstErr, ErrPageChecksum) {
		t.Fatalf("want ErrPageChecksum, got %v", firstErr)
	}
	if fs.Stats().CorruptedReads == 0 {
		t.Fatal("no corruption was actually injected")
	}
}

// TestHybridPoisonedAfterError: after the first storage error every
// Insert/Pop/Peek must return the same error rather than serving a
// possibly-truncated stream.
func TestHybridPoisonedAfterError(t *testing.T) {
	q, fs := newFaultHybrid(t, faultstore.Config{Seed: 5, FailReadAt: 2})
	fs.SetArmed(false)
	spillElems(t, q, 200)
	fs.SetArmed(true)

	var firstErr error
	for i := 0; i < 220; i++ {
		if _, ok, err := q.Pop(); err != nil {
			firstErr = err
			break
		} else if !ok {
			break
		}
	}
	if firstErr == nil {
		t.Fatal("FailReadAt never triggered")
	}
	if _, _, err := q.Pop(); !errors.Is(err, firstErr) {
		t.Fatalf("Pop after failure: %v, want latched %v", err, firstErr)
	}
	if _, _, err := q.Peek(); !errors.Is(err, firstErr) {
		t.Fatalf("Peek after failure: %v, want latched %v", err, firstErr)
	}
	if err := q.Insert(elem{dist: 1}); !errors.Is(err, firstErr) {
		t.Fatalf("Insert after failure: %v, want latched %v", err, firstErr)
	}
}

// TestHybridSurvivesTransientWithRetryStore: wrapping the flaky store in
// a RetryStore under the queue makes a lossy-but-transient disk tier
// fully recoverable.
func TestHybridSurvivesTransientWithRetryStore(t *testing.T) {
	mem, err := pager.NewMemStore(128)
	if err != nil {
		t.Fatal(err)
	}
	fs := faultstore.New(mem, faultstore.Config{Seed: 11, TransientReadProb: 0.3, TransientWriteProb: 0.3})
	var retries int
	rs := pager.NewRetryStore(fs, pager.RetryPolicy{
		MaxAttempts: 10,
		Sleep:       func(time.Duration) {},
		OnRetry:     func(string, int, error) { retries++ },
	})
	q, err := NewHybridQueue[elem](elemLess, elemKey, elemCodec{}, HybridConfig{
		DT: 1, PageSize: 128, Store: rs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	spillElems(t, q, 200)

	var got int
	last := -1.0
	for {
		e, ok, err := q.Pop()
		if err != nil {
			t.Fatalf("pop under retried transient faults: %v", err)
		}
		if !ok {
			break
		}
		if e.dist < last {
			t.Fatalf("order violated: %g after %g", e.dist, last)
		}
		last = e.dist
		got++
	}
	if got != 200 {
		t.Fatalf("drained %d/200 elements", got)
	}
	if fs.Stats().TransientErrors > 0 && retries == 0 {
		t.Fatal("faults occurred but no retry was recorded")
	}
}
