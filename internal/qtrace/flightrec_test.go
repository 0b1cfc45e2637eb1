package qtrace

import (
	"fmt"
	"sync"
	"testing"
)

// TestFlightRecorderEvictionOrder fills the ring far past capacity and
// checks the eviction policy precisely: the recorder keeps exactly the
// last FlightSize completed queries, Traces() returns them newest first,
// and Trace(id) resolves only retained ids.
func TestFlightRecorderEvictionOrder(t *testing.T) {
	const size, total = 8, 30
	tr := New(Config{FlightSize: size})

	for i := 0; i < total; i++ {
		q := tr.Begin("join", fmt.Sprintf("q%03d", i))
		q.Finish(Report{}, nil)
	}

	got := tr.Traces()
	if len(got) != size {
		t.Fatalf("ring holds %d traces, want %d", len(got), size)
	}
	// Newest first: q029, q028, ... q022.
	for i, qt := range got {
		want := fmt.Sprintf("q%03d", total-1-i)
		if qt.ID != want {
			t.Fatalf("Traces()[%d] = %s, want %s", i, qt.ID, want)
		}
	}
	// Evicted ids are unresolvable; retained ids resolve.
	if tr.Trace("q000") != nil {
		t.Fatal("evicted trace q000 still resolvable")
	}
	if tr.Trace(fmt.Sprintf("q%03d", total-size-1)) != nil {
		t.Fatalf("newest evicted trace still resolvable")
	}
	if tr.Trace(fmt.Sprintf("q%03d", total-size)) == nil {
		t.Fatalf("oldest retained trace missing")
	}
	if tr.Trace(fmt.Sprintf("q%03d", total-1)) == nil {
		t.Fatal("newest trace missing")
	}
	if tr.Active() != 0 {
		t.Fatalf("active = %d after all queries finished", tr.Active())
	}
}

// TestFlightRecorderDuplicateIDs checks Trace(id) returns the NEWEST trace
// when an id repeats — the resumable-cursor service reuses a cursor id as
// the query id, so a retried query must shadow its predecessor.
func TestFlightRecorderDuplicateIDs(t *testing.T) {
	tr := New(Config{FlightSize: 4})
	q1 := tr.Begin("join", "dup")
	q1.Finish(Report{}, nil)
	first := tr.Trace("dup")
	q2 := tr.Begin("semijoin", "dup")
	q2.Finish(Report{}, nil)
	second := tr.Trace("dup")
	if second == first {
		t.Fatal("Trace returned the older duplicate")
	}
	if second.Kind != "semijoin" {
		t.Fatalf("newest duplicate kind = %q", second.Kind)
	}
}

// TestFlightRecorderConcurrentCompletions completes many short queries
// from racing goroutines and checks ring invariants hold throughout: the
// ring never exceeds FlightSize, never contains a nil or duplicate entry,
// and ends with exactly the configured capacity.
func TestFlightRecorderConcurrentCompletions(t *testing.T) {
	const size, workers, perWorker = 8, 16, 50
	tr := New(Config{FlightSize: size})

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				traces := tr.Traces()
				if len(traces) > size {
					t.Errorf("ring grew to %d > FlightSize %d", len(traces), size)
					return
				}
				seen := make(map[string]bool, len(traces))
				for _, qt := range traces {
					if qt == nil {
						t.Error("nil trace in ring")
						return
					}
					if seen[qt.ID] {
						t.Errorf("duplicate id %s in one snapshot", qt.ID)
						return
					}
					seen[qt.ID] = true
				}
			}
		}()
	}

	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				q := tr.Begin("join", fmt.Sprintf("w%02d-%03d", w, i))
				q.Finish(Report{}, nil)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := len(tr.Traces()); got != size {
		t.Fatalf("final ring size %d, want %d", got, size)
	}
	if tr.Active() != 0 {
		t.Fatalf("active = %d", tr.Active())
	}
}
