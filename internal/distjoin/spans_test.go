package distjoin

import (
	"testing"
	"time"

	"distjoin/internal/profile"
	"distjoin/internal/stats"
)

// drainWithSpans runs a full join with span profiling attached and returns
// the spans, counters and observed wall time.
func drainWithSpans(t *testing.T, opts Options) (*profile.Spans, *stats.Counters, time.Duration) {
	t.Helper()
	ta := WrapRTree(buildTree(t, clusteredPoints(11, 300)))
	tb := WrapRTree(buildTree(t, clusteredPoints(23, 300)))
	sp := &profile.Spans{}
	c := &stats.Counters{}
	opts.Profile = sp
	opts.Counters = c
	start := time.Now()
	j, err := NewJoinIndexes(ta, tb, opts)
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
	return sp, c, time.Since(start)
}

func TestSpansSequentialAccounting(t *testing.T) {
	sp, c, wall := drainWithSpans(t, Options{MaxPairs: 500})
	s := c.Snapshot()

	// Every queue operation the counters saw must have a matching span.
	if got := sp.Tally().Counts[profile.PhasePop]; got != s.QueuePops {
		t.Errorf("pop spans %d, counter pops %d", got, s.QueuePops)
	}
	if got := sp.Tally().Counts[profile.PhasePush]; got != s.QueueInserts {
		t.Errorf("push spans %d, counter inserts %d", got, s.QueueInserts)
	}
	if sp.Tally().Counts[profile.PhaseExpand] == 0 {
		t.Error("no expand spans recorded")
	}
	if sp.Tally().Counts[profile.PhaseEmit] == 0 {
		t.Error("no emit spans recorded")
	}

	// Phases are disjoint within one engine, so their sum cannot exceed the
	// observed wall time (setup/teardown slack keeps it strictly below).
	if tot := time.Duration(sp.Tally().TotalNS()); tot > wall {
		t.Errorf("phase total %v exceeds wall %v", tot, wall)
	}
}

func TestSpansHybridSpillFetch(t *testing.T) {
	// A tiny DT forces the disk tier into play, so spill and fetch phases
	// must both show up, along with physical queue I/O.
	sp, c, _ := drainWithSpans(t, Options{
		Queue:      QueueHybrid,
		HybridDT:   5,
		QueueStore: memQueueStore,
	})
	s := c.Snapshot()
	if s.QueueDiskPairs == 0 {
		t.Fatal("workload did not exercise the disk tier")
	}
	if sp.Tally().Counts[profile.PhaseSpill] == 0 {
		t.Error("no spill spans despite disk-tier pairs")
	}
	if sp.Tally().Counts[profile.PhaseFetch] == 0 {
		t.Error("no fetch spans despite disk-tier pairs")
	}
	io := sp.IOSnapshot()
	if io.Reads == 0 || io.Writes == 0 {
		t.Errorf("no physical queue I/O timed: %+v", io)
	}
	if io.Reads != s.QueueReads || io.Writes != s.QueueWrites {
		t.Errorf("timed I/O (%d r, %d w) disagrees with counters (%d r, %d w)",
			io.Reads, io.Writes, s.QueueReads, s.QueueWrites)
	}
}

// TestSpansNilUntouched pins that a join without a Profile leaves the
// engine on the uninstrumented path end to end (the zero-alloc guarantee
// for the hook methods themselves is pinned in internal/profile).
func TestSpansNilUntouched(t *testing.T) {
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
	var sp *profile.Spans
	if sp.Tally().TotalNS() != 0 {
		t.Fatal("nil spans accumulated time")
	}
}
