package stats

import (
	"strings"
	"sync"
	"testing"
)

func TestNilCountersAreSafe(t *testing.T) {
	var c *Counters
	c.AddDistCalc(1)
	c.AddNodeDistCalc(1)
	c.AddNodeRead(1)
	c.AddNodeWrite(1)
	c.AddBufferHit(1)
	c.QueueInsert(5)
	c.Filter(1)
	c.Merge(&Counters{DistCalcs: 1})
	c.Reset()
	if c.NodeIO() != 0 {
		t.Fatal("nil counters returned non-zero")
	}
	if c.Snapshot() != (Counters{}) {
		t.Fatal("nil snapshot not zero")
	}
	if !strings.Contains(c.String(), "disabled") {
		t.Fatal("nil String() wrong")
	}
}

func TestCountersAccumulate(t *testing.T) {
	c := &Counters{}
	c.AddDistCalc(3)
	c.AddNodeDistCalc(2)
	c.AddNodeRead(5)
	c.AddNodeWrite(4)
	c.AddBufferHit(7)
	if c.NodeIO() != 9 {
		t.Fatalf("NodeIO = %d", c.NodeIO())
	}
	c.QueueInsert(10)
	c.QueueInsert(3)
	if c.MaxQueueSize != 10 || c.QueueInserts != 2 {
		t.Fatalf("queue accounting wrong: %+v", c)
	}
	c.PairsReported++
	c.Filter(2)
	snap := c.Snapshot()
	if snap.DistCalcs != 3 || snap.Filtered != 2 || snap.PairsReported != 1 {
		t.Fatalf("snapshot wrong: %+v", snap)
	}
	c.Reset()
	if c.DistCalcs != 0 || c.MaxQueueSize != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestCountersString(t *testing.T) {
	c := &Counters{DistCalcs: 42, MaxQueueSize: 7, NodeReads: 3, NodeWrites: 1}
	s := c.String()
	for _, want := range []string{"distCalcs=42", "queueMax=7", "nodeIO=4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestSinks(t *testing.T) {
	c := &Counters{}
	ns := NodeSink(c)
	ns.AddRead(2)
	ns.AddWrite(3)
	ns.AddHit(4)
	if c.NodeReads != 2 || c.NodeWrites != 3 || c.BufferHits != 4 {
		t.Fatalf("node sink: %+v", c)
	}
	// One pool handle can feed several views; nil views are skipped.
	other := &Counters{}
	both := NodeSink(c, nil, other)
	both.AddRead(1)
	both.AddHit(1)
	if c.NodeReads != 3 || other.NodeReads != 1 || other.BufferHits != 1 {
		t.Fatalf("fan-out sink: %+v / %+v", c, other)
	}
	if NodeSink(nil) != nil || NodeSink() != nil {
		t.Fatal("nil counters must yield a nil sink")
	}
}

// TestMergeSince pins the meter's publish step: the growth of a
// single-writer tally over its last-folded copy, merged into a shared view,
// reproduces the tally — with MaxQueueSize carried as a high-water mark.
func TestMergeSince(t *testing.T) {
	view := &Counters{}
	var tally, folded Counters
	for step := int64(1); step <= 3; step++ {
		tally.QueuePops += step
		tally.Expansions++
		tally.MaxQueueSize = 10 - step // the queue shrinks; the peak must not
		view.MergeSince(&tally, &folded)
		folded = tally
	}
	want := tally
	want.MaxQueueSize = 9
	if got := view.Snapshot(); got != want {
		t.Fatalf("view = %+v, want %+v", got, want)
	}
}

// TestMergeMaxQueueConcurrent stress-tests the Merge contract under the
// race detector: when many worker shards merge into one target
// concurrently, MaxQueueSize must end up as the high-water MAXIMUM of the
// shard peaks — partition queues are independent, so their peaks must never
// be summed — while additive fields sum exactly.
func TestMergeMaxQueueConcurrent(t *testing.T) {
	const workers = 16
	const mergesPerWorker = 8
	shards := make([]*Counters, workers)
	for i := range shards {
		shards[i] = &Counters{}
		// Distinct peak per shard: worker i's queue grows to 100*(i+1).
		for size := int64(1); size <= int64(100*(i+1)); size++ {
			shards[i].QueueInsert(size)
		}
		shards[i].AddDistCalc(10)
	}
	wantMax := int64(100 * workers)

	total := &Counters{}
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(s *Counters) {
			defer wg.Done()
			for j := 0; j < mergesPerWorker; j++ {
				total.Merge(s)
			}
		}(shards[i])
	}
	wg.Wait()

	got := total.Snapshot()
	if got.MaxQueueSize != wantMax {
		t.Errorf("MaxQueueSize = %d, want high-water max %d (a sum would be %d)",
			got.MaxQueueSize, wantMax, int64(100*workers*(workers+1)/2*mergesPerWorker))
	}
	if want := int64(10 * workers * mergesPerWorker); got.DistCalcs != want {
		t.Errorf("DistCalcs = %d, want %d", got.DistCalcs, want)
	}
}

// TestMergeRetryCountersConcurrent is the property test for the I/O fault
// accounting added with the retry layer: shards filled with faults and
// retries are merged concurrently into a shared total, and the final totals
// must be the exact sums across shards — no lost updates, no double
// counting beyond the deliberate repeat merges.
func TestMergeRetryCountersConcurrent(t *testing.T) {
	const workers = 12
	const opsPerWorker = 500
	const mergesPerWorker = 4

	shards := make([]*Counters, workers)
	var fill sync.WaitGroup
	for i := range shards {
		shards[i] = &Counters{}
		fill.Add(1)
		// One writer fills each shard with plain writes (a meter's tally is
		// single-writer); the concurrency under test is the merges below.
		go func(s *Counters, id int) {
			defer fill.Done()
			for j := 0; j < opsPerWorker; j++ {
				s.IOFaults++
				if j%3 == 0 {
					s.IORetries += 2
				}
			}
			s.QueueInsert(int64(10 * (id + 1)))
		}(shards[i], i)
	}
	fill.Wait()

	perShardRetries := int64(2 * ((opsPerWorker + 2) / 3))
	total := &Counters{}
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(s *Counters) {
			defer wg.Done()
			for j := 0; j < mergesPerWorker; j++ {
				total.Merge(s)
			}
		}(shards[i])
	}
	wg.Wait()

	got := total.Snapshot()
	if want := int64(workers * opsPerWorker * mergesPerWorker); got.IOFaults != want {
		t.Errorf("IOFaults = %d, want %d", got.IOFaults, want)
	}
	if want := int64(workers) * perShardRetries * mergesPerWorker; got.IORetries != want {
		t.Errorf("IORetries = %d, want %d", got.IORetries, want)
	}
	if want := int64(10 * workers); got.MaxQueueSize != want {
		t.Errorf("MaxQueueSize = %d, want max %d", got.MaxQueueSize, want)
	}
}
