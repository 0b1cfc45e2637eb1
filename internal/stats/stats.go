// Package stats provides the performance counters used throughout the
// repository to reproduce the measures the paper reports in Table 1: the
// number of object distance calculations, the maximum priority-queue size,
// and the number of node I/O operations.
//
// A Counters value plays two roles. As a shared VIEW (Options.Counters, a
// buffer pool's sink, a Recorder's counts) it is updated only through its
// methods, which use sync/atomic: the join engines fold their per-engine
// meters into it with MergeSince at every Next return, buffer pools shared by
// concurrent queries add node I/O directly, and Snapshot reads it at any
// time. As a single-writer TALLY (the counts inside an internal/meter
// Meter) its fields are plain int64s written directly by the one goroutine
// that owns it. The exported fields stay plain int64s for both uses; never
// mix direct writes with concurrent method calls on the same value.
//
// A nil *Counters is valid everywhere and records nothing, so
// instrumentation can be disabled without branching at call sites.
package stats

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"distjoin/internal/pager"
)

// Counters accumulates the paper's performance measures.
type Counters struct {
	// DistCalcs counts object-to-object distance computations ("Dist.
	// Calc." in Table 1). Distances involving nodes are counted separately
	// in NodeDistCalcs.
	DistCalcs int64
	// NodeDistCalcs counts distance computations with at least one node or
	// bounding rectangle operand.
	NodeDistCalcs int64
	// NodeReads counts index node read I/O (buffer-pool misses).
	NodeReads int64
	// NodeWrites counts index node write I/O.
	NodeWrites int64
	// BufferHits counts node accesses satisfied from the buffer pool.
	BufferHits int64
	// QueueInserts counts priority-queue insertions.
	QueueInserts int64
	// QueuePops counts priority-queue removals.
	QueuePops int64
	// MaxQueueSize is the high-water mark of the priority-queue size
	// ("Queue Size" in Table 1). When several engines share one Counters,
	// it is the largest size any single queue reached.
	MaxQueueSize int64
	// MaxQueueElements is the high-water mark of the number of elements the
	// queue's heap held: one per node expansion — the expansion's nearest
	// remaining child, standing for the block of its siblings — so this is
	// well below MaxQueueSize; on the hybrid queue the list and disk tiers'
	// pairs are not in the heap at all.
	MaxQueueElements int64
	// QueueDiskPairs counts pairs spilled to the disk tier of the hybrid
	// queue.
	QueueDiskPairs int64
	// QueueReads and QueueWrites count the hybrid queue's own page I/O,
	// which the paper accounts separately from R-tree node I/O.
	QueueReads  int64
	QueueWrites int64
	// PairsReported counts result pairs the engine reported.
	PairsReported int64
	// Filtered counts pairs discarded by semi-join filtering or distance
	// range pruning before reaching the queue.
	Filtered int64
	// BatchPruned counts candidate pairs skipped by the plane-sweep /
	// block prune of the batched simultaneous expansion before any
	// distance computation — pairs that never cost a distance calculation
	// nor appear in Filtered.
	BatchPruned int64
	// IOFaults counts failed physical I/O attempts observed by the retry
	// layer, including transient failures later recovered by a retry.
	IOFaults int64
	// IORetries counts re-attempts after transient I/O failures
	// (Options.RetryIO). IOFaults - IORetries ≤ surfaced errors.
	IORetries int64
	// Cancellations counts queries that surfaced ErrCanceled: the run's
	// Options.Context was canceled (or its deadline expired) and the
	// iterator latched the cancellation as its terminal error.
	Cancellations int64
	// Expansions counts node-pair expansions (one per dequeued pair with
	// at least one node).
	Expansions int64
}

// A Counters is nothing but int64 fields, so Snapshot and MergeSince walk
// it as an array; the size and the indices of the two fields that are
// high-water marks rather than sums are derived from the struct itself.
const (
	numFields        = unsafe.Sizeof(Counters{}) / 8
	maxQueueField    = unsafe.Offsetof(Counters{}.MaxQueueSize) / 8
	maxElementsField = unsafe.Offsetof(Counters{}.MaxQueueElements) / 8
)

func (c *Counters) array() *[numFields]int64 { return (*[numFields]int64)(unsafe.Pointer(c)) }

// NodeIO returns reads+writes, the "Node I/O" measure of Table 1.
func (c *Counters) NodeIO() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.NodeReads) + atomic.LoadInt64(&c.NodeWrites)
}

// AddDistCalc records n object distance computations.
func (c *Counters) AddDistCalc(n int64) {
	if c != nil {
		atomic.AddInt64(&c.DistCalcs, n)
	}
}

// AddNodeDistCalc records n node distance computations.
func (c *Counters) AddNodeDistCalc(n int64) {
	if c != nil {
		atomic.AddInt64(&c.NodeDistCalcs, n)
	}
}

// AddNodeRead records n node read I/Os.
func (c *Counters) AddNodeRead(n int64) {
	if c != nil {
		atomic.AddInt64(&c.NodeReads, n)
	}
}

// AddNodeWrite records n node write I/Os.
func (c *Counters) AddNodeWrite(n int64) {
	if c != nil {
		atomic.AddInt64(&c.NodeWrites, n)
	}
}

// AddBufferHit records n buffer-pool hits.
func (c *Counters) AddBufferHit(n int64) {
	if c != nil {
		atomic.AddInt64(&c.BufferHits, n)
	}
}

// maxInt64 raises *addr to at least v.
func maxInt64(addr *int64, v int64) {
	for {
		cur := atomic.LoadInt64(addr)
		if v <= cur || atomic.CompareAndSwapInt64(addr, cur, v) {
			return
		}
	}
}

// QueueInsert records an insertion into a queue that holds one element per
// pair and updates both high-water marks given the queue's new size.
func (c *Counters) QueueInsert(newSize int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.QueueInserts, 1)
	maxInt64(&c.MaxQueueSize, newSize)
	maxInt64(&c.MaxQueueElements, newSize)
}

// Filter records n pairs pruned before insertion.
func (c *Counters) Filter(n int64) {
	if c != nil {
		atomic.AddInt64(&c.Filtered, n)
	}
}

// Reset zeroes all counters. Not atomic as a whole: do not race Reset with
// concurrent recorders.
func (c *Counters) Reset() {
	if c != nil {
		*c = Counters{}
	}
}

// Snapshot returns a consistent-enough copy of the current counter values
// (each field is loaded atomically; fields may be skewed relative to each
// other while recorders are running).
func (c *Counters) Snapshot() Counters {
	var out Counters
	if c == nil {
		return out
	}
	dst := out.array()
	for i := range c.array() {
		dst[i] = atomic.LoadInt64(&c.array()[i])
	}
	return out
}

// Merge folds the counts of other into c: additive fields are summed and
// MaxQueueSize and MaxQueueElements take the maximum of the two high-water
// marks (queues are independent, so their peak sizes do not add). other is
// read atomically; merging a value still being written to through its
// methods yields a momentary partial view, not corruption.
func (c *Counters) Merge(other *Counters) {
	if other != nil {
		c.MergeSince(other, &Counters{})
	}
}

// MergeSince folds the growth of cur over prev into c — how a per-engine
// meter publishes into a shared view: cur is its running tally, prev the
// tally at its last fold. Additive fields add their difference (fields that
// did not grow cost nothing); MaxQueueSize and MaxQueueElements take cur's
// high-water marks.
func (c *Counters) MergeSince(cur, prev *Counters) {
	if c == nil {
		return
	}
	dst, old := c.array(), prev.array()
	for i := range cur.array() {
		switch v := atomic.LoadInt64(&cur.array()[i]); {
		case uintptr(i) == maxQueueField, uintptr(i) == maxElementsField:
			maxInt64(&dst[i], v)
		case v != old[i]:
			atomic.AddInt64(&dst[i], v-old[i])
		}
	}
}

// String formats the Table 1 measures compactly.
func (c *Counters) String() string {
	if c == nil {
		return "stats: disabled"
	}
	s := c.Snapshot()
	return fmt.Sprintf("distCalcs=%d queueMax=%d nodeIO=%d (reads=%d writes=%d hits=%d)",
		s.DistCalcs, s.MaxQueueSize, s.NodeReads+s.NodeWrites, s.NodeReads, s.NodeWrites, s.BufferHits)
}

// NodeSink adapts the given views into one pager.IOCounter that records a
// buffer pool's traffic into their node-I/O columns (NodeReads, NodeWrites,
// BufferHits). Nil views are skipped; with none left it returns an untyped
// nil, so the pool records nothing.
func NodeSink(views ...*Counters) pager.IOCounter {
	var s nodeIOSink
	for _, c := range views {
		if c != nil {
			s = append(s, c)
		}
	}
	if len(s) == 0 {
		return nil
	}
	return s
}

// nodeIOSink routes pool I/O into the node-I/O columns of every view.
type nodeIOSink []*Counters

func (s nodeIOSink) AddRead(n int64) {
	for _, c := range s {
		c.AddNodeRead(n)
	}
}

func (s nodeIOSink) AddWrite(n int64) {
	for _, c := range s {
		c.AddNodeWrite(n)
	}
}

func (s nodeIOSink) AddHit(n int64) {
	for _, c := range s {
		c.AddBufferHit(n)
	}
}
