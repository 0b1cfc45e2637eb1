// Package pqueue provides the disk tier of the paper's three-tier hybrid
// queue (§3.2) and two queues of its own. Distances fall into buckets
// [k·D_T, (k+1)·D_T); the tier holds every bucket beyond the list tier's as
// a radix heap over the bucket index, each radix class a chain of sealed
// pages, and stores records: a fixed-width header and items that each start
// with their key. The join's block queue runs its heap and list tiers over
// it (internal/distjoin). HybridQueue is a pairing-heap front on the same
// tier, and MemQueue a plain pairing heap: the benchmark's queue rows.
package pqueue

import (
	"distjoin/internal/meter"
	"distjoin/internal/pairheap"
)

// MemQueue is a purely in-memory queue backed by a pairing heap.
type MemQueue[T any] struct {
	heap *pairheap.Heap[T]
	m    *meter.Meter
}

// NewMemQueue creates an in-memory queue ordered by less, reporting its
// pushes and pops to m, which may be nil.
func NewMemQueue[T any](less func(a, b T) bool, m *meter.Meter) *MemQueue[T] {
	return &MemQueue[T]{heap: pairheap.New(less), m: m}
}

// Insert adds an element.
func (q *MemQueue[T]) Insert(v T) error {
	q.heap.Insert(v)
	q.m.Push(q.heap.Len(), q.heap.Len())
	return nil
}

// Pop removes and returns the minimum element; ok is false when empty.
func (q *MemQueue[T]) Pop() (v T, ok bool, err error) {
	if ok = !q.heap.Empty(); ok {
		q.m.Pop()
		v = q.heap.PopMin()
	}
	return v, ok, nil
}

// Peek returns the minimum element without removing it.
func (q *MemQueue[T]) Peek() (v T, ok bool, err error) {
	if ok = !q.heap.Empty(); ok {
		v = q.heap.Min()
	}
	return v, ok, nil
}

// Len returns the number of elements.
func (q *MemQueue[T]) Len() int { return q.heap.Len() }

// Close releases nothing: the queue has no disk tier.
func (q *MemQueue[T]) Close() error { return nil }
