// Package pqueue provides the priority queues used by the incremental
// distance join: a pure in-memory queue (a pairing heap), and the paper's
// three-tier hybrid memory/disk queue (§3.2), which keeps pairs with small
// distances in a pairing heap, pairs with middling distances in an
// unorganized in-memory list, and spills distant pairs to disk: distances
// fall into buckets [k·D_T, (k+1)·D_T), and the disk tier is a radix heap over
// the bucket index, each radix class a linked list of pages.
package pqueue

import (
	"distjoin/internal/meter"
	"distjoin/internal/pairheap"
)

// Queue is the interface the join algorithm consumes. Implementations are
// not safe for concurrent use.
type Queue[T any] interface {
	// Insert adds an element.
	Insert(v T) error
	// Pop removes and returns the minimum element; ok is false when empty.
	Pop() (v T, ok bool, err error)
	// Peek returns the minimum element without removing it.
	Peek() (v T, ok bool, err error)
	// Len returns the total number of elements across all tiers.
	Len() int
	// Close releases any disk resources.
	Close() error
}

// MemQueue is a purely in-memory queue backed by a pairing heap — the
// baseline of the paper's Figure 8 experiment.
type MemQueue[T any] struct {
	heap *pairheap.Heap[T]
	m    *meter.Meter
}

// NewMemQueue creates an in-memory queue ordered by less, reporting its
// pushes and pops to m, which may be nil.
func NewMemQueue[T any](less func(a, b T) bool, m *meter.Meter) *MemQueue[T] {
	return &MemQueue[T]{heap: pairheap.New(less), m: m}
}

// Insert implements Queue.
func (q *MemQueue[T]) Insert(v T) error {
	q.heap.Insert(v)
	q.m.Push(q.heap.Len(), q.heap.Len())
	return nil
}

// Pop implements Queue.
func (q *MemQueue[T]) Pop() (T, bool, error) {
	var zero T
	if q.heap.Empty() {
		return zero, false, nil
	}
	q.m.Pop()
	return q.heap.PopMin(), true, nil
}

// Peek implements Queue.
func (q *MemQueue[T]) Peek() (T, bool, error) {
	var zero T
	if q.heap.Empty() {
		return zero, false, nil
	}
	return q.heap.Min(), true, nil
}

// Len implements Queue.
func (q *MemQueue[T]) Len() int { return q.heap.Len() }

// Close implements Queue.
func (q *MemQueue[T]) Close() error { return nil }
