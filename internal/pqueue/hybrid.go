package pqueue

import (
	"encoding/binary"
	"math"

	"distjoin/internal/meter"
	"distjoin/internal/pairheap"
)

// Codec serializes queue elements of one fixed encoded size, Size() bytes,
// for the disk tier.
type Codec[T any] interface {
	Size() int
	Encode(dst []byte, v T)
	Decode(src []byte) T
}

// HybridQueue is a thin front on a Tier over elements of any type: a pairing
// heap holds every element up to the list tier's bucket, and the Tier the
// rest, one element per item — its key, then its encoding — under no header.
// The ordering is determined by less; key extracts the distance used for
// tier placement, and key(a) < key(b) must imply less(a, b). The join runs
// its block queue over the same Tier instead (internal/distjoin); this front
// remains for the benchmark's queue rows.
type HybridQueue[T any] struct {
	less  func(a, b T) bool
	key   func(T) float64
	codec Codec[T]
	heap  *pairheap.Heap[T]
	disk  *Tier
	m     *meter.Meter
}

// NewHybridQueue creates a hybrid queue. See HybridConfig for knobs.
func NewHybridQueue[T any](less func(a, b T) bool, key func(T) float64, codec Codec[T], cfg HybridConfig) (*HybridQueue[T], error) {
	q := &HybridQueue[T]{less: less, key: key, codec: codec, heap: pairheap.New(less), m: cfg.Meter}
	disk, err := NewTier(cfg, 0, 8+codec.Size(), q.load)
	if err != nil {
		return nil, err
	}
	q.disk = disk
	return q, nil
}

// Len returns the number of elements across the tiers.
func (q *HybridQueue[T]) Len() int { return q.heap.Len() + q.disk.Len() }

// Insert adds an element. While an adaptive queue samples, everything stays
// in the heap; once DT is fixed, the heap is re-tiered.
func (q *HybridQueue[T]) Insert(v T) error {
	if err := q.disk.Err(); err != nil {
		return err
	}
	n := q.Len() + 1
	q.m.Push(n, n)
	if q.disk.DT() > 0 {
		return q.place(v)
	}
	q.heap.Insert(v)
	if !q.disk.Sample(q.key(v)) {
		return nil
	}
	held := q.heap
	q.heap = pairheap.New(q.less)
	for !held.Empty() {
		if err := q.place(held.PopMin()); err != nil {
			return err
		}
	}
	return nil
}

// place routes an element to the tier its bucket says.
func (q *HybridQueue[T]) place(v T) error {
	d := q.key(v)
	i := q.disk.Bucket(d)
	if i <= q.disk.Last() {
		q.heap.Insert(v)
		return nil
	}
	ph := q.m.Begin(meter.PhaseSpill)
	dst, err := q.disk.Put(i)
	if err == nil {
		binary.LittleEndian.PutUint64(dst, math.Float64bits(d))
		q.codec.Encode(dst[8:], v)
	}
	q.m.End(ph)
	return err
}

// load decodes a record's items of the list tier's bucket into the heap.
func (q *HybridQueue[T]) load(_, items []byte) {
	for w := 8 + q.codec.Size(); len(items) > 0; items = items[w:] {
		q.heap.Insert(q.codec.Decode(items[8:w]))
	}
}

// front readies the heap for a pop or a peek: a poisoned tier returns its
// error, and a drained heap is refilled from the disk tier's next bucket
// (paper §3.2), bracketed as the fetch phase.
func (q *HybridQueue[T]) front() error {
	if err := q.disk.Err(); err != nil || !q.heap.Empty() || q.disk.Len() == 0 {
		return err
	}
	ph := q.m.Begin(meter.PhaseFetch)
	defer q.m.End(ph)
	q.m.Fetch()
	return q.disk.Advance() // the lowest class holds at least one item of the new bucket
}

// Pop removes and returns the minimum element; ok is false when empty.
func (q *HybridQueue[T]) Pop() (v T, ok bool, err error) {
	if err = q.front(); err == nil && !q.heap.Empty() {
		q.m.Pop()
		v, ok = q.heap.PopMin(), true
	}
	return v, ok, err
}

// Peek returns the minimum element without removing it.
func (q *HybridQueue[T]) Peek() (v T, ok bool, err error) {
	if err = q.front(); err == nil && !q.heap.Empty() {
		v, ok = q.heap.Min(), true
	}
	return v, ok, err
}

// Close releases the disk tier.
func (q *HybridQueue[T]) Close() error { return q.disk.Close() }
