package main

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"distjoin"
)

// dist is the Euclidean distance of two 2-D points, written out here so the
// oracle shares no code with the program under test.
func dist(a, b distjoin.Point) float64 {
	dx, dy := a[0]-b[0], a[1]-b[1]
	return math.Sqrt(dx*dx + dy*dy)
}

// maxHeap keeps the k smallest values seen, largest on top.
type maxHeap []float64

func (h maxHeap) Len() int           { return len(h) }
func (h maxHeap) Less(i, j int) bool { return h[i] > h[j] }
func (h maxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *maxHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// bruteJoin returns the k smallest distances of the Cartesian product a × b
// in ascending order — what a distance join must report, pair for pair in
// distance. k <= 0 asks for all of them.
func bruteJoin(a, b []distjoin.Point, k int) []float64 {
	if total := len(a) * len(b); k <= 0 || k > total {
		k = total
	}
	h := make(maxHeap, 0, k)
	for _, p := range a {
		for _, q := range b {
			d := dist(p, q)
			if len(h) < k {
				heap.Push(&h, d)
			} else if d < h[0] {
				h[0] = d
				heap.Fix(&h, 0)
			}
		}
	}
	sort.Float64s(h)
	return h
}

// bruteSemiJoin returns, ascending, the distance from each point of a to its
// nearest point of b — what a distance semi-join must report.
func bruteSemiJoin(a, b []distjoin.Point) []float64 {
	out := make([]float64, 0, len(a))
	if len(b) == 0 {
		return out
	}
	for _, p := range a {
		best := math.Inf(1)
		for _, q := range b {
			if d := dist(p, q); d < best {
				best = d
			}
		}
		out = append(out, best)
	}
	sort.Float64s(out)
	return out
}

// sameDistances compares a reported distance sequence with the oracle's.
// The tolerance covers only the last-bit differences between two correct
// ways of summing squares.
func sameDistances(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d pairs reported, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if diff := math.Abs(got[i] - want[i]); diff > 1e-9*math.Max(1, want[i]) {
			return fmt.Errorf("pair %d: distance %v, oracle %v", i, got[i], want[i])
		}
	}
	return nil
}

// digest is an FNV-1a hash over the bit patterns of a distance sequence.
// Repetitions of one query, and a served session and its in-process twin,
// must produce equal digests. Object ids are left out: pairs tied in
// distance may legitimately arrive in either order.
type digest uint64

const (
	fnvOffset digest = 14695981039346656037
	fnvPrime  digest = 1099511628211
)

func (d digest) add(dist float64) digest {
	bits := math.Float64bits(dist)
	for i := 0; i < 8; i++ {
		d = (d ^ digest(bits&0xff)) * fnvPrime
		bits >>= 8
	}
	return d
}
