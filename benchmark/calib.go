package main

import (
	"time"
)

// The host this benchmark was defined on is a shared 2-vCPU sandbox whose
// memory latency drifts by ±15 % in phases of 10–20 s, and by as much again
// over tens of minutes, while its arithmetic speed holds within ±3 %. The
// join is bound by memory (node decode, pointer-linked heap, GC), so every
// timing follows that drift: run medians of one and the same program differ
// by 10–25 %, which no regression bound the contract allows survives.
//
// hostClock measures the drift where it happens: between repetitions it
// times short bursts of random reads and writes over an array that does not
// fit the private caches. A run's timings are then reported as the time the
// same work takes on a host whose random access costs calibRefNS, taking a
// share memoryShare of the time to follow the burst cost and the rest to be
// unaffected:
//
//	scaled = raw ÷ (1 − memoryShare + memoryShare · burst cost ÷ calibRefNS)
//
// Block medians of time to first pair correlate 0.8–0.95 with the burst
// cost. Over two A/A records (6 and 10 sets of all five workloads) this
// scaling took the largest spread of a timing between seeds from 0.24 to
// 0.19, the median spread from 0.13 to 0.07, and the largest shift between
// the halves of a record from 0.25 to 0.15. Raw medians and the factor are
// printed beside every scaled figure. Counts, bytes and resident set are
// never scaled, and neither is any per-layer metric.
type hostClock struct {
	arr     []uint64
	idx     uint64
	samples []float64 // ns per access, one per burst
}

const (
	// calibWords is the array size: 2^19 words, 4 MiB — beyond L2, small
	// enough not to show in the resident set.
	calibWords = 1 << 19
	calibShift = 64 - 19
	// calibBurst is the accesses per sample, about a quarter millisecond.
	calibBurst = 100_000
	// calibRefNS is the access latency timings are scaled to: the sandbox's
	// quiet-phase figure, so that scaled and raw values agree on a quiet
	// host.
	calibRefNS = 2.7
	// memoryShare is the share of a timing taken to follow the burst cost.
	// Scaling by the full cost ratio (share 1) over-corrects: the join also
	// computes. 0.6 minimised both the median spread and the largest shift
	// over the two A/A records; 0.5 and 0.7 are within 0.01 of it.
	memoryShare = 0.6
)

func newHostClock() *hostClock {
	h := &hostClock{arr: make([]uint64, calibWords), idx: 1}
	for i := range h.arr {
		h.arr[i] = uint64(i) // fault every page in before timing
	}
	return h
}

// sample takes bursts for about d, at least one. A nil clock takes none:
// traced runs report per-layer figures as measured.
func (h *hostClock) sample(d time.Duration) {
	if h == nil {
		return
	}
	for start := time.Now(); ; {
		burst := time.Now()
		var sum uint64
		for i := 0; i < calibBurst; i++ {
			h.idx = h.idx*6364136223846793005 + 1442695040888963407
			sum += h.arr[h.idx>>calibShift]
			h.arr[h.idx>>calibShift] = sum
		}
		h.samples = append(h.samples, float64(time.Since(burst).Nanoseconds())/calibBurst)
		if time.Since(start) >= d {
			return
		}
	}
}

// between is the calibration made between two repetitions: 2 % of the
// repetition just measured, at least 2 ms.
func (h *hostClock) between(rep time.Duration) {
	h.sample(max(rep/50, 2*time.Millisecond))
}

// latency is the median burst latency in ns per access.
func (h *hostClock) latency() float64 { return median(h.samples) }

// factor scales a time measured on this host, over the samples taken since
// the last reset, to the reference host.
func (h *hostClock) factor() float64 {
	return 1 / (1 - memoryShare + memoryShare*h.latency()/calibRefNS)
}

func (h *hostClock) reset() { h.samples = h.samples[:0] }
