package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2 latency buckets. Bucket i holds
// durations whose nanosecond count has bit-length i, i.e. the half-open
// range [2^(i-1), 2^i) ns (bucket 0 holds exactly 0 ns). 64 buckets cover
// every representable duration.
const histBuckets = 64

// histBucketOf is the bucket rule: the bucket a non-negative duration lands
// in. RED's exemplars use it too, so they line up with the le bounds.
func histBucketOf(d time.Duration) int { return bits.Len64(uint64(d)) }

// Histogram is a fixed-size log2-bucketed latency histogram updated with
// atomic operations only, so many engines may observe into one histogram
// without locking. The zero value is ready to use.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// Observe records one duration. Negative durations (clock steps) count as 0.
func (h *Histogram) Observe(d time.Duration) {
	d = max(d, 0)
	h.buckets[histBucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the average observation, 0 when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns an estimate of the q-quantile (0 < q <= 1): the midpoint
// of the bucket containing the q-th observation. The estimate is therefore
// accurate to within a factor of ~1.5 — plenty for latency reporting.
//
// Degenerate inputs are safe: an empty histogram reports 0 for every
// quantile (never a bucket midpoint or NaN), as do NaN and non-positive q;
// q above 1 is clamped to the maximum observation's bucket.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i == 0 {
				return 0
			}
			lo := int64(1) << uint(i-1)
			return time.Duration(lo + lo/2)
		}
	}
	return h.Mean()
}

// bucketUpper returns the exclusive upper bound of bucket i in seconds.
func bucketUpper(i int) float64 {
	return float64(int64(1)<<uint(i)) / float64(time.Second)
}

// HistogramSnapshot is a point-in-time summary of a Histogram, shaped for
// JSON consumption.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	MeanS float64 `json:"mean_seconds"`
	P50S  float64 `json:"p50_seconds"`
	P90S  float64 `json:"p90_seconds"`
	P95S  float64 `json:"p95_seconds"`
	P99S  float64 `json:"p99_seconds"`
}

// Quantiles returns the standard latency summary (count, mean, p50/p90/p95/
// p99) in seconds, the shape Recorder.Snapshot carries.
func (h *Histogram) Quantiles() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		MeanS: h.Mean().Seconds(),
		P50S:  h.Quantile(0.50).Seconds(),
		P90S:  h.Quantile(0.90).Seconds(),
		P95S:  h.Quantile(0.95).Seconds(),
		P99S:  h.Quantile(0.99).Seconds(),
	}
}
