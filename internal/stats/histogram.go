package stats

import "math/bits"

// Histogram is a power-of-two-bucketed latency histogram: bucket i counts
// observations v with 2^(i-1) <= v < 2^i (bucket 0 counts v == 0). It is
// cheap enough to sit on the per-transaction commit path of a simulation.
// All methods tolerate a nil receiver (reads return zero, Observe drops
// the sample), so an instrument left unset costs its holder no guard.
type Histogram struct {
	buckets [65]int64
	count   int64
	sum     int64
	max     int64
}

// Observe records one value; negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func bucketOf(v int64) int {
	if v == 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Percentile returns an upper bound for the p-th percentile (0 < p <= 100):
// the upper edge of the bucket containing it.
func (h *Histogram) Percentile(p float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	target := int64(p / 100 * float64(h.count))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			if i == 0 {
				return 0
			}
			hi := int64(1) << uint(i)
			if hi-1 > h.max {
				return h.max
			}
			return hi - 1
		}
	}
	return h.max
}
