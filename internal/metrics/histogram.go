package metrics

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"strings"

	"vertigo/internal/obs"
)

// Histogram is a histogram of non-negative int64 observations (nanoseconds,
// bytes, counts) on a log-linear grid in HdrHistogram's layout: each value
// from 0 to 63 has its own bucket, and each octave [2^k, 2^(k+1)) for k ≥ 6
// is split into 64 equal sub-buckets. A bucket is never wider than 1/64 of
// its lower edge, so a quantile read from the grid is within a factor 65/64
// above the exact one at any count, while the whole range — sub-microsecond
// queue blips to multi-second tails — stays in at most 3,712 counters that
// merge exactly. Negative values land in bucket 0.
//
// Every bucket lies inside one bucket of obs's log-2 grid, so PublishTo
// folds the histogram onto a registry histogram exactly.
//
// counts grows only to the highest bucket observed: the zero value is an
// empty, usable histogram that has allocated nothing.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    int64
	min    int64
	max    int64
}

// subBits is log2 of the sub-buckets per octave.
const subBits = 6

// bucketOf returns the grid index of v: v itself below 64, otherwise the
// octave's offset plus v's top subBits+1 bits.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	shift := max(bits.Len64(uint64(v))-1-subBits, 0)
	return shift<<subBits + int(v>>shift)
}

// bucketLow returns the inclusive lower edge of bucket i.
func bucketLow(i int) int64 {
	shift := max(i>>subBits-1, 0)
	return int64(i-shift<<subBits) << shift
}

// bucketHigh returns the inclusive upper edge of bucket i.
func bucketHigh(i int) int64 {
	shift := max(i>>subBits-1, 0)
	return bucketLow(i) + (1<<shift - 1)
}

// foldBucket returns the obs log-2 bucket that holds all of bucket i.
func foldBucket(i int) int { return obs.BucketOf(bucketLow(i)) }

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if h.total == 0 || v > h.max {
		h.max = v
	}
	i := bucketOf(v)
	h.grow(i + 1)
	h.counts[i]++
	h.total++
	h.sum += v
}

// grow extends counts to at least n buckets.
func (h *Histogram) grow(n int) {
	if n > len(h.counts) {
		h.counts = append(h.counts, make([]uint64, n-len(h.counts))...)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest observation (0 for an empty histogram).
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 for an empty histogram).
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// inclusive upper edge of the bucket holding the nearest-rank observation,
// clamped to Max, and Min or Max exactly at the extremes. For non-negative
// observations the result lies in [exact, exact·65/64], where exact is the
// nearest-rank percentile of the observed values (metrics.Percentile). A
// nil histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	rank := uint64(q*float64(h.total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank >= h.total {
		return h.Max()
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return min(bucketHigh(i), h.max)
		}
	}
	return h.Max()
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.total == 0 || other.max > h.max {
		h.max = other.max
	}
	h.grow(len(other.counts))
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
}

// PublishTo adds to dst, a registry histogram, what h observed since *last,
// folded onto dst's log-2 grid, and advances *last to that fold.
func (h *Histogram) PublishTo(dst *obs.Histogram, last *Log2Histogram) {
	if h.total == last.total {
		return
	}
	now := Log2Histogram{total: h.total, sum: h.sum}
	for i, c := range h.counts {
		now.counts[foldBucket(i)] += c
	}
	now.PublishTo(dst, last)
}

// Log2Histogram counts observations on obs's log-2 grid in plain memory:
// 65 counters, a count and a sum. It is what Histogram.PublishTo has
// published, and the whole of a per-packet tally that only the registry
// reads (Collector.QueueDepth), where its few cache lines keep Observe
// cheap; the log-linear grid's hundreds of counters would miss the cache
// on every enqueue. The zero value is empty.
type Log2Histogram struct {
	counts [obs.NumBuckets]uint64
	total  uint64
	sum    int64
}

// Observe records one value.
func (h *Log2Histogram) Observe(v int64) {
	h.counts[obs.BucketOf(v)]++
	h.total++
	h.sum += v
}

// Count returns the number of observations.
func (h *Log2Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all observations.
func (h *Log2Histogram) Sum() int64 { return h.sum }

// PublishTo adds to dst what h observed since *last, and advances *last
// to h.
func (h *Log2Histogram) PublishTo(dst *obs.Histogram, last *Log2Histogram) {
	if h.total == last.total {
		return
	}
	grew := h.counts
	for i := range grew {
		grew[i] -= last.counts[i]
	}
	dst.AddCounts(&grew, h.sum-last.sum)
	*last = *h
}

// Bucket is one non-empty histogram bucket: Count observations in [Low, High].
type Bucket struct {
	Low   int64  `json:"low"`
	High  int64  `json:"high"`
	Count uint64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.counts {
		if c > 0 {
			out = append(out, Bucket{Low: bucketLow(i), High: bucketHigh(i), Count: c})
		}
	}
	return out
}

// histogramJSON is the wire form: scalars plus only the non-empty buckets.
type histogramJSON struct {
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{
		Count: h.total, Sum: h.sum, Min: h.Min(), Max: h.Max(), Buckets: h.Buckets(),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*h = Histogram{total: w.Count, sum: w.Sum, min: w.Min, max: w.Max}
	for _, b := range w.Buckets {
		i := bucketOf(b.High)
		if bucketLow(i) != b.Low || bucketHigh(i) != b.High {
			return fmt.Errorf("metrics: bucket [%d,%d] does not match the histogram grid", b.Low, b.High)
		}
		h.grow(i + 1)
		h.counts[i] = b.Count
	}
	return nil
}

// String renders a compact one-line digest.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "hist{empty}"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "hist{n=%d mean=%.1f min=%d max=%d", h.total, h.Mean(), h.Min(), h.Max())
	for _, bk := range h.Buckets() {
		fmt.Fprintf(&b, " [%d,%d]:%d", bk.Low, bk.High, bk.Count)
	}
	b.WriteString("}")
	return b.String()
}
