package metrics

import (
	"encoding/json"
	"fmt"
	"strings"

	"vertigo/internal/obs"
	"vertigo/internal/units"
)

// Histogram is a log-bucketed histogram of non-negative int64 observations
// (nanoseconds, bytes, counts) on obs's bucket grid: bucket i>0 holds values
// in [2^(i-1), 2^i), bucket 0 zero and negative values. Log bucketing keeps
// the whole distribution — from sub-microsecond queue blips to multi-second
// tails — in 65 counters with bounded (≤ 2×) relative error, which is what
// run artifacts need: end-of-run scalars hide exactly the transient behaviour
// the paper's evaluation is about.
//
// The zero value is an empty, usable histogram.
type Histogram struct {
	counts [obs.NumBuckets]uint64
	total  uint64
	sum    int64
	min    int64
	max    int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if h.total == 0 || v > h.max {
		h.max = v
	}
	h.counts[obs.BucketOf(v)]++
	h.total++
	h.sum += v
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
// tightened to Min/Max at the extremes. Resolution is the bucket width
// (factor of two).
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
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
			hi := obs.BucketHigh(i)
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.Max()
}

// CDF returns the histogram's cumulative distribution as one point per
// non-empty bucket (at most maxPoints, downsampled evenly when the grid has
// more), each point's Value being the bucket's inclusive upper bound clamped
// to the observed max. Nil-safe: a nil or empty histogram returns nil. This
// is the figure-path fallback when the raw series was dropped — resolution
// is the factor-of-two bucket width instead of per-sample.
func (h *Histogram) CDF(maxPoints int) []CDFPoint {
	if h == nil || h.total == 0 || maxPoints <= 0 {
		return nil
	}
	var pts []CDFPoint
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		v := obs.BucketHigh(i)
		if v > h.max {
			v = h.max
		}
		pts = append(pts, CDFPoint{Value: units.Time(v), Fraction: float64(seen) / float64(h.total)})
	}
	if len(pts) <= maxPoints {
		return pts
	}
	// Downsample evenly, always keeping the final (fraction 1) point.
	out := make([]CDFPoint, 0, maxPoints)
	for i := 1; i <= maxPoints; i++ {
		out = append(out, pts[i*len(pts)/maxPoints-1])
	}
	return out
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
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
}

// PublishTo adds to dst, a registry histogram on the same bucket grid, what h
// observed since *last — an earlier copy of h — and advances *last to h.
func (h *Histogram) PublishTo(dst *obs.Histogram, last *Histogram) {
	if h.total == last.total {
		return
	}
	var counts [obs.NumBuckets]uint64
	for i := range counts {
		counts[i] = h.counts[i] - last.counts[i]
	}
	dst.AddCounts(&counts, h.sum-last.sum)
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
			out = append(out, Bucket{Low: obs.BucketLow(i), High: obs.BucketHigh(i), Count: c})
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
		i := obs.BucketOf(b.High)
		if obs.BucketLow(i) != b.Low {
			return fmt.Errorf("metrics: bucket [%d,%d] does not match the log-bucket grid", b.Low, b.High)
		}
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
