package metrics

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"vertigo/internal/obs"
	"vertigo/internal/units"
)

func TestHistogramBucketing(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1023, 1024} {
		h.Observe(v)
	}
	if h.Count() != 9 {
		t.Fatalf("count %d, want 9", h.Count())
	}
	want := []Bucket{
		{0, 0, 1}, {1, 1, 1}, {2, 2, 1}, {3, 3, 1}, {4, 4, 1}, {7, 7, 1}, {8, 8, 1}, // one bucket per value below 64
		{1016, 1023, 1}, // octave [512, 1024) in 64 sub-buckets of 8
		{1024, 1039, 1}, // octave [1024, 2048) in 64 sub-buckets of 16
	}
	if got := h.Buckets(); !reflect.DeepEqual(got, want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
	if h.Min() != 0 || h.Max() != 1024 {
		t.Errorf("min/max %d/%d, want 0/1024", h.Min(), h.Max())
	}
	if h.Sum() != 2072 {
		t.Errorf("sum %d, want 2072", h.Sum())
	}
}

// TestHistogramGridEdges pins the layout at the octave seams and the ends.
func TestHistogramGridEdges(t *testing.T) {
	for _, tc := range []struct {
		v        int64
		i        int
		low, hig int64
	}{
		{-5, 0, 0, 0},
		{63, 63, 63, 63},
		{64, 64, 64, 64},
		{127, 127, 127, 127},
		{128, 128, 128, 129},
		{129, 128, 128, 129},
		{1<<20 - 1, 13*64 + 127, 1<<20 - 1<<13, 1<<20 - 1},
		{math.MaxInt64, 3711, 127 << 56, math.MaxInt64},
	} {
		i := bucketOf(tc.v)
		if i != tc.i || bucketLow(i) != tc.low || bucketHigh(i) != tc.hig {
			t.Errorf("%d: bucket %d [%d,%d], want %d [%d,%d]", tc.v, i, bucketLow(i), bucketHigh(i), tc.i, tc.low, tc.hig)
		}
	}
	h := &Histogram{}
	h.Observe(100)
	if len(h.counts) != bucketOf(100)+1 {
		t.Errorf("one observation of 100 grew counts to %d, want %d", len(h.counts), bucketOf(100)+1)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	// Quantile returns the bucket's upper edge, so the estimate is within a
	// factor 65/64 above the exact value.
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		exact := q * 1000
		got := float64(h.Quantile(q))
		if got < exact || got > exact*65/64 {
			t.Errorf("Quantile(%.2f) = %.0f, want within [%.0f, %.1f]", q, got, exact, exact*65/64)
		}
	}
	if h.Quantile(1) != 1000 {
		t.Errorf("Quantile(1) = %d, want exact max 1000", h.Quantile(1))
	}
	if h.Quantile(0) != 1 {
		t.Errorf("Quantile(0) = %d, want exact min 1", h.Quantile(0))
	}
	if math.Abs(h.Mean()-500.5) > 1e-9 {
		t.Errorf("mean %.3f, want 500.5", h.Mean())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram scalars not all zero")
	}
	if h.Buckets() != nil {
		t.Error("empty histogram has buckets")
	}
	if h.String() != "hist{empty}" {
		t.Errorf("String() = %q", h.String())
	}
	var nilH *Histogram
	if nilH.Quantile(0.99) != 0 {
		t.Error("nil histogram has a quantile")
	}
	// An empty histogram, its copy and its publication allocate nothing.
	var dst obs.Histogram
	var last Log2Histogram
	if n := testing.AllocsPerRun(100, func() {
		var e Histogram
		e.Merge(&Histogram{})
		e.PublishTo(&dst, &last)
		_ = histCopy(&e)
		_ = e.Quantile(0.5)
	}); n != 0 {
		t.Errorf("empty histogram work allocated %.0f times", n)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	for v := int64(1); v <= 10; v++ {
		a.Observe(v)
		b.Observe(v * 100)
	}
	a.Merge(b)
	a.Merge(nil)
	a.Merge(&Histogram{})
	if a.Count() != 20 || a.Min() != 1 || a.Max() != 1000 {
		t.Errorf("merged count/min/max = %d/%d/%d", a.Count(), a.Min(), a.Max())
	}
	if a.Sum() != 55+5500 {
		t.Errorf("merged sum %d, want %d", a.Sum(), 55+5500)
	}
}

func TestHistogramMergeAssociativity(t *testing.T) {
	mk := func(vals ...int64) *Histogram {
		h := &Histogram{}
		for _, v := range vals {
			h.Observe(v)
		}
		return h
	}
	parts := [][]int64{
		{1, 2, 3, 1000},
		{0, 7, 1 << 30},
		{5, 5, 5, 9999999},
	}
	// (a ⊕ b) ⊕ c
	left := mk(parts[0]...)
	left.Merge(mk(parts[1]...))
	left.Merge(mk(parts[2]...))
	// a ⊕ (b ⊕ c)
	bc := mk(parts[1]...)
	bc.Merge(mk(parts[2]...))
	right := mk(parts[0]...)
	right.Merge(bc)
	// one-shot over the concatenation
	var all []int64
	for _, p := range parts {
		all = append(all, p...)
	}
	direct := mk(all...)

	if !reflect.DeepEqual(left, right) {
		t.Errorf("merge not associative:\n(a+b)+c = %v\na+(b+c) = %v", left, right)
	}
	if !reflect.DeepEqual(left, direct) {
		t.Errorf("merged parts differ from one-shot histogram:\nmerged = %v\ndirect = %v", left, direct)
	}
}

// TestHistogramPublishFolds: what PublishTo adds to a registry histogram
// over several publishes, from the log-linear grid and from the log-2 tally
// alike, is what observing the same values there directly gives.
func TestHistogramPublishFolds(t *testing.T) {
	var h Histogram
	var tally, last, tallyLast Log2Histogram
	var pub, tallyPub, direct obs.Histogram
	for round, vals := range [][]int64{{0, 1, 63, 64, 100}, {}, {1 << 20, 5000, 7}, {math.MaxInt64 / 4}} {
		for _, v := range vals {
			h.Observe(v)
			tally.Observe(v)
			direct.Observe(v)
		}
		h.PublishTo(&pub, &last)
		tally.PublishTo(&tallyPub, &tallyLast)
		want := direct.Snapshot()
		if got := pub.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: published %+v, want %+v", round, got, want)
		}
		if got := tallyPub.Snapshot(); !reflect.DeepEqual(got, want) || tally.Count() != want.Count || tally.Sum() != want.Sum {
			t.Fatalf("round %d: tally published %+v, want %+v", round, got, want)
		}
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 1, 5, 40_000, 2_000_000_000} {
		h.Observe(v)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	back := &Histogram{}
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, back) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", back, h)
	}
	// Empty histogram round-trips too.
	data, err = json.Marshal(&Histogram{})
	if err != nil {
		t.Fatal(err)
	}
	back = &Histogram{}
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != 0 {
		t.Errorf("empty round trip has count %d", back.Count())
	}
	// A bucket off the grid — here a log-2 one — is rejected.
	if err := json.Unmarshal([]byte(`{"count":1,"sum":1500,"min":1500,"max":1500,"buckets":[{"low":1024,"high":2047,"count":1}]}`), back); err == nil {
		t.Error("a log-2 bucket decoded onto the log-linear grid")
	}
}

// FuzzHistogramGrid checks the grid on arbitrary values, read eight bytes
// apiece: each value lies in its bucket, bucket index is monotone in value,
// every bucket folds onto the value's obs log-2 bucket, a quantile is
// within 1/64 above the exact one, and a histogram survives JSON and merges
// as if the merged values had been observed in one.
func FuzzHistogramGrid(f *testing.F) {
	f.Add([]byte{})
	for _, vals := range [][]int64{
		{0, 63, 64, 127, 128, 1<<20 - 1, 1 << 20, 1 << 62, math.MaxInt64},
		{5, -3, 1000, math.MinInt64},
	} {
		var seed []byte
		for _, v := range vals {
			seed = binary.LittleEndian.AppendUint64(seed, uint64(v))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []int64
		for ; len(data) >= 8; data = data[8:] {
			vals = append(vals, int64(binary.LittleEndian.Uint64(data)))
		}
		a, b, both := &Histogram{}, &Histogram{}, &Histogram{}
		var times []units.Time
		for k, v := range vals {
			i := bucketOf(v)
			lo, hi := bucketLow(i), bucketHigh(i)
			switch {
			case v < 0 && i != 0:
				t.Fatalf("negative %d in bucket %d", v, i)
			case v >= 0 && (v < lo || v > hi):
				t.Fatalf("%d outside its bucket %d [%d,%d]", v, i, lo, hi)
			case lo >= 64 && hi-lo >= lo/64:
				t.Fatalf("bucket %d [%d,%d] wider than 1/64 of its low edge", i, lo, hi)
			case v >= 0 && foldBucket(i) != obs.BucketOf(v):
				t.Fatalf("%d: bucket %d folds to %d, obs puts it in %d", v, i, foldBucket(i), obs.BucketOf(v))
			}
			if k > 0 {
				u := vals[k-1]
				if j := bucketOf(u); (u < v && j > i) || (u > v && j < i) {
					t.Fatalf("not monotone: %d in %d, %d in %d", u, j, v, i)
				}
			}
			if k%2 == 0 {
				a.Observe(v)
			} else {
				b.Observe(v)
			}
			both.Observe(v)
			if v >= 0 {
				times = append(times, units.Time(v))
			}
		}
		if len(times) == len(vals) {
			for _, p := range []float64{1, 50, 99, 99.9} {
				exact, got := int64(Percentile(times, p)), both.Quantile(p/100)
				if got < exact || got-exact > exact/64 {
					t.Fatalf("p%g: grid %d, exact %d", p, got, exact)
				}
			}
		}
		data, err := json.Marshal(both)
		if err != nil {
			t.Fatal(err)
		}
		back := &Histogram{}
		if err := json.Unmarshal(data, back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, both) {
			t.Fatalf("JSON round trip:\n got %v\nwant %v", back, both)
		}
		a.Merge(b)
		if !reflect.DeepEqual(a, both) {
			t.Fatalf("merge:\n got %v\nwant %v", a, both)
		}
	})
}
