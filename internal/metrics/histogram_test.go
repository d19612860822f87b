package metrics

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
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
	// The wire form is the run of counts by grid index: each value below 128
	// has a bucket of its own, and 128 and 129 share bucket 128.
	h = &Histogram{}
	for _, v := range []int64{100, 128, 129} {
		h.Observe(v)
	}
	if data, _ := json.Marshal(h); string(data) != `{"count":3,"sum":357,"min":100,"max":129,"first":100,"counts":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2]}` {
		t.Errorf("wire form %s", data)
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
}

// TestHistogramJSONRejectsMalformed: the decoder takes only what the
// encoder writes, so a results.json edited or cut by hand cannot report a
// quantile its counts do not hold.
func TestHistogramJSONRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"first below the grid", `{"count":1,"sum":0,"min":0,"max":0,"first":-1,"counts":[1]}`},
		{"run past bucket 3711", `{"count":2,"sum":0,"min":` + fmt.Sprint(int64(math.MaxInt64)) + `,"max":` + fmt.Sprint(int64(math.MaxInt64)) + `,"first":3711,"counts":[1,1]}`},
		{"run starting past the grid", `{"count":1,"sum":0,"min":0,"max":0,"first":3712,"counts":[1]}`},
		{"zero count first", `{"count":1,"sum":5,"min":5,"max":5,"first":4,"counts":[0,1]}`},
		{"zero count last", `{"count":1,"sum":5,"min":5,"max":5,"first":5,"counts":[1,0]}`},
		{"counts short of count", `{"count":3,"sum":10,"min":5,"max":5,"first":5,"counts":[2]}`},
		{"counts past count", `{"count":1,"sum":10,"min":5,"max":5,"first":5,"counts":[2]}`},
		{"counts overflowing to count", `{"count":1,"sum":5,"min":5,"max":6,"first":5,"counts":[18446744073709551615,2]}`},
		{"count without counts", `{"count":1,"sum":1500,"min":1500,"max":1500}`},
		{"min outside the first bucket", `{"count":2,"sum":11,"min":4,"max":6,"first":5,"counts":[1,1]}`},
		{"max outside the last bucket", `{"count":2,"sum":11,"min":5,"max":7,"first":5,"counts":[1,1]}`},
		{"min above max", `{"count":2,"sum":260,"min":129,"max":128,"first":128,"counts":[2]}`},
		{"empty with scalars", `{"count":0,"sum":0,"min":0,"max":3,"first":0}`},
	} {
		if err := json.Unmarshal([]byte(tc.in), &Histogram{}); err == nil {
			t.Errorf("%s: %s decoded", tc.name, tc.in)
		}
	}
}

// FuzzHistogramJSON decodes arbitrary bytes as a histogram. An input that
// decodes holds counts that sum to its count, re-encodes to bytes that
// decode and encode to themselves, and has monotone quantiles between its
// min and max.
func FuzzHistogramJSON(f *testing.F) {
	for _, s := range []string{
		`{"count":0,"sum":0,"min":0,"max":0,"first":0}`,
		`{"count":3,"sum":357,"min":100,"max":129,"first":100,"counts":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2]}`,
		`{"count":2,"sum":-3,"min":-5,"max":2,"first":0,"counts":[1,0,1]}`,
		`{"count":1,"sum":5,"min":5,"max":5,"first":4,"counts":[0,1]}`,
		`{"count":1,"sum":1500,"min":1500,"max":1500,"buckets":[{"low":1024,"high":2047,"count":1}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := &Histogram{}
		if json.Unmarshal(data, h) != nil {
			return
		}
		var total uint64
		for _, c := range h.counts {
			total += c
		}
		if total != h.Count() {
			t.Fatalf("%s: counts sum to %d, count %d", data, total, h.Count())
		}
		enc, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		back := &Histogram{}
		if err := json.Unmarshal(enc, back); err != nil {
			t.Fatalf("%s re-encoded to %s, which does not decode: %v", data, enc, err)
		}
		if again, _ := json.Marshal(back); string(again) != string(enc) {
			t.Fatalf("%s re-encoded to %s, then to %s", data, enc, again)
		}
		prev := h.Min()
		for _, q := range []float64{0, 0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
			v := h.Quantile(q)
			if v < prev || v > h.Max() {
				t.Fatalf("%s: Quantile(%g) = %d after %d, max %d", data, q, v, prev, h.Max())
			}
			prev = v
		}
	})
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
