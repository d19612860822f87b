package metrics

import (
	"reflect"
	"testing"

	"vertigo/internal/units"
)

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

func TestHistogramCDF(t *testing.T) {
	h := &Histogram{}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	pts := h.CDF(100)
	if len(pts) == 0 {
		t.Fatal("no CDF points")
	}
	last := pts[len(pts)-1]
	if last.Fraction != 1 || last.Value != 1000 {
		t.Errorf("final point = %+v, want fraction 1 at clamped max 1000", last)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value <= pts[i-1].Value || pts[i].Fraction <= pts[i-1].Fraction {
			t.Fatalf("CDF not strictly increasing at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
	// Each point's fraction must match the true empirical CDF at its value:
	// for uniform 1..1000, F(v) = v/1000.
	for _, p := range pts {
		want := float64(p.Value) / 1000
		if diff := p.Fraction - want; diff < -1e-9 || diff > 1e-9 {
			t.Errorf("CDF(%d) = %.4f, want %.4f", p.Value, p.Fraction, want)
		}
	}
	// Downsampling keeps the final point.
	if short := h.CDF(3); len(short) != 3 || short[2].Fraction != 1 {
		t.Errorf("CDF(3) = %+v, want 3 points ending at fraction 1", short)
	}
	var nilH *Histogram
	if nilH.CDF(10) != nil || (&Histogram{}).CDF(10) != nil {
		t.Error("nil/empty histogram CDF should be nil")
	}
}

func TestParseRawMode(t *testing.T) {
	for s, want := range map[string]RawMode{"auto": RawAuto, "": RawAuto, "keep": RawKeep, "drop": RawDrop} {
		got, err := ParseRawMode(s)
		if err != nil || got != want {
			t.Errorf("ParseRawMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseRawMode("bogus"); err == nil {
		t.Error("ParseRawMode(bogus) should error")
	}
	if RawDrop.String() != "drop" || RawKeep.String() != "keep" || RawAuto.String() != "auto" {
		t.Error("RawMode String values wrong")
	}
}

// summarizeFlows builds a collector with n completed flows (FCT = i+1 µs)
// and digests it under mode m.
func summarizeFlows(n int, m RawMode) *Summary {
	c := NewCollector()
	c.RawSeries = m
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		c.StartFlow(FlowRecord{ID: id, Size: 1000, Start: 0, Query: -1})
		c.EndFlow(id, units.Time(i+1)*units.Microsecond)
	}
	return c.Summarize(units.Time(n+1) * units.Microsecond)
}

func TestSummarizeRawModes(t *testing.T) {
	// RawAuto keeps small runs byte-for-byte as before.
	s := summarizeFlows(100, RawAuto)
	if len(s.FCTs) != 100 {
		t.Errorf("RawAuto small run dropped raw series (%d kept)", len(s.FCTs))
	}
	// RawDrop strips the slices; sums and counts stream so the mean stays
	// exact, while percentiles are served from the histogram (factor-of-two
	// bucket bounds).
	d := summarizeFlows(100, RawDrop)
	if d.FCTs != nil || d.QCTs != nil {
		t.Error("RawDrop kept raw series")
	}
	if d.MeanFCT != s.MeanFCT {
		t.Errorf("RawDrop changed the exact mean: %v vs %v", d.MeanFCT, s.MeanFCT)
	}
	if want := units.Time(d.FCTHist.Quantile(0.99)); d.P99FCT != want {
		t.Errorf("RawDrop p99 = %v, want histogram quantile %v", d.P99FCT, want)
	}
	if d.FCTHist == nil || d.FCTHist.Count() != 100 {
		t.Fatal("RawDrop summary lacks the FCT histogram")
	}
	// Percentile fallback: histogram bound within a factor of two above the
	// exact raw value, never below it.
	for _, p := range []float64{50, 90, 99} {
		exact, approx := s.FCTPercentile(p), d.FCTPercentile(p)
		if approx < exact || approx > 2*exact {
			t.Errorf("p%.0f fallback %v outside [%v, %v]", p, approx, exact, 2*exact)
		}
	}
	// CDF fallback exists and terminates at the max.
	cdf := d.FCTCDF(64)
	if len(cdf) == 0 || cdf[len(cdf)-1].Fraction != 1 {
		t.Errorf("histogram CDF fallback wrong: %+v", cdf)
	}
}
