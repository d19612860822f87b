package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"vertigo/internal/units"
)

// TestRecyclingBoundsLiveRecords pins the O(active flows) contract: under
// RawDrop, as under RawAuto, every completed record's slot is recycled, so the live population
// tracks open flows, not total flows.
func TestRecyclingBoundsLiveRecords(t *testing.T) {
	c := NewCollector()
	c.RawSeries = RawDrop
	for i := uint64(1); i <= 10_000; i++ {
		c.StartFlow(FlowRecord{ID: i, Size: 1000, Start: 0, Query: -1})
		if i > 8 { // keep a window of 8 flows open
			c.EndFlow(i-8, units.Time(i)*units.Microsecond)
		}
	}
	if c.LiveFlows() != 8 {
		t.Fatalf("live records = %d, want the 8 still-open flows", c.LiveFlows())
	}
	if c.FlowsStarted() != 10_000 || c.FlowsCompleted() != 10_000-8 {
		t.Fatalf("started %d completed %d", c.FlowsStarted(), c.FlowsCompleted())
	}
	// Completed records are gone; open ones are still addressable.
	if c.Flow(1) != nil {
		t.Fatal("completed record survived recycling")
	}
	if c.Flow(10_000) == nil {
		t.Fatal("open flow lost")
	}
	s := c.Summarize(time(10_001))
	if s.FlowsCompleted != 10_000-8 || s.FCTHist == nil || s.FCTHist.Count() != 10_000-8 {
		t.Fatalf("summary lost streamed completions: %+v", s.FlowsCompleted)
	}
}

func time(us int) units.Time { return units.Time(us) * units.Microsecond }

// TestPercentilesStayBoundedAtAnyCount drives a collector past 200k
// started flows, where percentiles once fell back to factor-of-two buckets:
// every percentile stays within 65/64 above the exact one, the mean and the
// counts are exact, and no completed record is held.
func TestPercentilesStayBoundedAtAnyCount(t *testing.T) {
	c := NewCollector()
	n := 200_100
	fcts := make([]units.Time, 0, n)
	for i := 1; i <= n; i++ {
		c.StartFlow(FlowRecord{ID: uint64(i), Size: 1000, Start: 0, Query: -1})
		c.EndFlow(uint64(i), time(i))
		fcts = append(fcts, time(i))
	}
	if c.LiveFlows() != 0 {
		t.Fatalf("live records = %d, want 0", c.LiveFlows())
	}
	s := c.Summarize(time(n + 1))
	if s.FlowsStarted != n || s.FlowsCompleted != n {
		t.Fatalf("counts %d/%d, want %d", s.FlowsCompleted, s.FlowsStarted, n)
	}
	if s.FCTHist == nil || s.FCTHist.Count() != uint64(n) {
		t.Fatal("histogram missing streamed completions")
	}
	// MeanFCT is exact: sum of 1..n µs over n = (n+1)*500 ns.
	if want := units.Time(n+1) * 500; s.MeanFCT != want {
		t.Fatalf("MeanFCT = %v, want exact %v", s.MeanFCT, want)
	}
	for _, p := range []float64{10, 50, 99, 99.9} {
		exact, got := Percentile(fcts, p), s.FCTPercentile(p)
		if got < exact || got > exact*65/64 {
			t.Errorf("p%g = %v, want within [%v, %v]", p, got, exact, exact*65/64)
		}
	}
	if s.P99FCT != s.FCTPercentile(99) {
		t.Errorf("P99FCT %v is not FCTPercentile(99) %v", s.P99FCT, s.FCTPercentile(99))
	}
}

// TestSummaryIsASnapshot: a Summary taken mid-run shares nothing with the
// collector, so what the collector observes afterwards — into buckets the
// Summary holds and into new ones — leaves it as it was.
func TestSummaryIsASnapshot(t *testing.T) {
	c := NewCollector()
	q := c.StartQuery(1, 0)
	c.StartFlow(FlowRecord{ID: 1, Class: Incast, Size: 1000, Start: 0, Query: q})
	c.StartFlow(FlowRecord{ID: 2, Size: 1000, Start: 0, Query: -1})
	c.EndFlow(1, time(5))
	c.EndFlow(2, time(7))
	c.Recovered(time(3))
	s := c.Summarize(time(10))
	before, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	q = c.StartQuery(1, time(10))
	for i := uint64(3); i <= 100; i++ {
		rec := FlowRecord{ID: i, Size: 1000, Start: time(10), Query: -1}
		if i == 3 {
			rec.Class, rec.Query = Incast, q
		}
		c.StartFlow(rec)
		c.EndFlow(i, time(10+int(i)*int(i)))
	}
	c.Recovered(time(3))
	c.Recovered(time(3000))
	after, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("mid-run summary changed as the collector went on:\nbefore %s\nafter  %s", before, after)
	}
}

// TestCompletedRecordsStayOnlyUnderRawKeep: in every mode EndFlow streams a
// completion into the same aggregates, and only RawKeep keeps the completed
// record, and every mode's Summary is RawKeep's.
func TestCompletedRecordsStayOnlyUnderRawKeep(t *testing.T) {
	run := func(m RawMode) (*Collector, *Summary) {
		c := NewCollector()
		c.RawSeries = m
		q := c.StartQuery(2, 0)
		for i := uint64(1); i <= 100; i++ {
			rec := FlowRecord{ID: 2 * i, Size: int64(i) * 1000, Start: time(int(i)), Query: -1}
			if i <= 2 {
				rec.Class, rec.Query = Incast, q
			}
			c.StartFlow(rec)
			if i > 4 { // flows 97..100 stay open
				c.EndFlow(2*(i-4), time(int(3*i)))
			}
		}
		return c, c.Summarize(time(1000))
	}
	keep, ks := run(RawKeep)
	if keep.LiveFlows() != 100 || keep.Flow(2) == nil || !keep.Flow(2).Completed {
		t.Fatalf("RawKeep holds %d records, flow 2 %+v; want all 100, flow 2 completed", keep.LiveFlows(), keep.Flow(2))
	}
	for _, m := range []RawMode{RawAuto, RawDrop} {
		c, s := run(m)
		if c.LiveFlows() != 4 || c.Flow(2) != nil || c.Flow(200) == nil {
			t.Fatalf("%v: %d records held, want the 4 open flows", m, c.LiveFlows())
		}
		n := 0
		c.RangeFlows(func(f *FlowRecord) bool { n++; return !f.Completed })
		if n != 4 {
			t.Fatalf("%v: RangeFlows saw a completed record or missed an open one (%d visited)", m, n)
		}
		if want := *ks; !reflect.DeepEqual(*s, want) {
			t.Fatalf("%v summary differs from RawKeep's:\n got %+v\nwant %+v", m, *s, want)
		}
	}
}

// TestRecoveriesBounded pins the flap-storm bound: recoveries stream into
// the TTR histogram and two scalars, and nothing else.
func TestRecoveriesBounded(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 100_000; i++ {
		c.Recovered(time(10))
	}
	if c.RecoveryCount() != 100_000 || c.MTTR() != time(10) {
		t.Fatalf("count %d MTTR %v", c.RecoveryCount(), c.MTTR())
	}
	if c.TTRHist().Count() != 100_000 {
		t.Fatal("TTR histogram missed observations")
	}
	s := c.Summarize(time(1))
	if s.LinkRecoveries != 100_000 || s.MTTR != time(10) || s.TTRHist == nil {
		t.Fatalf("summary recoveries %d MTTR %v", s.LinkRecoveries, s.MTTR)
	}

	if n := len(c.TTRHist().counts); n != bucketOf(int64(time(10)))+1 {
		t.Fatalf("TTR histogram holds %d counters for one distinct value", n)
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

// TestSummarizeRawModes: no mode changes a Summary, and every mode reads
// its percentiles from the histogram grid.
func TestSummarizeRawModes(t *testing.T) {
	s := summarizeFlows(100, RawAuto)
	for _, m := range []RawMode{RawKeep, RawDrop} {
		if d := summarizeFlows(100, m); !reflect.DeepEqual(d, s) {
			t.Errorf("mode %d summary differs from RawAuto's:\n got %+v\nwant %+v", m, d, s)
		}
	}
	if want := units.Time(s.FCTHist.Quantile(0.99)); s.P99FCT != want {
		t.Errorf("p99 = %v, want histogram quantile %v", s.P99FCT, want)
	}
	// FCT i+1 µs for i < 100: the nearest-rank p-th percentile is p µs.
	for _, p := range []float64{50, 90, 99} {
		exact, got := units.Time(p)*units.Microsecond, s.FCTPercentile(p)
		if got < exact || got > exact*65/64 {
			t.Errorf("p%.0f = %v outside [%v, %v]", p, got, exact, exact*65/64)
		}
	}
}
