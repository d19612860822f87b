package metrics

import (
	"reflect"
	"testing"

	"vertigo/internal/units"
)

// TestRecyclingBoundsLiveRecords pins the O(active flows) contract: under
// RawDrop every completed record's slot is recycled, so the live population
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
	if s.FCTs != nil {
		t.Fatal("RawDrop summary kept raw series")
	}
}

func time(us int) units.Time { return units.Time(us) * units.Microsecond }

// TestRawAutoCutoverPurges drives a collector past the RawAuto started-flows
// cutoff and checks the crossing: raw series dropped, no completed record
// held on either side of it.
func TestRawAutoCutoverPurges(t *testing.T) {
	c := NewCollector()
	n := RawAutoMaxFlows + 100
	for i := 1; i <= n; i++ {
		c.StartFlow(FlowRecord{ID: uint64(i), Size: 1000, Start: 0, Query: -1})
		c.EndFlow(uint64(i), time(i))
	}
	if c.LiveFlows() != 0 {
		t.Fatalf("live records = %d after cutover, want 0", c.LiveFlows())
	}
	s := c.Summarize(time(n + 1))
	if s.FCTs != nil {
		t.Fatal("raw series survived the RawAuto cutover")
	}
	if s.FlowsStarted != n || s.FlowsCompleted != n {
		t.Fatalf("counts %d/%d, want %d", s.FlowsCompleted, s.FlowsStarted, n)
	}
	if s.FCTHist == nil || s.FCTHist.Count() != uint64(n) {
		t.Fatal("histogram missing streamed completions")
	}
	// MeanFCT is exact: sum of 1..n µs over n = (n+1)*500 ns.
	want := units.Time(n+1) * 500
	if s.MeanFCT != want {
		t.Fatalf("MeanFCT = %v, want exact %v", s.MeanFCT, want)
	}
}

// TestCompletedRecordsStayOnlyUnderRawKeep: in every mode EndFlow streams a
// completion into the same aggregates, and only RawKeep keeps the completed
// record — RawAuto keeps the raw series of a small run, not its records, and
// its Summary is RawKeep's.
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
		want := *ks
		if m == RawDrop { // the raw series, and what only they resolve, aside
			s.FCTs, s.QCTs, want.FCTs, want.QCTs = nil, nil, nil, nil
			s.P99FCT, s.P99QCT, want.P99FCT, want.P99QCT = 0, 0, 0, 0
		}
		if !reflect.DeepEqual(*s, want) {
			t.Fatalf("%v summary differs from RawKeep's:\n got %+v\nwant %+v", m, *s, want)
		}
	}
}

// TestCollectorMerge folds two shards and checks the combined summary
// matches a single collector fed both workloads.
func TestCollectorMerge(t *testing.T) {
	feed := func(c *Collector, base uint64, n int) {
		q := c.StartQuery(2, 0)
		c.StartFlow(FlowRecord{ID: base, Class: Incast, Size: 4000, Start: 0, Query: q})
		c.StartFlow(FlowRecord{ID: base + 1, Class: Incast, Size: 4000, Start: 0, Query: q})
		c.EndFlow(base, time(5))
		c.EndFlow(base+1, time(7))
		for i := 0; i < n; i++ {
			id := base + 2 + uint64(i)
			c.StartFlow(FlowRecord{ID: id, Size: 20_000_000, Start: 0, Query: -1})
			c.EndFlow(id, time(1000+i))
		}
		c.PacketsSent += int64(n) * 10
		c.Recovered(time(50))
	}
	a, b, whole := NewCollector(), NewCollector(), NewCollector()
	feed(a, 1000, 3)
	feed(b, 2000, 5)
	feed(whole, 1000, 3)
	feed(whole, 2000, 5)

	a.Merge(b)
	got, want := a.Summarize(time(10_000)), whole.Summarize(time(10_000))
	if got.FlowsStarted != want.FlowsStarted || got.FlowsCompleted != want.FlowsCompleted {
		t.Fatalf("flow counts %d/%d, want %d/%d",
			got.FlowsCompleted, got.FlowsStarted, want.FlowsCompleted, want.FlowsStarted)
	}
	if got.MeanFCT != want.MeanFCT || got.P99FCT != want.P99FCT {
		t.Fatalf("FCT scalars differ: mean %v/%v p99 %v/%v",
			got.MeanFCT, want.MeanFCT, got.P99FCT, want.P99FCT)
	}
	if got.MeanQCT != want.MeanQCT || got.QueriesCompleted != want.QueriesCompleted {
		t.Fatalf("QCT differs: %v/%v (%d/%d queries)",
			got.MeanQCT, want.MeanQCT, got.QueriesCompleted, want.QueriesCompleted)
	}
	if got.ElephantGoodput != want.ElephantGoodput || got.ElephantFlows != want.ElephantFlows {
		t.Fatalf("elephant goodput %v/%v", got.ElephantGoodput, want.ElephantGoodput)
	}
	if got.FCTHist.Count() != want.FCTHist.Count() || got.FCTHist.Sum() != want.FCTHist.Sum() {
		t.Fatal("merged histogram diverges from one-shot")
	}
	if got.PacketsSent != want.PacketsSent {
		t.Fatalf("counters not merged: %d vs %d", got.PacketsSent, want.PacketsSent)
	}
	if got.LinkRecoveries != 2 || got.MTTR != time(50) {
		t.Fatalf("recoveries %d MTTR %v, want 2 at 50µs", got.LinkRecoveries, got.MTTR)
	}
}

// TestRecoveriesBounded pins the flap-storm bound: recoveries stream into
// the TTR histogram, and the raw series exists only under RawKeep.
func TestRecoveriesBounded(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 100_000; i++ {
		c.Recovered(time(10))
	}
	if got := c.RecoveryTimes(); got != nil {
		t.Fatalf("raw recoveries kept without RawKeep: %d entries", len(got))
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

	k := NewCollector()
	k.RawSeries = RawKeep
	k.Recovered(time(30))
	k.Recovered(time(10))
	if got := k.RecoveryTimes(); len(got) != 2 || got[0] != time(30) {
		t.Fatalf("RawKeep raw recoveries = %v", got)
	}
}
