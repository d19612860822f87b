package metrics

import (
	"testing"
	"testing/quick"

	"vertigo/internal/units"
)

func TestFlowLifecycle(t *testing.T) {
	c := NewCollector()
	c.RawSeries = RawKeep // the completed record stays for Flow
	c.StartFlow(FlowRecord{ID: 1, Size: 1000, Start: 100, Query: -1})
	c.EndFlow(1, 500)
	f := c.Flow(1)
	if f == nil || !f.Completed || f.FCT() != 400 {
		t.Fatalf("flow record %+v, want completed with FCT 400", f)
	}
	// Double EndFlow is idempotent.
	c.EndFlow(1, 900)
	if c.Flow(1).End != 500 {
		t.Fatal("second EndFlow overwrote completion time")
	}
	// Unknown flow is ignored.
	c.EndFlow(42, 100)
}

func TestQueryCompletesWhenAllFlowsDo(t *testing.T) {
	c := NewCollector()
	q := c.StartQuery(3, 10)
	for i := uint64(1); i <= 3; i++ {
		c.StartFlow(FlowRecord{ID: i, Class: Incast, Start: 10, Query: q})
	}
	c.EndFlow(1, 20)
	c.EndFlow(2, 30)
	if c.Queries[q].Completed {
		t.Fatal("query completed with a flow outstanding")
	}
	c.EndFlow(3, 50)
	if !c.Queries[q].Completed || c.Queries[q].QCT() != 40 {
		t.Fatalf("query %+v, want completed with QCT 40", c.Queries[q])
	}
}

func TestDropAccounting(t *testing.T) {
	c := NewCollector()
	c.Drop(DropOverflow)
	c.Drop(DropOverflow)
	c.Drop(DropTTL)
	if c.TotalDrops() != 3 {
		t.Fatalf("TotalDrops = %d, want 3", c.TotalDrops())
	}
	if c.Drops[DropOverflow] != 2 || c.Drops[DropTTL] != 1 {
		t.Fatal("per-reason counts wrong")
	}
}

func TestMeanPercentile(t *testing.T) {
	ts := []units.Time{10, 20, 30, 40, 50}
	if m := Mean(ts); m != 30 {
		t.Fatalf("Mean = %v, want 30", m)
	}
	if p := Percentile(ts, 50); p != 30 {
		t.Fatalf("P50 = %v, want 30", p)
	}
	if p := Percentile(ts, 100); p != 50 {
		t.Fatalf("P100 = %v, want 50", p)
	}
	if Mean(nil) != 0 || Percentile(nil, 99) != 0 {
		t.Fatal("empty input must yield 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	ts := []units.Time{50, 10, 30}
	Percentile(ts, 99)
	if ts[0] != 50 || ts[1] != 10 || ts[2] != 30 {
		t.Fatal("Percentile mutated its input")
	}
}

// Property: the percentile of any series lies within [min, max] and P100 is
// the maximum.
func TestPropertyPercentileBounds(t *testing.T) {
	f := func(raw []uint32, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ts := make([]units.Time, len(raw))
		lo, hi := units.Time(raw[0]), units.Time(raw[0])
		for i, v := range raw {
			ts[i] = units.Time(v)
			if ts[i] < lo {
				lo = ts[i]
			}
			if ts[i] > hi {
				hi = ts[i]
			}
		}
		p := 1 + float64(pRaw%100)
		got := Percentile(ts, p)
		return got >= lo && got <= hi && Percentile(ts, 100) == hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	c := NewCollector()
	// Two completed background flows (one mouse, one elephant), one
	// incomplete, one completed incast query of two flows.
	c.StartFlow(FlowRecord{ID: 1, Size: 50_000, Start: 0, Query: -1})
	c.EndFlow(1, int64GoodTime(1))
	c.StartFlow(FlowRecord{ID: 2, Size: 20_000_000, Start: 0, Query: -1})
	c.EndFlow(2, int64GoodTime(16)) // 20MB in 16ms = 10Gbps
	c.StartFlow(FlowRecord{ID: 3, Size: 1000, Start: 0, Query: -1})

	q := c.StartQuery(2, 0)
	c.StartFlow(FlowRecord{ID: 4, Class: Incast, Size: 4000, Start: 0, Query: q})
	c.StartFlow(FlowRecord{ID: 5, Class: Incast, Size: 4000, Start: 0, Query: q})
	c.EndFlow(4, int64GoodTime(2))
	c.EndFlow(5, int64GoodTime(3))

	c.PacketsSent = 100
	c.PacketsRecv = 95
	c.HopSum = 95 * 3
	c.BytesGoodput = 1_000_000
	c.Drop(DropOverflow)

	s := c.Summarize(100 * units.Millisecond)
	if s.FlowsStarted != 5 || s.FlowsCompleted != 4 {
		t.Fatalf("flows %d/%d, want 4/5", s.FlowsCompleted, s.FlowsStarted)
	}
	if s.FlowCompletionP != 80 {
		t.Fatalf("completion %.1f%%, want 80", s.FlowCompletionP)
	}
	if s.QueriesCompleted != 1 || s.MeanQCT != 3*units.Millisecond {
		t.Fatalf("QCT %v (completed %d), want 3ms", s.MeanQCT, s.QueriesCompleted)
	}
	if s.ElephantFlows != 1 {
		t.Fatalf("elephants %d, want 1", s.ElephantFlows)
	}
	// 20MB in 16ms = 10 Gbps.
	if s.ElephantGoodput < 9*units.Gbps || s.ElephantGoodput > 11*units.Gbps {
		t.Fatalf("elephant goodput %v, want ~10Gbps", s.ElephantGoodput)
	}
	if s.MeanHops != 3 {
		t.Fatalf("mean hops %.2f, want 3", s.MeanHops)
	}
	if s.DropRate != 0.01 {
		t.Fatalf("drop rate %v, want 0.01", s.DropRate)
	}
	// 1MB over 100ms = 80 Mbps.
	if s.OverallGoodput != 80*units.Mbps {
		t.Fatalf("overall goodput %v, want 80Mbps", s.OverallGoodput)
	}
}

func int64GoodTime(ms int64) units.Time { return units.Time(ms) * units.Millisecond }

func TestDropReasonStrings(t *testing.T) {
	for r, want := range map[DropReason]string{
		DropOverflow:    "overflow",
		DropDeflectFull: "deflect-full",
		DropTTL:         "ttl",
		DropOther:       "other",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
	if Background.String() != "background" || Incast.String() != "incast" {
		t.Error("FlowClass strings")
	}
}

func TestGoodputNoOverflow(t *testing.T) {
	// 8 * 2GB * 1e9 overflows int64; the computation must not.
	c := NewCollector()
	c.BytesGoodput = 2 << 30
	s := c.Summarize(80 * units.Millisecond)
	if s.OverallGoodput <= 0 {
		t.Fatalf("goodput overflowed: %v", s.OverallGoodput)
	}
	// 2 GiB over 80 ms ≈ 214 Gbps.
	if s.OverallGoodput < 200*units.Gbps || s.OverallGoodput > 230*units.Gbps {
		t.Fatalf("goodput %v, want ~214Gbps", s.OverallGoodput)
	}
}

// TestFlowAliasingAcrossGrowth interleaves StartFlow with reads and writes
// through Flow pointers, forcing the Flows backing array to reallocate many
// times. It pins the documented aliasing rule: a *FlowRecord is valid until
// the next StartFlow, so a mutation applied before the append must survive
// the reallocation, and a fresh Flow lookup must always see current state.
func TestFlowAliasingAcrossGrowth(t *testing.T) {
	c := NewCollector()
	const n = 1000
	for i := uint64(1); i <= n; i++ {
		// Mutate an existing record through a fresh pointer, then append.
		// (Flow IDs are sparse in real runs; stride by 3 to mimic that.)
		if i > 1 {
			prev := c.Flow(3 * (i - 1))
			if prev == nil {
				t.Fatalf("flow %d vanished", 3*(i-1))
			}
			prev.End = units.Time(10 * i)
			prev.Completed = true
		}
		c.StartFlow(FlowRecord{ID: 3 * i, Size: int64(i), Start: units.Time(i), Query: -1})
	}
	// Every record must be intact by value: the writes through now-stale
	// pointers happened before the appends that moved the array.
	for i := uint64(1); i <= n; i++ {
		f := c.Flow(3 * i)
		if f == nil {
			t.Fatalf("flow %d missing after growth", 3*i)
		}
		got := *f
		want := FlowRecord{ID: 3 * i, Size: int64(i), Start: units.Time(i), Query: -1}
		if i < n {
			want.End = units.Time(10 * (i + 1))
			want.Completed = true
		}
		if got != want {
			t.Fatalf("flow %d: got %+v, want %+v", 3*i, got, want)
		}
	}
	if c.FlowsStarted() != n || c.LiveFlows() != n {
		t.Fatalf("started %d live %d, want %d of each", c.FlowsStarted(), c.LiveFlows(), n)
	}
}
