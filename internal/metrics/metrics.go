// Package metrics collects and summarizes simulation results: flow and
// query completion times, drop/deflection/reorder counters and goodput.
// Completion times stream into log-linear histograms (Histogram), whose
// percentiles are within a factor 65/64 of the exact ones at any flow
// count; they are the only percentile path a Summary has.
package metrics

import (
	"sort"

	"vertigo/internal/flowtab"
	"vertigo/internal/units"
)

// RawMode says whether the Collector keeps completed flows' records.
type RawMode int

// Record-retention modes.
const (
	// RawAuto (the default) deletes a completed flow's record at once.
	RawAuto RawMode = iota
	// RawKeep keeps every completed flow's record for Collector.Flow and
	// RangeFlows.
	RawKeep
	// RawDrop is RawAuto; the name stays for callers that still set it.
	RawDrop
)

// DropReason classifies packet drops for the §2 and Fig. 12 breakdowns.
type DropReason int

// Drop reasons.
const (
	DropOverflow    DropReason = iota // FIFO tail drop / no deflection room
	DropDeflectFull                   // deflection targets all full (Vertigo)
	DropTTL                           // hop budget exhausted
	DropLinkDown                      // transmitted into a failed link
	DropCorrupt                       // bit-error corruption on a faulty link
	DropOther
	numDropReasons
)

// NumDropReasons is the number of distinct drop classes (for per-class
// breakdown tables).
const NumDropReasons = int(numDropReasons)

func (r DropReason) String() string {
	switch r {
	case DropOverflow:
		return "overflow"
	case DropDeflectFull:
		return "deflect-full"
	case DropTTL:
		return "ttl"
	case DropLinkDown:
		return "link-down"
	case DropCorrupt:
		return "corrupt"
	default:
		return "other"
	}
}

// FlowClass separates background traffic from incast responses.
type FlowClass int

// Flow classes.
const (
	Background FlowClass = iota
	Incast
	numFlowClasses
)

func (c FlowClass) String() string {
	if c == Incast {
		return "incast"
	}
	return "background"
}

// FlowRecord is one flow's lifetime.
type FlowRecord struct {
	ID        uint64
	Class     FlowClass
	Src, Dst  int
	Size      int64
	Start     units.Time
	End       units.Time // valid when Completed
	Completed bool
	Query     int // owning query ID for incast flows, else -1
}

// FCT returns the flow completion time.
func (f *FlowRecord) FCT() units.Time { return f.End - f.Start }

// QueryRecord is one incast query's lifetime: it completes when all of its
// member flows complete (paper §2).
type QueryRecord struct {
	ID        int
	Scale     int // number of responding servers
	Start     units.Time
	End       units.Time
	Completed bool
	Remaining int // flows not yet finished
}

// QCT returns the query completion time.
func (q *QueryRecord) QCT() units.Time { return q.End - q.Start }

// Collector accumulates events during a run. It is not safe for concurrent
// use; the simulator is single-threaded by design.
//
// Completion times are streamed: every scalar and distribution a Summary
// reports is folded in at EndFlow time (sums, counts, per-class histograms),
// so the collector's footprint is O(active flows), not O(total flows).
// FlowRecord slots live in a flowtab slab table and hold open flows only:
// EndFlow deletes a completed record and its slot goes to the next flow,
// unless RawSeries is RawKeep, which keeps every record for Flow and
// RangeFlows to inspect. No mode changes a Summary. What still grows with
// the run is Queries, one entry per incast query.
type Collector struct {
	// RawSeries says whether completed flows' records stay (see RawMode);
	// the zero value is RawAuto.
	RawSeries RawMode

	Queries []QueryRecord
	// flows holds the open flow records — and under RawKeep the completed
	// ones too — keyed by flow ID. Flow IDs come from the shared
	// packet.IDGen, so they are sparse (interleaved with packet IDs), ruling
	// out a dense slice; the flowtab keeps lookups cheap and recycles record
	// slots.
	flows *flowtab.Table[FlowRecord]

	flowsStarted   int
	flowsCompleted int

	// Streaming FCT/QCT aggregates: the canonical completion-time store.
	// fctHist is per flow class; Summary merges the classes for the overall
	// distribution and keeps the per-class shapes.
	fctHist   [numFlowClasses]Histogram
	qctHist   Histogram
	fctSum    int64
	qctSum    int64
	miceCount int64
	miceSum   int64
	// Elephant goodput: per-flow goodput is truncated to an integer bit
	// rate before summing (matching the Summary arithmetic), so the running
	// sum is exact regardless of completion order.
	elephFlows   int
	elephGoodput units.BitRate

	Drops        [numDropReasons]int64
	DropsByClass [numFlowClasses]int64
	Deflections  int64
	ECNMarks     int64
	PacketsSent  int64 // data packets injected by hosts (incl. retransmissions)
	PacketsRecv  int64 // data packets delivered to their destination host
	BytesGoodput int64 // first-delivery payload bytes
	HopSum       int64 // hops over delivered data packets
	Retransmits  int64
	RTOs         int64
	FastRetx     int64
	ReorderPkts  int64 // data packets arriving out of order at the transport
	OrderingHeld int64 // packets buffered by the Vertigo ordering layer
	OrderTimeout int64 // ordering-layer timeouts fired
	Boosted      int64 // retransmitted packets whose RFS was boosted

	// QueueDepth is egress-queue occupancy in bytes, observed after every
	// enqueue at a NIC or switch port: the occupancy distribution, not its
	// mean, tells buffer regimes apart (paper §5). No Summary reports it,
	// so it stays on the registry's log-2 grid.
	QueueDepth Log2Histogram

	// Fault-injection accounting (see internal/faults). Recovery durations
	// are folded into a histogram + sum/count as links come back up, so flap
	// storms cost O(1) memory.
	FaultEvents    int64 // fault transitions applied to the fabric
	FIBInstalls    int64 // control-plane healing FIB swaps
	PostRecoveryTx int64 // packets transmitted on a once-failed, recovered port
	ttrHist        Histogram
	ttrCount       int
	ttrSum         int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{flows: flowtab.New[FlowRecord](256)}
}

// StartFlow registers a new flow.
func (c *Collector) StartFlow(rec FlowRecord) {
	c.flowsStarted++
	v, _ := c.flows.Put(rec.ID)
	*v = rec
}

// EndFlow marks a flow complete at time t, streams its completion into the
// aggregate sums and histograms and, unless RawSeries is RawKeep, deletes
// the record.
func (c *Collector) EndFlow(id uint64, t units.Time) {
	f := c.flows.Get(id)
	if f == nil || f.Completed {
		return
	}
	f.End = t
	f.Completed = true
	c.flowsCompleted++
	fct := t - f.Start
	c.fctHist[f.Class].Observe(int64(fct))
	c.fctSum += int64(fct)
	if f.Size < MiceMaxBytes {
		c.miceCount++
		c.miceSum += int64(fct)
	}
	if f.Size > ElephantMinBytes {
		c.elephFlows++
		if fct > 0 {
			c.elephGoodput += units.BitRate(8 * float64(f.Size) / fct.Seconds())
		}
	}
	if f.Query >= 0 {
		q := &c.Queries[f.Query]
		q.Remaining--
		if q.Remaining == 0 {
			q.End = t
			q.Completed = true
			qct := t - q.Start
			c.qctHist.Observe(int64(qct))
			c.qctSum += int64(qct)
		}
	}
	if c.RawSeries != RawKeep {
		c.flows.Delete(id)
	}
}

// Flow returns the record for a flow ID, or nil. A completed flow is found
// only under RawKeep; in the other modes EndFlow deletes its record.
//
// Aliasing rule: the pointer aims into the flow table's value slab, which
// can move when StartFlow grows the table. A *FlowRecord is therefore valid
// only until the next StartFlow — read or update it immediately; never
// hold it across anything that can register a flow.
func (c *Collector) Flow(id uint64) *FlowRecord {
	return c.flows.Get(id)
}

// FlowsStarted returns the number of flows registered so far.
func (c *Collector) FlowsStarted() int { return c.flowsStarted }

// FlowsCompleted returns the number of flows completed so far.
func (c *Collector) FlowsCompleted() int { return c.flowsCompleted }

// LiveFlows returns the number of flow records currently held. Unless
// RawSeries is RawKeep this is the open-flow population — the collector's
// footprint is proportional to it, not to FlowsStarted.
func (c *Collector) LiveFlows() int { return c.flows.Len() }

// RangeFlows calls fn for every retained flow record in table order until
// fn returns false: the open flows, and the completed ones only under
// RawKeep. The *FlowRecord follows the Flow aliasing rule.
func (c *Collector) RangeFlows(fn func(*FlowRecord) bool) {
	c.flows.Range(func(_ uint64, v *FlowRecord) bool { return fn(v) })
}

// ClassFCTHist returns the canonical completion-time histogram for one flow
// class. The histogram is live; callers must not mutate it mid-run.
func (c *Collector) ClassFCTHist(class FlowClass) *Histogram { return &c.fctHist[class] }

// StartQuery registers an incast query and returns its ID.
func (c *Collector) StartQuery(scale int, t units.Time) int {
	id := len(c.Queries)
	c.Queries = append(c.Queries, QueryRecord{ID: id, Scale: scale, Start: t, Remaining: scale})
	return id
}

// Drop records a dropped data packet.
func (c *Collector) Drop(reason DropReason, class FlowClass) {
	c.Drops[reason]++
	c.DropsByClass[class]++
}

// Recovered records one link's carrier-loss duration when it comes back up.
// The duration is streamed into the TTR histogram and sum, so a flapping
// link costs O(1) memory no matter how often it recovers.
func (c *Collector) Recovered(down units.Time) {
	c.ttrCount++
	c.ttrSum += int64(down)
	c.ttrHist.Observe(int64(down))
}

// RecoveryCount returns the number of link recoveries recorded.
func (c *Collector) RecoveryCount() int { return c.ttrCount }

// MTTR returns the mean time-to-recover over recorded recoveries, or 0.
func (c *Collector) MTTR() units.Time {
	if c.ttrCount == 0 {
		return 0
	}
	return units.Time(c.ttrSum / int64(c.ttrCount))
}

// QCTHist returns the live query-completion-time histogram.
func (c *Collector) QCTHist() *Histogram { return &c.qctHist }

// TTRHist returns the live time-to-recover histogram.
func (c *Collector) TTRHist() *Histogram { return &c.ttrHist }

// TotalDrops sums drops across reasons.
func (c *Collector) TotalDrops() int64 {
	var n int64
	for _, d := range c.Drops {
		n += d
	}
	return n
}

// Mean returns the arithmetic mean of ts, or 0 for empty input.
func Mean(ts []units.Time) units.Time {
	if len(ts) == 0 {
		return 0
	}
	var sum int64
	for _, t := range ts {
		sum += int64(t)
	}
	return units.Time(sum / int64(len(ts)))
}

// Percentile returns the p-th percentile (0 < p <= 100) of ts using
// nearest-rank on a sorted copy; 0 for empty input.
func Percentile(ts []units.Time, p float64) units.Time {
	if len(ts) == 0 {
		return 0
	}
	s := make([]units.Time, len(ts))
	copy(s, ts)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(p/100*float64(len(s))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}
