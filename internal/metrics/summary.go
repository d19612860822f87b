package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"vertigo/internal/units"
)

// Thresholds used by the paper's flow-size breakdowns (§2).
const (
	MiceMaxBytes     = 100 * 1000       // "mice" flows: < 100 KB
	ElephantMinBytes = 10 * 1000 * 1000 // "elephant" flows: > 10 MB
)

// Summary is the digest of one simulation run: every scalar the paper's
// tables and figures report. The JSON tags are the one schema shared by
// results.json artifacts and any downstream tooling; time fields are
// nanoseconds, rates are bits per second.
type Summary struct {
	Duration units.Time `json:"duration_ns"`

	// Flows (all classes).
	FlowsStarted    int        `json:"flows_started"`
	FlowsCompleted  int        `json:"flows_completed"`
	FlowCompletionP float64    `json:"flow_completion_pct"` // percent
	MeanFCT         units.Time `json:"mean_fct_ns"`
	P99FCT          units.Time `json:"p99_fct_ns"`

	// Mice / elephant breakdown over completed flows.
	MeanMiceFCT     units.Time    `json:"mean_mice_fct_ns"`
	ElephantGoodput units.BitRate `json:"elephant_goodput_bps"` // mean per-elephant-flow goodput
	ElephantFlows   int           `json:"elephant_flows"`

	// Incast queries.
	QueriesStarted   int        `json:"queries_started"`
	QueriesCompleted int        `json:"queries_completed"`
	QueryCompletionP float64    `json:"query_completion_pct"`
	MeanQCT          units.Time `json:"mean_qct_ns"`
	P99QCT           units.Time `json:"p99_qct_ns"`

	// Network counters.
	PacketsSent    int64         `json:"packets_sent"`
	PacketsRecv    int64         `json:"packets_recv"`
	Drops          int64         `json:"drops"`
	DropRate       float64       `json:"drop_rate"` // drops / data packets sent
	Deflections    int64         `json:"deflections"`
	ECNMarks       int64         `json:"ecn_marks"`
	MeanHops       float64       `json:"mean_hops"`
	Retransmits    int64         `json:"retransmits"`
	RTOs           int64         `json:"rtos"`
	FastRetx       int64         `json:"fast_retx"`
	ReorderPkts    int64         `json:"reorder_pkts"`
	ReorderRate    float64       `json:"reorder_rate"` // reordered / delivered
	OverallGoodput units.BitRate `json:"overall_goodput_bps"`

	// Fault-injection accounting. DropsByReason breaks Drops down per class
	// (overflow, deflect-full, ttl, link-down, corrupt, other); MTTR is the
	// mean carrier-loss duration over links that recovered in-run.
	DropsByReason  map[string]int64 `json:"drops_by_reason,omitempty"`
	FaultEvents    int64            `json:"fault_events,omitempty"`
	FIBInstalls    int64            `json:"fib_installs,omitempty"`
	LinkRecoveries int              `json:"link_recoveries,omitempty"`
	MTTR           units.Time       `json:"mttr_ns,omitempty"`
	PostRecoveryTx int64            `json:"post_recovery_tx,omitempty"`

	// Log-bucketed completion-time distributions: the whole shape survives
	// serialization even when the raw series are stripped (Compact).
	// FCTHist merges the per-class histograms; the class-specific shapes
	// ride along so the incast/background split survives too.
	FCTHist           *Histogram `json:"fct_hist,omitempty"`
	QCTHist           *Histogram `json:"qct_hist,omitempty"`
	FCTHistBackground *Histogram `json:"fct_hist_background,omitempty"`
	FCTHistIncast     *Histogram `json:"fct_hist_incast,omitempty"`
	TTRHist           *Histogram `json:"ttr_hist,omitempty"`

	// Raw series kept for CDF figures. Optional: the collector's RawSeries
	// mode drops them for large runs (see RawMode), in which case
	// FCTPercentile/QCTPercentile and CDF figures read the histograms.
	FCTs []units.Time `json:"fcts_ns,omitempty"`
	QCTs []units.Time `json:"qcts_ns,omitempty"`
}

// FCTPercentile returns the p-th percentile (0 < p <= 100) of flow
// completion times: exact from the raw series when kept, otherwise the
// histogram's nearest-rank bucket bound (factor-of-two resolution).
func (s *Summary) FCTPercentile(p float64) units.Time {
	if len(s.FCTs) > 0 {
		return Percentile(s.FCTs, p)
	}
	if s.FCTHist != nil {
		return units.Time(s.FCTHist.Quantile(p / 100))
	}
	return 0
}

// QCTPercentile returns the p-th percentile of query completion times; see
// FCTPercentile for raw-vs-histogram resolution.
func (s *Summary) QCTPercentile(p float64) units.Time {
	if len(s.QCTs) > 0 {
		return Percentile(s.QCTs, p)
	}
	if s.QCTHist != nil {
		return units.Time(s.QCTHist.Quantile(p / 100))
	}
	return 0
}

// FCTCDF returns up to maxPoints of the flow-completion-time CDF: the
// empirical CDF when the raw series is kept, the histogram CDF otherwise.
func (s *Summary) FCTCDF(maxPoints int) []CDFPoint {
	if len(s.FCTs) > 0 {
		return CDF(s.FCTs, maxPoints)
	}
	return s.FCTHist.CDF(maxPoints)
}

// QCTCDF returns up to maxPoints of the query-completion-time CDF; see
// FCTCDF.
func (s *Summary) QCTCDF(maxPoints int) []CDFPoint {
	if len(s.QCTs) > 0 {
		return CDF(s.QCTs, maxPoints)
	}
	return s.QCTHist.CDF(maxPoints)
}

// Summarize digests the collector at simulation end time end. Every scalar
// is read from the streaming aggregates (exact integer sums and counts);
// percentiles and CDFs are exact while the raw series are kept and served
// from the log-bucketed histograms past the RawMode cutoff.
func (c *Collector) Summarize(end units.Time) *Summary {
	s := &Summary{Duration: end, FlowsStarted: c.flowsStarted, QueriesStarted: len(c.Queries)}

	s.FlowsCompleted = c.flowsCompleted
	s.ElephantFlows = c.elephFlows
	s.ElephantGoodput = c.elephGoodput
	if s.ElephantFlows > 0 {
		s.ElephantGoodput /= units.BitRate(s.ElephantFlows)
	}
	if s.FlowsStarted > 0 {
		s.FlowCompletionP = 100 * float64(s.FlowsCompleted) / float64(s.FlowsStarted)
	}
	if c.flowsCompleted > 0 {
		s.MeanFCT = units.Time(c.fctSum / int64(c.flowsCompleted))
	}
	if c.miceCount > 0 {
		s.MeanMiceFCT = units.Time(c.miceSum / c.miceCount)
	}
	s.FCTHist = mergedHist(&c.fctHist[Background], &c.fctHist[Incast])
	s.FCTHistBackground = histCopy(&c.fctHist[Background])
	s.FCTHistIncast = histCopy(&c.fctHist[Incast])
	if !c.dropRaw {
		s.FCTs = append([]units.Time(nil), c.fcts...)
		s.QCTs = append([]units.Time(nil), c.qcts...)
	}
	if len(s.FCTs) > 0 {
		s.P99FCT = Percentile(s.FCTs, 99)
	} else if s.FCTHist != nil {
		s.P99FCT = units.Time(s.FCTHist.Quantile(0.99))
	}

	for i := range c.Queries {
		if c.Queries[i].Completed {
			s.QueriesCompleted++
		}
	}
	if s.QueriesStarted > 0 {
		s.QueryCompletionP = 100 * float64(s.QueriesCompleted) / float64(s.QueriesStarted)
	}
	if s.QueriesCompleted > 0 {
		s.MeanQCT = units.Time(c.qctSum / int64(s.QueriesCompleted))
	}
	s.QCTHist = histCopy(&c.qctHist)
	if len(s.QCTs) > 0 {
		s.P99QCT = Percentile(s.QCTs, 99)
	} else if s.QCTHist != nil {
		s.P99QCT = units.Time(s.QCTHist.Quantile(0.99))
	}

	s.PacketsSent = c.PacketsSent
	s.PacketsRecv = c.PacketsRecv
	s.Drops = c.TotalDrops()
	if c.PacketsSent > 0 {
		s.DropRate = float64(s.Drops) / float64(c.PacketsSent)
	}
	s.Deflections = c.Deflections
	s.ECNMarks = c.ECNMarks
	if c.PacketsRecv > 0 {
		s.MeanHops = float64(c.HopSum) / float64(c.PacketsRecv)
		s.ReorderRate = float64(c.ReorderPkts) / float64(c.PacketsRecv)
	}
	s.Retransmits = c.Retransmits
	s.RTOs = c.RTOs
	s.FastRetx = c.FastRetx
	s.ReorderPkts = c.ReorderPkts
	for r := DropReason(0); r < numDropReasons; r++ {
		if c.Drops[r] > 0 {
			if s.DropsByReason == nil {
				s.DropsByReason = make(map[string]int64, NumDropReasons)
			}
			s.DropsByReason[r.String()] = c.Drops[r]
		}
	}
	s.FaultEvents = c.FaultEvents
	s.FIBInstalls = c.FIBInstalls
	s.LinkRecoveries = c.ttrCount
	s.MTTR = c.MTTR()
	s.TTRHist = histCopy(&c.ttrHist)
	s.PostRecoveryTx = c.PostRecoveryTx
	if end > 0 {
		// Computed in floating point: 8*bytes*1e9 overflows int64 beyond
		// ~1.1 GB of goodput.
		s.OverallGoodput = units.BitRate(8 * float64(c.BytesGoodput) / end.Seconds())
	}
	return s
}

// histCopy snapshots a live histogram, or nil for an empty one.
func histCopy(h *Histogram) *Histogram {
	if h.Count() == 0 {
		return nil
	}
	cp := *h
	return &cp
}

// mergedHist folds histograms into one snapshot, or nil if all are empty.
func mergedHist(hs ...*Histogram) *Histogram {
	out := &Histogram{}
	for _, h := range hs {
		out.Merge(h)
	}
	if out.Count() == 0 {
		return nil
	}
	return out
}

// Encode writes the summary as indented JSON. Together with DecodeSummary it
// is the round-trippable schema behind every results.json artifact.
func (s *Summary) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// DecodeSummary reads a summary previously written by Encode (or any JSON
// object in the same schema).
func DecodeSummary(r io.Reader) (*Summary, error) {
	s := &Summary{}
	if err := json.NewDecoder(r).Decode(s); err != nil {
		return nil, fmt.Errorf("metrics: decoding summary: %w", err)
	}
	return s, nil
}

// Compact returns a copy of the summary without the raw FCT/QCT series,
// suitable for per-run artifact records: the histograms preserve the
// distribution shape at a fraction of the bytes (a paper-scale run carries
// millions of raw samples).
func (s *Summary) Compact() *Summary {
	c := *s
	c.FCTs = nil
	c.QCTs = nil
	return &c
}

// String renders a human-readable block, used by cmd/vertigo-sim.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "duration            %v\n", s.Duration)
	fmt.Fprintf(&b, "flows               %d started, %d completed (%.1f%%)\n",
		s.FlowsStarted, s.FlowsCompleted, s.FlowCompletionP)
	fmt.Fprintf(&b, "FCT                 mean %v  p99 %v  (mice mean %v)\n",
		s.MeanFCT, s.P99FCT, s.MeanMiceFCT)
	fmt.Fprintf(&b, "queries             %d started, %d completed (%.1f%%)\n",
		s.QueriesStarted, s.QueriesCompleted, s.QueryCompletionP)
	fmt.Fprintf(&b, "QCT                 mean %v  p99 %v\n", s.MeanQCT, s.P99QCT)
	fmt.Fprintf(&b, "packets             %d sent, %d delivered, %d dropped (%.4f%%)\n",
		s.PacketsSent, s.PacketsRecv, s.Drops, 100*s.DropRate)
	fmt.Fprintf(&b, "deflections         %d\n", s.Deflections)
	fmt.Fprintf(&b, "mean hops           %.2f\n", s.MeanHops)
	fmt.Fprintf(&b, "retransmits         %d (%d RTO, %d fast)\n", s.Retransmits, s.RTOs, s.FastRetx)
	fmt.Fprintf(&b, "reordered pkts      %d (%.4f%%)\n", s.ReorderPkts, 100*s.ReorderRate)
	fmt.Fprintf(&b, "goodput             %v overall, %v per elephant (%d flows)\n",
		s.OverallGoodput, s.ElephantGoodput, s.ElephantFlows)
	if s.FaultEvents > 0 {
		fmt.Fprintf(&b, "faults              %d events, %d FIB heals, %d link recoveries (MTTR %v), %d post-recovery tx\n",
			s.FaultEvents, s.FIBInstalls, s.LinkRecoveries, s.MTTR, s.PostRecoveryTx)
	}
	return b.String()
}
