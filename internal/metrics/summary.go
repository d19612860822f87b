package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"vertigo/internal/units"
)

// Thresholds used by the paper's flow-size breakdowns (§2).
const (
	MiceMaxBytes     = 100 * 1000       // "mice" flows: < 100 KB
	ElephantMinBytes = 10 * 1000 * 1000 // "elephant" flows: > 10 MB
)

// Summary is the digest of one simulation run: every scalar the paper's
// tables and figures report, and the FCT, QCT and TTR distributions they
// are read from. The JSON tags are the one schema shared by results.json
// artifacts and any downstream tooling; time fields are nanoseconds, rates
// are bits per second, and a histogram is its run of bucket counts by grid
// index (see Histogram.MarshalJSON).
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

	// Completion-time distributions on the log-linear grid (see Histogram),
	// both flow classes in FCTHist: the percentiles read them, and the
	// counts and means above are their counts and sums.
	FCTHist *Histogram `json:"fct_hist,omitempty"`
	QCTHist *Histogram `json:"qct_hist,omitempty"`
	TTRHist *Histogram `json:"ttr_hist,omitempty"`
}

// FCTPercentile returns the p-th percentile (0 < p <= 100) of flow
// completion times: the FCT histogram's nearest-rank bucket bound, within
// a factor 65/64 above the exact value.
func (s *Summary) FCTPercentile(p float64) units.Time {
	return units.Time(s.FCTHist.Quantile(p / 100))
}

// QCTPercentile returns the p-th percentile of query completion times, at
// FCTPercentile's resolution.
func (s *Summary) QCTPercentile(p float64) units.Time {
	return units.Time(s.QCTHist.Quantile(p / 100))
}

// Summarize digests the collector at simulation end time end. Every count
// and mean is read from the streaming aggregates (exact integer sums and
// counts, the histograms' own included) and every percentile from the
// histograms. The Summary shares no state with the collector, so later
// observations leave it as it is.
func (c *Collector) Summarize(end units.Time) *Summary {
	s := &Summary{Duration: end, FlowsStarted: c.flowsStarted, QueriesStarted: len(c.Queries)}

	s.FlowsCompleted = c.FlowsCompleted()
	s.ElephantFlows = c.elephFlows
	s.ElephantGoodput = c.elephGoodput
	if s.ElephantFlows > 0 {
		s.ElephantGoodput /= units.BitRate(s.ElephantFlows)
	}
	if s.FlowsStarted > 0 {
		s.FlowCompletionP = 100 * float64(s.FlowsCompleted) / float64(s.FlowsStarted)
	}
	s.MeanFCT = histMean(&c.fctHist)
	if c.miceCount > 0 {
		s.MeanMiceFCT = units.Time(c.miceSum / c.miceCount)
	}
	s.FCTHist = histCopy(&c.fctHist)
	s.P99FCT = s.FCTPercentile(99)

	s.QueriesCompleted = int(c.qctHist.Count())
	if s.QueriesStarted > 0 {
		s.QueryCompletionP = 100 * float64(s.QueriesCompleted) / float64(s.QueriesStarted)
	}
	s.MeanQCT = histMean(&c.qctHist)
	s.QCTHist = histCopy(&c.qctHist)
	s.P99QCT = s.QCTPercentile(99)

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
	s.LinkRecoveries = c.RecoveryCount()
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

// histCopy snapshots a live histogram, sharing no counts with it, or nil
// for an empty one.
func histCopy(h *Histogram) *Histogram {
	if h.Count() == 0 {
		return nil
	}
	cp := *h
	cp.counts = slices.Clone(h.counts)
	return &cp
}

// histMean returns the integer mean of h's observations, or 0 for an empty
// histogram.
func histMean(h *Histogram) units.Time {
	if h.Count() == 0 {
		return 0
	}
	return units.Time(h.Sum() / int64(h.Count()))
}

// Encode writes the summary as one line of compact JSON. Together with
// DecodeSummary it is the round-trippable schema behind every results.json
// artifact.
func (s *Summary) Encode(w io.Writer) error {
	return json.NewEncoder(w).Encode(s)
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

// Compact returns a plain copy of the summary, which shares its histograms
// with s. A Summary holds no per-flow series to strip; Compact stays for
// callers written when it did.
func (s *Summary) Compact() *Summary {
	c := *s
	return &c
}
