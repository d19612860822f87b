package core

import (
	"testing"

	"vertigo/internal/fabric"
	"vertigo/internal/metrics"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// TestShapeUnderHighLoad pins the paper's headline orderings at high load
// (§2, §4.2): random deflection breaks down while selective deflection keeps
// completing queries, and Vertigo beats the ECMP baseline on query
// completion. Absolute numbers differ from the paper (smaller fabric,
// shorter deadline); the orderings are what this test protects.
func TestShapeUnderHighLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("shape regression is slow")
	}
	run := func(policy fabric.Policy) *Result {
		cfg := smallConfig(policy, transport.DCTCP)
		cfg.BGLoad = 0.15
		cfg.IncastScale = 10
		cfg.IncastFlowSize = 40 * 1000
		cfg.SetIncastLoad(0.65) // 80% aggregate
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-8s: q %d/%d (%.0f%%) meanQCT %v drops %d defl %d",
			policy, res.Summary.QueriesCompleted, res.Summary.QueriesStarted,
			res.Summary.QueryCompletionP, res.Summary.MeanQCT,
			res.Summary.Drops, res.Summary.Deflections)
		return res
	}
	ecmp := run(fabric.ECMP)
	dibs := run(fabric.DIBS)
	vertigo := run(fabric.Vertigo)

	if v, d := vertigo.Summary.QueryCompletionP, dibs.Summary.QueryCompletionP; v <= d {
		t.Errorf("vertigo query completion %.1f%% not above DIBS %.1f%% at high load", v, d)
	}
	if v, e := vertigo.Summary.QueryCompletionP, ecmp.Summary.QueryCompletionP; v <= e {
		t.Errorf("vertigo query completion %.1f%% not above ECMP %.1f%% at high load", v, e)
	}
	// Mean QCT over completed queries suffers survivor bias (ECMP's mean
	// covers only the easy queries it finished), so compare the median over
	// all *started* queries with incomplete ones treated as worst-case.
	if v, e := censoredMedianQCT(vertigo), censoredMedianQCT(ecmp); v >= e {
		t.Errorf("vertigo censored-median QCT %v not below ECMP %v at high load", v, e)
	}
}

// censoredMedianQCT returns the median QCT over started queries, counting
// incomplete queries as infinitely slow. If fewer than half completed, the
// median is the full simulation duration (a pessimistic stand-in).
func censoredMedianQCT(r *Result) int64 {
	var qcts []units.Time
	for _, q := range r.Collector.Queries {
		if q.Completed {
			qcts = append(qcts, q.QCT())
		}
	}
	rank := r.Summary.QueriesStarted / 2
	if rank >= len(qcts) {
		return int64(r.Summary.Duration)
	}
	// The median of the censored distribution falls at rank `rank` within
	// the sorted completed QCTs.
	return int64(metrics.Percentile(qcts, 100*float64(rank+1)/float64(len(qcts))))
}
