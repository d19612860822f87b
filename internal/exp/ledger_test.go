package exp

import (
	"strings"
	"testing"

	"vertigo/internal/core"
	"vertigo/internal/fabric"
	"vertigo/internal/faults"
	"vertigo/internal/metrics"
	"vertigo/internal/obs"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// registryValues flattens the process-global registry into one number per
// series: counters and gauges under their name (with {label} for vec
// families), histograms as name_count and name_sum.
func registryValues() map[string]float64 {
	vals := map[string]float64{}
	for _, f := range obs.Default.Snapshot() {
		for _, s := range f.Series {
			key := f.Name
			if s.Label != "" {
				key += "{" + s.Label + "}"
			}
			if s.Hist != nil {
				vals[key+"_count"] = float64(s.Hist.Count)
				vals[key+"_sum"] = float64(s.Hist.Sum)
				continue
			}
			vals[key] = s.Value
		}
	}
	return vals
}

// TestRegistryMatchesRunLedger: the registry's run-level families are the
// run's own counters, published — nothing counted on the side. Over a Tiny
// scenario with a flap schedule and healing, every simulation family rises
// by exactly what the run reports in its Summary, Result.Engine,
// Result.Pool, Result.Trains and collector — a started flow or query once —
// the injector's two counters by what the schedule fired, and the pending
// gauge returns to where it was. A family the table does not name fails the test, so a new
// one cannot go unchecked.
func TestRegistryMatchesRunLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	cfg := withLoads(baseConfig(Tiny, fabric.Vertigo, transport.DCTCP), 0.3, 0.5)
	T := cfg.SimTime
	cfg.Faults = (&faults.Schedule{}).Add(faults.Flap(Tiny.Hosts(), T/4, T/16, T/8, 3)...)
	cfg.HealDelay = 50 * units.Microsecond

	before := registryValues()
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := registryValues()

	s, e, p := res.Summary, res.Engine, res.Pool
	if s.FCTHist == nil || s.QCTHist == nil || s.TTRHist == nil || s.Deflections == 0 || s.FIBInstalls == 0 {
		t.Fatalf("the run lacks completions, recoveries, deflections or heals; test would prove nothing")
	}
	var injected, heals float64
	for _, ev := range cfg.Faults.Events {
		if ev.At <= T {
			injected++
		}
		if ev.At+cfg.HealDelay <= T {
			heals++
		}
	}
	want := map[string]float64{
		"vertigo_engine_events_total":         float64(e.Events),
		"vertigo_engine_scheduled_total":      float64(e.Scheduled),
		"vertigo_engine_tombstone_pops_total": float64(e.TombstonedPops),
		"vertigo_engine_heap_sweeps_total":    float64(e.HeapSweeps),
		"vertigo_engine_pending":              0,

		"vertigo_packet_pool_gets_total":  float64(p.Gets),
		"vertigo_packet_pool_hits_total":  float64(p.Hits),
		"vertigo_packet_pool_puts_total":  float64(p.Puts),
		"vertigo_packet_pool_slabs_total": float64(p.Slabs),

		"vertigo_fabric_deflections_total":       float64(s.Deflections),
		"vertigo_fabric_ecn_marks_total":         float64(s.ECNMarks),
		"vertigo_fabric_queue_depth_bytes_count": float64(res.Collector.QueueDepth.Count()),
		"vertigo_fabric_queue_depth_bytes_sum":   float64(res.Collector.QueueDepth.Sum()),
		"vertigo_fabric_replays_total":           float64(res.Trains.Trains),
		"vertigo_fabric_replayed_pops_total":     float64(res.Trains.Segments),

		"vertigo_fault_events_total":       float64(s.FaultEvents),
		"vertigo_fault_fib_installs_total": float64(s.FIBInstalls),
		"vertigo_fault_ttr_ns_count":       float64(s.TTRHist.Count()),
		"vertigo_fault_ttr_ns_sum":         float64(s.TTRHist.Sum()),
		"vertigo_faults_injected_total":    injected,
		"vertigo_faults_heals_total":       heals,

		"vertigo_workload_flows_started_total":     float64(s.FlowsStarted),
		"vertigo_workload_flows_completed_total":   float64(s.FlowsCompleted),
		"vertigo_workload_queries_started_total":   float64(s.QueriesStarted),
		"vertigo_workload_queries_completed_total": float64(s.QueriesCompleted),
		"vertigo_workload_fct_ns_count":            float64(s.FCTHist.Count()),
		"vertigo_workload_fct_ns_sum":              float64(s.FCTHist.Sum()),
		"vertigo_workload_qct_ns_count":            float64(s.QCTHist.Count()),
		"vertigo_workload_qct_ns_sum":              float64(s.QCTHist.Sum()),
	}
	for r := metrics.DropReason(0); int(r) < metrics.NumDropReasons; r++ {
		want["vertigo_fabric_drops_total{"+r.String()+"}"] = float64(s.DropsByReason[r.String()])
	}

	for key, v := range after {
		// The experiment driver's and the daemon's own counters are
		// process-level, not a run's.
		if strings.HasPrefix(key, "vertigo_exp_") || strings.HasPrefix(key, "vertigo_serve_") {
			continue
		}
		w, ok := want[key]
		if !ok {
			t.Errorf("%s is not checked against the run's own counters", key)
			continue
		}
		if rise := v - before[key]; rise != w {
			t.Errorf("%s rose by %v, the run reports %v", key, rise, w)
		}
	}
	for key := range want {
		if _, ok := after[key]; !ok {
			t.Errorf("%s is missing from the registry", key)
		}
	}
}
