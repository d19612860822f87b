package core

import (
	"vertigo/internal/metrics"
	"vertigo/internal/obs"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
)

// The simulation's metric families, declared here and nowhere else. A run
// keeps one set of counters — the engine's and the packet pool's stats, the
// metrics.Collector, the fabric's replay counters, the fault injector's — and
// each world's publish folds their growth into these families, so a scrape
// sees every run in the process mid-run while no layer counts a fact twice.
var (
	regEvents    = obs.NewCounter("vertigo_engine_events_total", "simulation events fired")
	regScheduled = obs.NewCounter("vertigo_engine_scheduled_total", "events scheduled via At/After/Sched")
	regTombPops  = obs.NewCounter("vertigo_engine_tombstone_pops_total", "lazily-cancelled events reaped at pop, migration or compaction")
	regSweeps    = obs.NewCounter("vertigo_engine_heap_sweeps_total", "overflow-heap compactions triggered by Cancel")
	regPending   = obs.NewGauge("vertigo_engine_pending", "live pending events summed across running engines")

	regPoolGets  = obs.NewCounter("vertigo_packet_pool_gets_total", "packets handed out by pools")
	regPoolHits  = obs.NewCounter("vertigo_packet_pool_hits_total", "handed-out packets that were recycled frames")
	regPoolPuts  = obs.NewCounter("vertigo_packet_pool_puts_total", "packets returned to pools")
	regPoolSlabs = obs.NewCounter("vertigo_packet_pool_slabs_total", "backing slabs allocated by pools")

	regDrops = obs.NewCounterVec("vertigo_fabric_drops_total",
		"data packets dropped, by reason", "reason",
		"overflow", "deflect-full", "ttl", "link-down", "corrupt", "other")
	regDeflections = obs.NewCounter("vertigo_fabric_deflections_total",
		"packets deflected to an alternate port")
	regECNMarks = obs.NewCounter("vertigo_fabric_ecn_marks_total",
		"packets CE-marked at enqueue")
	regQueueDepth = obs.NewHistogram("vertigo_fabric_queue_depth_bytes",
		"egress queue occupancy observed after each enqueue")
	regReplays = obs.NewCounter("vertigo_fabric_replays_total",
		"port touches that replayed at least one pop due since the last touch")
	regReplayedPops = obs.NewCounter("vertigo_fabric_replayed_pops_total",
		"pops performed by replay, after the instant they were due")

	regFaultEvents = obs.NewCounter("vertigo_fault_events_total",
		"fault transitions applied to the fabric")
	regFIBInstalls = obs.NewCounter("vertigo_fault_fib_installs_total",
		"control-plane healing FIB swaps")
	regTTR = obs.NewHistogram("vertigo_fault_ttr_ns",
		"carrier-loss duration of recovered links")
	regInjected = obs.NewCounter("vertigo_faults_injected_total", "schedule events applied by injectors")
	regHeals    = obs.NewCounter("vertigo_faults_heals_total", "control-plane heal recomputations installed")

	regFlowsStarted     = obs.NewCounter("vertigo_workload_flows_started_total", "flows registered by collectors")
	regFlowsCompleted   = obs.NewCounter("vertigo_workload_flows_completed_total", "flows completed")
	regQueriesStarted   = obs.NewCounter("vertigo_workload_queries_started_total", "incast queries started")
	regQueriesCompleted = obs.NewCounter("vertigo_workload_queries_completed_total", "incast queries fully answered")
	regFCT              = obs.NewHistogram("vertigo_workload_fct_ns", "flow completion times")
	regQCT              = obs.NewHistogram("vertigo_workload_qct_ns", "query completion times")
)

// published holds a world's counters as its last publish left them.
type published struct {
	eng      sim.EngineStats
	pending  int
	pool     packet.PoolStats
	replays  uint64
	pops     uint64
	drops    [metrics.NumDropReasons]uint64
	deflects uint64
	marks    uint64
	faults   uint64
	installs uint64
	injected uint64
	heals    uint64
	flows    uint64
	done     uint64
	queries  uint64
	answered uint64
	fct      metrics.Log2Histogram
	qct      metrics.Log2Histogram
	ttr      metrics.Log2Histogram
	depth    metrics.Log2Histogram
}

// add puts the growth of a counter whose last published value is *last
// into c.
func add(c *obs.Counter, now uint64, last *uint64) {
	if now > *last {
		c.Add(now - *last)
		*last = now
	}
}

// publish adds to the registry what the world's counters grew by since its
// last publish. It is the engine's publish hook — every 16 Ki events and at
// each Run exit — and finish calls it once more.
func (w *world) publish() {
	p := &w.pub
	es := w.eng.Stats()
	add(regEvents, es.Events, &p.eng.Events)
	add(regScheduled, es.Scheduled, &p.eng.Scheduled)
	add(regTombPops, es.TombstonedPops, &p.eng.TombstonedPops)
	add(regSweeps, es.HeapSweeps, &p.eng.HeapSweeps)
	if n := w.eng.Pending(); n != p.pending {
		regPending.Add(int64(n - p.pending))
		p.pending = n
	}

	ps := w.net.Pool().Stats()
	add(regPoolGets, ps.Gets, &p.pool.Gets)
	add(regPoolHits, ps.Hits, &p.pool.Hits)
	add(regPoolPuts, ps.Puts, &p.pool.Puts)
	add(regPoolSlabs, ps.Slabs, &p.pool.Slabs)

	ts := w.net.TrainStats()
	add(regReplays, ts.Trains, &p.replays)
	add(regReplayedPops, ts.Segments, &p.pops)

	m := w.met
	for i, n := range m.Drops {
		add(regDrops.At(i), uint64(n), &p.drops[i])
	}
	add(regDeflections, uint64(m.Deflections), &p.deflects)
	add(regECNMarks, uint64(m.ECNMarks), &p.marks)
	m.QueueDepth.PublishTo(regQueueDepth, &p.depth)
	add(regFaultEvents, uint64(m.FaultEvents), &p.faults)
	add(regFIBInstalls, uint64(m.FIBInstalls), &p.installs)
	m.TTRHist().PublishTo(regTTR, &p.ttr)
	if w.inj != nil {
		add(regInjected, w.inj.Injected, &p.injected)
		add(regHeals, w.inj.Heals, &p.heals)
	}

	add(regFlowsStarted, uint64(m.FlowsStarted()), &p.flows)
	add(regFlowsCompleted, uint64(m.FlowsCompleted()), &p.done)
	add(regQueriesStarted, uint64(len(m.Queries)), &p.queries)
	add(regQueriesCompleted, m.QCTHist().Count(), &p.answered)
	m.FCTHist().PublishTo(regFCT, &p.fct)
	m.QCTHist().PublishTo(regQCT, &p.qct)
}
