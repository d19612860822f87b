package fabric

import "vertigo/internal/obs"

// Process-global fabric metrics. Drops, deflections and faults are rare
// relative to per-packet work, so they bump the registry directly at the
// event site. Queue depth (observed at the two enqueue chokepoints — the
// occupancy *distribution* is what distinguishes buffer regimes, not its
// mean), ECN marks and the lazy wire's replays are per-packet signals: each
// Network tallies them in plain fields and publishObs folds the tallies in
// on its engine's publish cadence, so no enqueue or pop touches a cache line
// that another simulation in the process writes.
var (
	obsDrops = obs.NewCounterVec("vertigo_fabric_drops_total",
		"data packets dropped, by reason", "reason",
		"overflow", "deflect-full", "ttl", "link-down", "corrupt", "other")
	obsDeflections = obs.NewCounter("vertigo_fabric_deflections_total",
		"packets deflected to an alternate port")
	obsECNMarks = obs.NewCounter("vertigo_fabric_ecn_marks_total",
		"packets CE-marked at enqueue")
	obsQueueDepth = obs.NewHistogram("vertigo_fabric_queue_depth_bytes",
		"egress queue occupancy observed after each enqueue")
	obsReplays = obs.NewCounter("vertigo_fabric_replays_total",
		"port touches that replayed at least one pop due since the last touch")
	obsReplayedPops = obs.NewCounter("vertigo_fabric_replayed_pops_total",
		"pops performed by replay, after the instant they were due")
	obsFaultEvents = obs.NewCounter("vertigo_fault_events_total",
		"fault transitions applied to the fabric")
	obsFIBInstalls = obs.NewCounter("vertigo_fault_fib_installs_total",
		"control-plane healing FIB swaps")
	obsTTR = obs.NewHistogram("vertigo_fault_ttr_ns",
		"carrier-loss duration of recovered links")
)

// publishObs folds the network's per-packet tallies into the registry; New
// hooks it to the engine's publish cadence.
func (n *Network) publishObs() {
	n.queueDepth.FlushTo(obsQueueDepth)
	if n.ecnMarks > 0 {
		obsECNMarks.Add(n.ecnMarks)
		n.ecnMarks = 0
	}
	if d := n.replays - n.pubReplays; d > 0 {
		obsReplays.Add(d)
		obsReplayedPops.Add(n.replayedPops - n.pubReplayedPops)
		n.pubReplays, n.pubReplayedPops = n.replays, n.replayedPops
	}
}

// noteDeflect accounts one deflection in both the per-run collector and the
// process-global registry.
func (n *Network) noteDeflect() {
	n.Met.Deflections++
	obsDeflections.Inc()
}
