package sim

import "vertigo/internal/obs"

// Process-global engine metrics, aggregated across every engine alive in the
// process (a parallel sweep's -j workers all publish here). Counters receive
// deltas on the watchdog cadence — one publish per 16 Ki events — so the
// per-event hot path stays free of atomic traffic; the pending gauge is the
// sum of live pending events across engines and is retired by FinishObs when
// a run completes.
var (
	obsEvents    = obs.NewCounter("vertigo_engine_events_total", "simulation events fired")
	obsScheduled = obs.NewCounter("vertigo_engine_scheduled_total", "events scheduled via At/After/Sched")
	obsTombPops  = obs.NewCounter("vertigo_engine_tombstone_pops_total", "lazily-cancelled events reaped at pop, migration or compaction")
	obsCompacts  = obs.NewCounter("vertigo_engine_heap_sweeps_total", "overflow-heap compactions triggered by Cancel")
	obsPending   = obs.NewGauge("vertigo_engine_pending", "live pending events summed across running engines")
)

// publishObs pushes the engine's counter growth since the last publish into
// the process-global registry. Called on the watchdog cadence inside Run and
// from FinishObs; never on the per-event path.
func (e *Engine) publishObs() {
	if d := e.fired - e.pubFired; d > 0 {
		obsEvents.Add(d)
		e.pubFired = e.fired
	}
	if d := e.seq - e.pubSeq; d > 0 {
		obsScheduled.Add(d)
		e.pubSeq = e.seq
	}
	if d := e.tombPops - e.pubTombPops; d > 0 {
		obsTombPops.Add(d)
		e.pubTombPops = e.tombPops
	}
	if d := e.compacts - e.pubCompacts; d > 0 {
		obsCompacts.Add(d)
		e.pubCompacts = e.compacts
	}
	if d := e.live - e.pubLive; d != 0 {
		obsPending.Add(int64(d))
		e.pubLive = e.live
	}
	for _, fn := range e.onPublish {
		fn()
	}
}

// OnPublish registers fn to run whenever the engine publishes to the registry:
// once per 16 Ki events inside Run, when Run returns, and from FinishObs. The
// components driven by this engine fold their own hot-path tallies — kept in
// plain fields, like the engine's — into the process-global registry from it,
// so they too stay free of per-packet atomic traffic.
func (e *Engine) OnPublish(fn func()) { e.onPublish = append(e.onPublish, fn) }

// FinishObs publishes any unpublished counter growth and retires the
// engine's contribution to the pending gauge. Run callers (core.Run, tests
// that scrape) invoke it once the engine is done; afterwards the engine can
// still run and publish again.
func (e *Engine) FinishObs() {
	e.publishObs()
	if e.pubLive != 0 {
		obsPending.Add(int64(-e.pubLive))
		e.pubLive = 0
	}
}

// SetFlight attaches a crash flight recorder: every fired event, plus the
// watchdog abort, leaves a record in the ring. A nil recorder (the default)
// disables recording.
func (e *Engine) SetFlight(fr *obs.FlightRecorder) { e.flight = fr }

// Flight returns the engine's flight recorder (nil when none is attached),
// so co-located components (fabric drops, fault injection) can add their own
// records to the same ring.
func (e *Engine) Flight() *obs.FlightRecorder { return e.flight }
