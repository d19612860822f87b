package sim

import "vertigo/internal/obs"

// OnPublish sets fn as the engine's publish hook: Run calls it once per 16 Ki
// events — on the watchdog's cadence, so the per-event path stays free of it
// — and once more when it returns. The owner of the simulation folds its
// tallies into the process-global registry from it (see internal/core); the
// engine itself writes nothing there. A later call replaces the hook; nil
// removes it.
func (e *Engine) OnPublish(fn func()) { e.publish = fn }

// SetFlight attaches a crash flight recorder: every fired event, plus the
// watchdog abort, leaves a record in the ring. A nil recorder (the default)
// disables recording.
func (e *Engine) SetFlight(fr *obs.FlightRecorder) { e.flight = fr }

// Flight returns the engine's flight recorder (nil when none is attached),
// so co-located components (fabric drops, fault injection) can add their own
// records to the same ring.
func (e *Engine) Flight() *obs.FlightRecorder { return e.flight }
