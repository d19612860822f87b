package core

import (
	"runtime"
	"testing"
	"unsafe"

	"vertigo/internal/fabric"
	"vertigo/internal/telemetry"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// TestObservedResultDoesNotPinItsWorld: a Result keeps what its probes
// recorded, not the world they watched. A few retained observed runs hold
// what as many unobserved ones hold, plus their sample series and a little
// for the monitor's ports and episodes. While the sampler kept the engine
// and the fabric's settler, and the monitor the engine, each retained
// observed run held its whole simulated world: about 3.2 MiB a run here,
// against 74 KiB unobserved and 208 KiB of series.
func TestObservedResultDoesNotPinItsWorld(t *testing.T) {
	const runs = 4
	held := func(observed bool) (perRun, series int64) {
		cfg := smallConfig(fabric.Vertigo, transport.DCTCP)
		cfg.SimTime = 10 * units.Millisecond
		if observed {
			cfg.Telemetry = true
			cfg.SampleTick = 100 * units.Microsecond
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		kept := make([]*Result, runs)
		for i := range kept {
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			kept[i] = r
			if r.Sampler != nil {
				series += int64(cap(r.Sampler.Samples())) * int64(unsafe.Sizeof(telemetry.Sample{}))
			}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(kept)
		return (int64(m1.HeapAlloc) - int64(m0.HeapAlloc)) / runs, series / runs
	}
	bare, _ := held(false)
	watched, series := held(true)
	t.Logf("a retained run holds %d KiB unobserved, %d KiB observed (%d KiB of series)", bare>>10, watched>>10, series>>10)
	if series == 0 {
		t.Fatal("the observed runs sampled nothing")
	}
	if slack := int64(256 << 10); watched > bare+series+slack {
		t.Errorf("a retained observed run holds %d KiB, want at most %d KiB unobserved + %d KiB of series + %d KiB",
			watched>>10, bare>>10, series>>10, slack>>10)
	}
}
