package telemetry_test

import (
	"strings"
	"testing"

	"vertigo/internal/core"
	"vertigo/internal/fabric"
	"vertigo/internal/sim"
	"vertigo/internal/telemetry"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

func samplerRun(t *testing.T, tick units.Time) *core.Result {
	t.Helper()
	cfg := core.DefaultConfig(fabric.Vertigo, transport.DCTCP)
	cfg.LeafSpineCfg = topo.LeafSpineConfig{
		Spines: 2, Leaves: 4, HostsPerLeaf: 4,
		HostRate: 10 * units.Gbps, FabricRate: 40 * units.Gbps,
		LinkDelay: 500 * units.Nanosecond,
	}
	cfg.SimTime = 10 * units.Millisecond
	cfg.BGLoad = 0.3
	cfg.IncastScale = 8
	cfg.IncastFlowSize = 40000
	cfg.SetIncastLoad(0.4)
	cfg.SampleTick = tick
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSamplerRecordsTimeSeries(t *testing.T) {
	tick := 50 * units.Microsecond
	res := samplerRun(t, tick)
	s := res.Sampler
	if s == nil {
		t.Fatal("SampleTick set but Result.Sampler is nil")
	}
	samples := s.Samples()
	if len(samples) == 0 {
		t.Fatal("busy 16-host run produced no samples")
	}
	var lastT units.Time
	seenNIC, seenSwitch, queued := false, false, false
	for _, sm := range samples {
		if sm.Time%tick != 0 {
			t.Fatalf("sample at %v not on the %v tick grid", sm.Time, tick)
		}
		if sm.Time < lastT {
			t.Fatal("samples not in time order")
		}
		lastT = sm.Time
		if sm.Util < 0 || sm.Util > 1.5 {
			t.Fatalf("implausible utilization %.3f at %v", sm.Util, sm.Time)
		}
		if sm.Queue < 0 {
			t.Fatalf("negative occupancy %v", sm.Queue)
		}
		queued = queued || sm.Queue > 0
		if sm.Port.Switch < 0 {
			seenNIC = true
		} else {
			seenSwitch = true
		}
	}
	if !seenNIC || !seenSwitch {
		t.Errorf("series covers NICs=%v switches=%v, want both", seenNIC, seenSwitch)
	}
	if !queued {
		t.Error("no sample shows a queue despite traffic")
	}
	if s.Truncated() != 0 {
		t.Errorf("default cap truncated %d samples in a tiny run", s.Truncated())
	}
}

func TestSamplerDoesNotDisturbMetrics(t *testing.T) {
	// Observability must be read-only: the same scenario with and without
	// the sampler attached must produce identical summaries.
	with := samplerRun(t, 50*units.Microsecond).Summary
	without := samplerRun(t, 0).Summary
	if with.PacketsSent != without.PacketsSent || with.MeanFCT != without.MeanFCT ||
		with.Drops != without.Drops || with.Deflections != without.Deflections {
		t.Errorf("sampler perturbed the simulation:\nwith    %+v\nwithout %+v", with, without)
	}
}

func TestSamplerCSV(t *testing.T) {
	res := samplerRun(t, 100*units.Microsecond)
	var sb strings.Builder
	if err := res.Sampler.WriteCSV(&sb, "run-a", true); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != strings.Join(telemetry.SamplesCSVHeader(), ",") {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) != len(res.Sampler.Samples())+1 {
		t.Fatalf("%d lines for %d samples", len(lines), len(res.Sampler.Samples()))
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "run-a,") {
			t.Fatalf("row missing run label: %q", l)
		}
	}
}

func TestSamplerTruncationCap(t *testing.T) {
	eng := sim.NewEngine(1)
	s := telemetry.NewSampler(eng, telemetry.SamplerConfig{
		Tick: units.Microsecond, MaxSamples: 3,
	})
	s.Start(10 * units.Microsecond)
	// Keep one port visibly busy across every tick.
	for i := 0; i < 10; i++ {
		at := units.Time(i) * units.Microsecond
		eng.At(at, func() { s.Enqueue(0, 0, nil, 1000) })
	}
	eng.Run(10 * units.Microsecond)
	if got := len(s.Samples()); got != 3 {
		t.Fatalf("%d samples retained, want 3 (capped)", got)
	}
	if s.Truncated() != 7 {
		t.Fatalf("truncated %d, want 7", s.Truncated())
	}
}
