package exp

import (
	"bytes"
	"testing"

	"vertigo/internal/core"
	"vertigo/internal/fabric"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// These tests pin what the lazy wire (internal/fabric) promises observers:
// looking at a run — a sampler settling every port on its tick, a monitor and
// a tracer called back on every enqueue and transmission — changes nothing in
// it, with or without faults in play. The observed and the unobserved run are
// one run. (A sharded run's observers are core's TestShardedDeterministic's.)

// TestObservationIdentitySweeps: fig1 (the standard burst suite), flapstorm
// (carrier flaps mid-backlog) and corrupt (per-link bit errors: frames that
// leave the wire without arriving) render byte-identical tables and leave
// identical Summaries unobserved and under a sampler and monitor at three
// ticks, one of them with a tracer too.
func TestObservationIdentitySweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, id := range []string{"fig1", "flapstorm", "corrupt"} {
		want := reference(t, id, observation{})
		if len(want.sums) == 0 {
			t.Fatalf("%s: no run reported a summary", id)
		}
		for _, ob := range []observation{
			{tick: 50 * units.Microsecond, monitor: true},
			observed,
			{tick: units.Millisecond, monitor: true},
		} {
			got := reference(t, id, ob)
			if !bytes.Equal(got.tables, want.tables) {
				t.Errorf("%s: tables differ under %v:\n--- unobserved ---\n%s\n--- observed ---\n%s", id, ob, want.tables, got.tables)
			}
			for label, d := range want.sums {
				if got.sums[label] != d {
					t.Errorf("%s: run %s has another Summary under %v", id, label, ob)
				}
			}
		}
	}
}

// TestObservationIdentityArtifacts: the time series themselves are a
// property of the run — samples.csv and trace.jsonl come out byte-identical
// whether the sweep ran on one worker or eight (the recorder reassembles the
// shared files by label, not by completion order). The pair is
// TestParallelSweepDeterminism's; the reference fails on empty artifacts.
func TestObservationIdentityArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	seq := reference(t, "fig1", observed)
	par := parallelObserved(t)
	if !bytes.Equal(seq.rec.SamplesCSV(), par.rec.SamplesCSV()) {
		t.Errorf("samples.csv differs between -j1 and -j8")
	}
	if !bytes.Equal(seq.rec.TraceJSONL(), par.rec.TraceJSONL()) {
		t.Errorf("trace.jsonl differs between -j1 and -j8")
	}
}

// TestObservationIdentityIncast is the benchmark's leafspine_incast
// configuration at 100 ms — the paper's headline mix — with and without the
// sampler and monitor that make it leafspine_observed, and a tracer: one
// Summary, at two seeds.
func TestObservationIdentityIncast(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, seed := range []int64{1, 7} {
		cfg := withLoads(baseConfig(Tiny, fabric.Vertigo, transport.DCTCP), 0.25, 0.85)
		cfg.Seed = seed
		cfg.SimTime = 100 * units.Millisecond
		bare, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		cfg.Telemetry = true
		cfg.SampleTick = 200 * units.Microsecond
		cfg.PacketTrace, cfg.PacketTraceFlow = &trace, 1
		watched, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := summaryDigest(t, bare.Summary), summaryDigest(t, watched.Summary); a != b {
			t.Errorf("seed %d: digest %.12s unobserved, %.12s observed", seed, a, b)
		}
		if watched.Telemetry.Delivered == 0 || len(watched.Sampler.Samples()) == 0 || trace.Len() == 0 {
			t.Errorf("seed %d: the probes saw nothing", seed)
		}
	}
}
