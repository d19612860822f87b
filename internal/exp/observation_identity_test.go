package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"vertigo/internal/core"
	"vertigo/internal/fabric"
	"vertigo/internal/metrics"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// These tests pin what the lazy wire (internal/fabric) promises observers:
// looking at a run — a sampler settling every port on its tick, a monitor and
// a tracer called back on every enqueue and transmission — changes nothing in
// it, with or without faults in play. The observed and the unobserved run are
// one run.

// observation is one way of watching a sweep.
type observation struct {
	tick    units.Time // sampler tick, 0 = no sampler
	monitor bool       // attach the telemetry monitor
	trace   uint64     // flow to trace, 0 = no tracer
}

func (ob observation) String() string {
	return fmt.Sprintf("tick=%v monitor=%t trace=%d", ob.tick, ob.monitor, ob.trace)
}

// summaryDigest hashes everything a run's Summary says.
func summaryDigest(t *testing.T, s *metrics.Summary) string {
	t.Helper()
	h := sha256.New()
	if err := s.Compact().Encode(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// renderObserved renders an experiment's tables at Tiny scale under ob and
// returns them with every run's Summary digest by label and the recorder.
func renderObserved(t *testing.T, id string, ob observation, conc int) ([]byte, map[string]string, *Recorder) {
	t.Helper()
	opt := workers(conc)
	opt.Spec.SampleTick = Duration(ob.tick)
	opt.Spec.TraceFlow = ob.trace
	rec := NewRecorder()
	sums := map[string]string{}
	opt.OnRun = func(ri RunInfo) {
		rec.Record(ri)
		if ri.Summary != nil {
			sums[ri.Label] = summaryDigest(t, ri.Summary)
		}
	}
	if ob.monitor {
		// No sweep option attaches the monitor; the run hook does.
		defer func(old func(*Options, string, core.Config) (*metrics.Summary, *metrics.Collector, error)) {
			runFn = old
		}(runFn)
		runFn = func(o *Options, label string, cfg core.Config) (*metrics.Summary, *metrics.Collector, error) {
			cfg.Telemetry = true
			return o.run(label, cfg)
		}
	}
	return renderAll(t, id, opt), sums, rec
}

// TestObservationIdentitySweeps: fig1 (the standard burst suite), flapstorm
// (carrier flaps mid-backlog) and corrupt (per-link bit errors: frames that
// leave the wire without arriving) render byte-identical tables and
// leave identical Summaries unobserved, under a sampler and monitor at three
// ticks, and under a tracer.
func TestObservationIdentitySweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, id := range []string{"fig1", "flapstorm", "corrupt"} {
		want, wantSums, _ := renderObserved(t, id, observation{}, 8)
		if len(wantSums) == 0 {
			t.Fatalf("%s: no run reported a summary", id)
		}
		for _, ob := range []observation{
			{tick: 50 * units.Microsecond, monitor: true},
			{tick: 200 * units.Microsecond, monitor: true},
			{tick: units.Millisecond, monitor: true},
			{trace: 1},
		} {
			got, sums, _ := renderObserved(t, id, ob, 8)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: tables differ under %v:\n--- unobserved ---\n%s\n--- observed ---\n%s", id, ob, want, got)
			}
			for label, d := range wantSums {
				if sums[label] != d {
					t.Errorf("%s: run %s has another Summary under %v", id, label, ob)
				}
			}
		}
	}
}

// TestObservationIdentityArtifacts: the time series themselves are a
// property of the run — samples.csv and trace.jsonl come out byte-identical
// whether the sweep ran on one worker or eight (the recorder reassembles the
// shared files by label, not by completion order).
func TestObservationIdentityArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	ob := observation{tick: 200 * units.Microsecond, trace: 1}
	_, _, rec1 := renderObserved(t, "fig1", ob, 1)
	_, _, rec8 := renderObserved(t, "fig1", ob, 8)
	if len(rec1.SamplesCSV()) == 0 || len(rec1.TraceJSONL()) == 0 {
		t.Fatalf("empty artifacts: samples=%d trace=%d bytes", len(rec1.SamplesCSV()), len(rec1.TraceJSONL()))
	}
	if !bytes.Equal(rec1.SamplesCSV(), rec8.SamplesCSV()) {
		t.Errorf("samples.csv differs between -j1 and -j8")
	}
	if !bytes.Equal(rec1.TraceJSONL(), rec8.TraceJSONL()) {
		t.Errorf("trace.jsonl differs between -j1 and -j8")
	}
}

// TestObservationIdentityIncast is the benchmark's leafspine_incast
// configuration at 100 ms — the paper's headline mix — with and without the
// sampler and monitor that make it leafspine_observed, and a tracer: one
// Summary, serial and — every probe shards — split over two domains.
func TestObservationIdentityIncast(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, row := range []struct {
		shards int
		seed   int64
	}{{0, 1}, {0, 7}, {2, 1}} {
		cfg := withLoads(baseConfig(Tiny, fabric.Vertigo, transport.DCTCP), 0.25, 0.85)
		cfg.Seed = row.seed
		cfg.SimTime = 100 * units.Millisecond
		cfg.Shards = row.shards
		if row.shards > 1 {
			tp, err := topo.NewLeafSpine(cfg.LeafSpineCfg)
			if err != nil {
				t.Fatal(err)
			}
			if part, err := topo.NewPartition(tp, row.shards); err != nil || part.N != row.shards {
				t.Fatalf("%+v: the fabric does not split (%+v, %v); the row would prove nothing", row, part, err)
			}
		}
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
			t.Errorf("%+v: digest %.12s unobserved, %.12s observed", row, a, b)
		}
		if watched.Telemetry.Delivered == 0 || len(watched.Sampler.Samples()) == 0 || trace.Len() == 0 {
			t.Errorf("%+v: the probes saw nothing", row)
		}
	}
}
