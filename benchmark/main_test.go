package main

import (
	"io"
	"math"
	"os"
	"testing"

	"vertigo/internal/core"
	"vertigo/internal/units"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// runner re-executes os.Executable() with childEnv set, and here that is
// the test binary.
func TestMain(m *testing.M) {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req))
	}
	os.Exit(m.Run())
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpec checks BENCHMARK.json against the code: it loads and validates,
// names exactly the workloads of workloads.go in their order, and lists
// every probe.
func TestSpec(t *testing.T) {
	spec := testSpec(t)
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in %s, %q in workloads.go", i, spec.Workloads[i].Name, specFile, w.name)
		}
	}
	listed := map[string]bool{}
	for _, m := range spec.PerLayer {
		listed[m.Name] = true
	}
	for _, p := range probes {
		if !listed[p.name] {
			t.Errorf("probe %q is not a per_layer metric in %s", p.name, specFile)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q has bound %g, want within (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestResultLines runs every workload at a fiftieth of its simulated time
// through the real child processes and checks that what comes back is named
// as BENCHMARK.json says, for the timed pass and for the traced one.
func TestResultLines(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a dozen child simulations")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(t)
	r := &runner{exe: exe, spec: spec, seed: 1, out: t.TempDir(), log: io.Discard, scale: 0.02, quick: true}
	once := func(n int, _ float64) bool { return n < 1 }

	check := func(line *resultLine, want []metricSpec) {
		t.Helper()
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("%d metrics, want %d", len(line.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := line.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("metric %q: got %+v (present %v), want a finite value in %q", m.Name, got, ok, m.Unit)
			}
		}
	}
	for _, w := range workloads {
		line, err := r.resultLine(w.name, false, once)
		if err != nil {
			t.Fatal(err)
		}
		check(line, spec.EndToEnd)
		for name, v := range line.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %q is %g, want > 0", w.name, name, v.Value)
			}
		}
	}
	line, err := r.resultLine("leafspine_observed", true, once)
	if err != nil {
		t.Fatal(err)
	}
	check(line, spec.PerLayer)
	if rows := line.Metrics["telemetry.sampler_rows"].Value; rows == 0 {
		t.Error("leafspine_observed recorded no sampler rows")
	}
}

// TestMirrorMatchesCoreRun holds trace.go's copy of core.Run's serial path
// to the original on every shape the workloads use.
func TestMirrorMatchesCoreRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight small simulations")
	}
	for name, cfg := range map[string]core.Config{
		"leaf-spine vertigo": leafSpineIncast(3, 2*units.Millisecond),
		"leaf-spine ecmp":    leafSpineBulk(3, 2*units.Millisecond),
		"fat-tree":           fatTreeChurn(4)(3, 200*units.Microsecond),
		"observed":           leafSpineObserved(3, 2*units.Millisecond),
	} {
		want, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := mirrorRun(cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want.Summary.PacketsSent == 0 {
			t.Errorf("%s: nothing was simulated", name)
		}
		if simDigest(got) != simDigest(want.Summary) {
			t.Errorf("%s: the mirror assembly and core.Run disagree", name)
		}
	}
}

const cannedTop = `File: bench
Type: cpu
Duration: 5.35s, Total samples = 1s (18.7%)
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      0.95s 95.00%  vertigo/internal/sim.(*Engine).Run
     0.20s 20.00% 60.00%      0.30s 30.00%  vertigo/internal/fabric.newSwitch.(*Port).initTx.func2
     100ms 10.00% 70.00%      100ms 10.00%  vertigo/internal/flowtab.(*Table[go.shape.func(*vertigo/internal/packet.Packet)]).Get
      50ms  5.00% 75.00%       50ms  5.00%  vertigo/internal/obs.(*Histogram).Observe (inline)
      50ms  5.00% 80.00%       50ms  5.00%  runtime.scanobject
      50ms  5.00% 85.00%       50ms  5.00%  runtime.mallocgcSmallScanNoHeader
      50ms  5.00% 90.00%       50ms  5.00%  runtime.memmove
      40ms  4.00% 94.00%       40ms  4.00%  internal/runtime/atomic.(*UnsafePointer).StoreNoWB
      30ms  3.00% 97.00%       30ms  3.00%  math/rand.(*Rand).Perm
      30ms  3.00% 100.00%      30ms  3.00%  vertigo/internal/sim/baseline.(*Engine).Run
         0     0%   100%      0.95s 95.00%  main.mirrorRun
`

func TestFoldProfile(t *testing.T) {
	shares, err := foldProfile(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
	for name, want := range map[string]float64{
		"sim.cpu_share": 0.43, "fabric.cpu_share": 0.20, "flowtab.cpu_share": 0.10, "obs.cpu_share": 0.05,
		"runtime.gc_cpu_share": 0.05, "runtime.malloc_cpu_share": 0.05, "runtime.other_cpu_share": 0.09,
		"other.cpu_share": 0.03, "telemetry.cpu_share": 0,
	} {
		if got, ok := shares[name]; !ok || math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g (present %v), want %g", name, got, ok, want)
		}
	}
	spec := testSpec(t)
	listed := map[string]bool{}
	for _, m := range spec.PerLayer {
		listed[m.Name] = true
	}
	for name := range shares {
		if !listed[name] {
			t.Errorf("share %q is not a per_layer metric in %s", name, specFile)
		}
	}
}

func TestVerdict(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if s := newStat("", []float64{16, 1, 4, 2, 8}); s.Q1 != 1.5 || s.Median != 4 || s.Q3 != 12 {
		t.Errorf("quartiles %g %g %g, want 1.5 4 12", s.Q1, s.Median, s.Q3)
	}
	higher := metricSpec{Name: "pkts_per_s", Better: "higher", Bound: 0.10}
	lower := metricSpec{Name: "peak_rss_mb", Better: "lower", Bound: 0.10}
	tight := func(v float64) stat { return newStat("", []float64{v * 0.99, v * 0.995, v, v * 1.005, v * 1.01}) }
	for _, c := range []struct {
		m    metricSpec
		a, b stat
		want string
	}{
		{higher, tight(100), tight(88), "worse"},
		{higher, tight(100), tight(95), "ok"},
		{higher, tight(100), tight(130), "ok"},
		{lower, tight(100), tight(112), "worse"},
		{lower, tight(100), tight(105), "ok"},
		{higher, tight(100), newStat("", []float64{85, 88, 97, 103, 104}), "unresolved"},
		// Under the absolute floor a large relative change is still noise.
		{metricSpec{Name: "setup_s", Better: "lower", Bound: 0.10}, tight(0.0005), tight(0.0008), "ok"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %g -> %g: %s, want %s", c.m.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}
