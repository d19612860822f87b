package core

import (
	"math"
	"testing"

	"vertigo/internal/fabric"
	"vertigo/internal/metrics"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
	"vertigo/internal/workload"
)

func TestDefaultConfigMatchesPaperTable1(t *testing.T) {
	cfg := DefaultConfig(fabric.Vertigo, transport.DCTCP)
	if cfg.SimTime != 5*units.Second {
		t.Errorf("sim time %v, want the paper's 5s deadline", cfg.SimTime)
	}
	if cfg.IncastQPS != 4000 || cfg.IncastScale != 100 || cfg.IncastFlowSize != 40000 {
		t.Errorf("incast defaults drifted: %+v", cfg)
	}
	if cfg.Fabric.BufferBytes != 300*units.KB || cfg.Fabric.ECNThreshold != 65 {
		t.Errorf("fabric defaults drifted: %+v", cfg.Fabric)
	}
	if cfg.Transport.InitRTO != units.Second || cfg.Transport.MinRTO != 10*units.Millisecond {
		t.Errorf("RTO defaults drifted: %+v", cfg.Transport)
	}
	if cfg.Orderer.Timeout != 360*units.Microsecond {
		t.Errorf("tau default %v, want 360µs", cfg.Orderer.Timeout)
	}
	if !cfg.VertigoStack {
		t.Error("Vertigo policy must enable the host stack")
	}
}

func TestDIBSDisablesFastRetransmit(t *testing.T) {
	if DefaultConfig(fabric.DIBS, transport.DCTCP).Transport.FastRetransmit {
		t.Error("DIBS default must disable fast retransmit (paper §2)")
	}
	if !DefaultConfig(fabric.ECMP, transport.DCTCP).Transport.FastRetransmit {
		t.Error("non-DIBS schemes must keep fast retransmit")
	}
}

func TestNumHostsAndHostRate(t *testing.T) {
	cfg := DefaultConfig(fabric.ECMP, transport.DCTCP)
	if cfg.NumHosts() != 320 {
		t.Errorf("leaf-spine hosts %d, want 320", cfg.NumHosts())
	}
	if cfg.HostRate() != 10*units.Gbps {
		t.Errorf("host rate %v", cfg.HostRate())
	}
	cfg.Kind = FatTree
	if cfg.NumHosts() != 128 {
		t.Errorf("fat-tree k=8 hosts %d, want 128", cfg.NumHosts())
	}
}

func TestSetIncastLoadRoundTrips(t *testing.T) {
	cfg := DefaultConfig(fabric.ECMP, transport.DCTCP)
	cfg.SetIncastLoad(0.40)
	got := cfg.IncastQPS * float64(cfg.IncastScale) * float64(cfg.IncastFlowSize) * 8 /
		(float64(cfg.HostRate()) * float64(cfg.NumHosts()))
	if got < 0.399 || got > 0.401 {
		t.Errorf("incast load %.4f, want 0.40", got)
	}
}

// TestSetIncastLoadOnSmallFabric: a query's fan-in is clamped to the hosts-1
// servers there are, and the rate SetIncastLoad picks has to be sized with
// that fan-in, not the configured scale — on four hosts with IncastScale 8
// the run must still offer the load it was asked for, not 3/8 of it.
func TestSetIncastLoadOnSmallFabric(t *testing.T) {
	cfg := DefaultConfig(fabric.ECMP, transport.DCTCP)
	cfg.LeafSpineCfg = topo.LeafSpineConfig{
		Spines: 1, Leaves: 2, HostsPerLeaf: 2,
		HostRate: 10 * units.Gbps, FabricRate: 40 * units.Gbps,
		LinkDelay: 500 * units.Nanosecond,
	}
	cfg.SimTime = 200 * units.Millisecond
	cfg.BGLoad = 0
	cfg.IncastScale = 8
	const load = 0.2
	cfg.SetIncastLoad(load)
	cfg.RawSeries = metrics.RawKeep // completed records stay for RangeFlows
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bytes int64
	res.Collector.RangeFlows(func(f *metrics.FlowRecord) bool {
		if f.Class == metrics.Incast {
			bytes += f.Size
		}
		return true
	})
	got := float64(bytes) * 8 / (cfg.SimTime.Seconds() * float64(cfg.HostRate()) * float64(cfg.NumHosts()))
	// Poisson arrivals: the count of n queries is off by ~1/sqrt(n).
	n := float64(res.Summary.QueriesStarted)
	if tol := 4 / math.Sqrt(n); n < 500 || math.Abs(got/load-1) > tol {
		t.Errorf("asked for incast load %.2f, %d queries offered %.4f (%.0f%% of it, tolerance %.0f%%)",
			load, res.Summary.QueriesStarted, got, 100*got/load, 100*tol)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cfg := DefaultConfig(fabric.ECMP, transport.DCTCP)
	cfg.SimTime = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero sim time accepted")
	}
	cfg = DefaultConfig(fabric.ECMP, transport.DCTCP)
	cfg.Kind = TopoKind(42)
	if _, err := Run(cfg); err == nil {
		t.Error("bogus topology kind accepted")
	}
	cfg = DefaultConfig(fabric.ECMP, transport.DCTCP)
	cfg.LeafSpineCfg.Leaves = 0
	if _, err := Run(cfg); err == nil {
		t.Error("invalid leaf-spine accepted")
	}
}

func TestRunRejectsBadTrace(t *testing.T) {
	cfg := smallConfig(fabric.ECMP, transport.DCTCP)
	cfg.Trace = &workload.Trace{Flows: []workload.TraceFlow{{Src: 0, Dst: 9999, Size: 100}}}
	if _, err := Run(cfg); err == nil {
		t.Error("trace referencing unknown hosts accepted")
	}
}

func TestRunRejectsBadLinkFailure(t *testing.T) {
	cfg := smallConfig(fabric.ECMP, transport.DCTCP)
	cfg.LinkFailures = []LinkFailure{{Link: 1 << 20, At: 0}}
	if _, err := Run(cfg); err == nil {
		t.Error("out-of-range link failure accepted")
	}
}

func TestTraceOnlyRun(t *testing.T) {
	cfg := smallConfig(fabric.Vertigo, transport.DCTCP)
	cfg.BGLoad = 0
	cfg.IncastQPS = 0
	cfg.Trace = &workload.Trace{Flows: []workload.TraceFlow{
		{At: 0, Src: 0, Dst: 5, Size: 100_000},
		{At: 10 * units.Microsecond, Src: 1, Dst: 5, Size: 100_000},
		{At: 20 * units.Microsecond, Src: 2, Dst: 5, Size: 100_000},
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.FlowsCompleted != 3 {
		t.Fatalf("completed %d trace flows, want 3", res.Summary.FlowsCompleted)
	}
	if res.Collector.BytesGoodput != 300_000 {
		t.Fatalf("goodput %d bytes, want 300000", res.Collector.BytesGoodput)
	}
}

func TestLinkFailureEndToEnd(t *testing.T) {
	// Kill every uplink of leaf 0 halfway: flows from leaf 0 to other
	// leaves cannot complete after the failure even with deflection.
	cfg := smallConfig(fabric.Vertigo, transport.DCTCP)
	cfg.BGLoad = 0
	cfg.IncastQPS = 0
	hosts := cfg.NumHosts()
	var fails []LinkFailure
	for i := 0; i < cfg.LeafSpineCfg.Spines; i++ {
		fails = append(fails, LinkFailure{Link: hosts + i, At: units.Millisecond})
	}
	cfg.LinkFailures = fails
	cfg.Trace = &workload.Trace{Flows: []workload.TraceFlow{
		{At: 0, Src: 0, Dst: hosts - 1, Size: 20_000},                     // finishes pre-failure
		{At: 2 * units.Millisecond, Src: 0, Dst: hosts - 1, Size: 20_000}, // doomed
	}}
	cfg.SimTime = 20 * units.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.FlowsCompleted != 1 {
		t.Fatalf("completed %d flows, want exactly the pre-failure one", res.Summary.FlowsCompleted)
	}
}
