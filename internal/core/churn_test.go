package core

import (
	"runtime"
	"testing"

	"vertigo/internal/fabric"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// TestFlowChurnAllocBudget guards the flow-churn allocation claim without the
// benchmark: the benchmark's fattree16_churn scenario — Vertigo + DCTCP, no
// background, 40% load of incasts of three-packet flows, measured from a cold
// start over less than two orderer timeouts, so that flow-table slots are
// mostly on their first tenant — cut down to a k=4 fat-tree. The figure is
// heap objects per flow across the whole of Run, set-up included, as the
// benchmark's allocs_per_pkt is.
func TestFlowChurnAllocBudget(t *testing.T) {
	cfg := DefaultConfig(fabric.Vertigo, transport.DCTCP)
	cfg.Kind = FatTree
	cfg.FatTreeCfg = topo.FatTreeConfig{K: 4, Rate: 10 * units.Gbps, LinkDelay: 500 * units.Nanosecond}
	cfg.SimTime = 600 * units.Microsecond
	cfg.BGLoad = 0
	cfg.IncastScale = 8
	cfg.IncastFlowSize = 4000
	cfg.SetIncastLoad(0.40)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := Run(cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	flows := res.Summary.FlowsStarted
	if flows < 500 {
		t.Fatalf("only %d flows started: scenario shows nothing", flows)
	}
	perFlow := float64(m1.Mallocs-m0.Mallocs) / float64(flows)
	t.Logf("%d flows, %d packets, %d objects: %.2f per flow", flows, res.Summary.PacketsSent, m1.Mallocs-m0.Mallocs, perFlow)
	// It read 10.07 per flow while every flow-table slot built two timer
	// closures and three reorder arrays, every sender slot three method values
	// and every incast request a closure; 3.88 while every port was a queue
	// object and two event closures beside its slab element; 3.24 while every
	// host built four flow tables, every port's first arrays were allocations
	// of their own and every sender slot kept a method value; it reads 0.43
	// now. The budget is that plus 20%.
	const budget = 0.52
	if perFlow > budget {
		t.Errorf("flow churn allocates %.2f objects per flow, budget %.2f", perFlow, budget)
	}
}

// TestSetupAllocatesByTheSimulationNotTheHost pins set-up cost where it used
// to hurt: Run with one simulated nanosecond on the k=16 fat-tree — topology,
// FIB, fabric, 1,024 Vertigo hosts, pools, armed generators — made 31,746
// allocations and 32 MB while every host built its own four flow tables,
// filter directory and orderer closures. An idle host now costs its structs
// (host.TestIdleHostsCostTheirStructs). Readings are process-wide: the least
// of three.
func TestSetupAllocatesByTheSimulationNotTheHost(t *testing.T) {
	cfg := DefaultConfig(fabric.Vertigo, transport.DCTCP)
	cfg.Kind = FatTree
	cfg.FatTreeCfg = topo.FatTreeConfig{K: 16, Rate: 10 * units.Gbps, LinkDelay: 500 * units.Nanosecond}
	cfg.SimTime = 1
	cfg.BGLoad = 0
	cfg.IncastScale = 32
	cfg.IncastFlowSize = 4000
	cfg.SetIncastLoad(0.40)
	mallocs, bytes := ^uint64(0), ^uint64(0)
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		mallocs, bytes = min(mallocs, m1.Mallocs-m0.Mallocs), min(bytes, m1.TotalAlloc-m0.TotalAlloc)
	}
	t.Logf("%d allocations, %.1f MB", mallocs, float64(bytes)/(1<<20))
	// Measured 5,551 allocations and 3.1 MB.
	const maxMallocs, maxBytes = 8_000, 5 << 20
	if mallocs > maxMallocs || bytes > maxBytes {
		t.Errorf("set-up made %d allocations of %.1f MB, want at most %d and %.1f MB",
			mallocs, float64(bytes)/(1<<20), maxMallocs, float64(maxBytes)/(1<<20))
	}
}
