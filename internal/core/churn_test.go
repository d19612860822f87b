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
	// object and two event closures beside its slab element; it reads 3.24
	// now, nearly all of it set-up (this k=4 run has a port for every 13
	// flows). The budget is that plus 15%.
	const budget = 3.7
	if perFlow > budget {
		t.Errorf("flow churn allocates %.2f objects per flow, budget %.2f", perFlow, budget)
	}
}
