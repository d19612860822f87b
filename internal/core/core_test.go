package core

import (
	"testing"

	"vertigo/internal/fabric"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// smallConfig returns a fast scenario for functional tests: an 8-leaf,
// 2-spine fabric with 4 hosts per leaf and a short deadline.
func smallConfig(policy fabric.Policy, proto transport.Protocol) Config {
	cfg := DefaultConfig(policy, proto)
	cfg.LeafSpineCfg = topo.LeafSpineConfig{
		Spines:       2,
		Leaves:       4,
		HostsPerLeaf: 4,
		HostRate:     10 * units.Gbps,
		FabricRate:   40 * units.Gbps,
		LinkDelay:    500 * units.Nanosecond,
	}
	cfg.SimTime = 50 * units.Millisecond
	cfg.BGLoad = 0.3
	cfg.IncastScale = 8
	cfg.IncastFlowSize = 20 * 1000
	cfg.SetIncastLoad(0.2)
	return cfg
}

func TestRunAllSchemes(t *testing.T) {
	for _, policy := range []fabric.Policy{fabric.ECMP, fabric.DRILL, fabric.DIBS, fabric.Vertigo} {
		for _, proto := range []transport.Protocol{transport.Reno, transport.DCTCP, transport.Swift} {
			policy, proto := policy, proto
			t.Run(policy.String()+"/"+proto.String(), func(t *testing.T) {
				res, err := Run(smallConfig(policy, proto))
				if err != nil {
					t.Fatal(err)
				}
				s := res.Summary
				if s.FlowsStarted == 0 {
					t.Fatal("no flows started")
				}
				if s.FlowsCompleted == 0 {
					t.Fatalf("no flows completed: %+v", s)
				}
				if s.QueriesStarted == 0 {
					t.Fatal("no queries started")
				}
				if s.PacketsRecv == 0 {
					t.Fatal("no packets delivered")
				}
				t.Logf("%s+%s: flows %d/%d queries %d/%d meanFCT %v meanQCT %v drops %d defl %d",
					policy, proto, s.FlowsCompleted, s.FlowsStarted,
					s.QueriesCompleted, s.QueriesStarted, s.MeanFCT, s.MeanQCT,
					s.Drops, s.Deflections)
			})
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := smallConfig(fabric.Vertigo, transport.DCTCP)
	cfg.SimTime = 20 * units.Millisecond
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine.Events != b.Engine.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Engine.Events, b.Engine.Events)
	}
	if a.Summary.MeanFCT != b.Summary.MeanFCT || a.Summary.Drops != b.Summary.Drops {
		t.Fatalf("summaries differ: %+v vs %+v", a.Summary, b.Summary)
	}
}
