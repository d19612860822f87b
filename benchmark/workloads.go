package main

import (
	"fmt"

	"vertigo/internal/core"
	"vertigo/internal/exp"
	"vertigo/internal/fabric"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
	"vertigo/internal/workload"
)

// workloadSpec is one frozen benchmark scenario. The names and the reasons
// for choosing them live in BENCHMARK.json; the scenario itself lives here
// because it is Go configuration. Changing any of it invalidates every
// number recorded against the name.
type workloadSpec struct {
	name    string
	simTime units.Time
	// minCompletion is the floor on Summary.FlowCompletionP under which a
	// run counts as failed: the scenario stopped doing the work it was
	// chosen for.
	minCompletion float64
	build         func(seed int64, simTime units.Time) core.Config
}

var workloads = []workloadSpec{
	{"leafspine_incast", 120 * units.Millisecond, 90, leafSpineIncast},
	{"fattree16_churn", 600 * units.Microsecond, 50, fatTreeChurn(16)},
	{"leafspine_bulk", 80 * units.Millisecond, 50, leafSpineBulk},
	{"leafspine_observed", 100 * units.Millisecond, 90, leafSpineObserved},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

func leafSpine(cfg *core.Config, sc exp.Scale) {
	cfg.Kind = core.LeafSpine
	cfg.LeafSpineCfg.Spines = sc.Spines
	cfg.LeafSpineCfg.Leaves = sc.Leaves
	cfg.LeafSpineCfg.HostsPerLeaf = sc.HostsPerLeaf
}

// leafSpineIncast is BenchmarkRunThroughput's scenario (bench_run_test.go)
// run for longer: the paper's headline mix on the Tiny leaf-spine.
func leafSpineIncast(seed int64, simTime units.Time) core.Config {
	sc := exp.Tiny
	cfg := core.DefaultConfig(fabric.Vertigo, transport.DCTCP)
	cfg.Seed = seed
	cfg.SimTime = simTime
	leafSpine(&cfg, sc)
	cfg.IncastScale = sc.IncastScale
	cfg.IncastFlowSize = int64(sc.IncastFlowKB) * 1000
	cfg.BGLoad = 0.25
	cfg.SetIncastLoad(0.60)
	return cfg
}

// leafSpineObserved attaches the sampler and the monitor to
// leafSpineIncast, which stands packet trains down.
func leafSpineObserved(seed int64, simTime units.Time) core.Config {
	cfg := leafSpineIncast(seed, simTime)
	cfg.SampleTick = 200 * units.Microsecond
	cfg.Telemetry = true
	return cfg
}

// leafSpineBulk is long DCTCP flows over plain ECMP drop-tail queues: no
// Vertigo stack, no incast.
func leafSpineBulk(seed int64, simTime units.Time) core.Config {
	cfg := core.DefaultConfig(fabric.ECMP, transport.DCTCP)
	cfg.Seed = seed
	cfg.SimTime = simTime
	leafSpine(&cfg, exp.Medium)
	cfg.BGLoad = 0.60
	cfg.BGDist = workload.WebSearch
	cfg.IncastQPS = 0
	return cfg
}

// fatTreeChurn is the scale=huge scenario of BenchmarkRunThroughputHuge on a
// k-ary fat-tree: 40% load of 32-way incasts of 4 KB flows and nothing else.
// k is a parameter only so that core.scale_gap_ns_per_event can run the same
// load per host on k=8.
func fatTreeChurn(k int) func(seed int64, simTime units.Time) core.Config {
	return func(seed int64, simTime units.Time) core.Config {
		sc := exp.Huge
		cfg := core.DefaultConfig(fabric.Vertigo, transport.DCTCP)
		cfg.Seed = seed
		cfg.SimTime = simTime
		cfg.Kind = core.FatTree
		cfg.FatTreeCfg = topo.FatTreeConfig{K: k, Rate: 10 * units.Gbps, LinkDelay: 500 * units.Nanosecond}
		cfg.IncastScale = sc.IncastScale
		cfg.IncastFlowSize = int64(sc.IncastFlowKB) * 1000
		cfg.BGLoad = 0
		cfg.SetIncastLoad(0.40)
		return cfg
	}
}
