package core

import (
	"reflect"
	"sort"
	"testing"

	"vertigo/internal/fabric"
	"vertigo/internal/metrics"
	"vertigo/internal/sim"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// shardTestConfig is a small leaf-spine scenario with enough ToRs to split
// four ways and enough incast traffic that every domain boundary carries
// packets in both directions.
func shardTestConfig() Config {
	cfg := DefaultConfig(fabric.Vertigo, transport.DCTCP)
	cfg.SimTime = 20 * units.Millisecond
	cfg.LeafSpineCfg = topo.LeafSpineConfig{
		Spines: 4, Leaves: 8, HostsPerLeaf: 4,
		HostRate: 10 * units.Gbps, FabricRate: 40 * units.Gbps,
		LinkDelay: 500 * units.Nanosecond,
	}
	cfg.IncastScale = 16
	cfg.SetIncastLoad(0.1)
	return cfg
}

// TestShardedDeterministic pins the sharded determinism contract: for a
// fixed shard count the run is exactly reproducible. (Different shard
// counts are distinct deterministic universes — same-instant event ordering
// is partition-dependent — so cross-count identity is deliberately NOT
// asserted; see DESIGN.md.)
func TestShardedDeterministic(t *testing.T) {
	for _, n := range []int{2, 4} {
		var first *Result
		for rep := 0; rep < 2; rep++ {
			cfg := shardTestConfig()
			cfg.Shards = n
			r, err := Run(cfg)
			if err != nil {
				t.Fatalf("shards=%d rep=%d: %v", n, rep, err)
			}
			if first == nil {
				first = r
				continue
			}
			if !reflect.DeepEqual(first.Summary, r.Summary) {
				t.Errorf("shards=%d: summaries differ between repetitions:\n%+v\nvs\n%+v",
					n, first.Summary, r.Summary)
			}
			if first.Events != r.Events {
				t.Errorf("shards=%d: event counts differ: %d vs %d", n, first.Events, r.Events)
			}
			if first.Collector.Drops != r.Collector.Drops {
				t.Errorf("shards=%d: drop counters differ: %v vs %v",
					n, first.Collector.Drops, r.Collector.Drops)
			}
		}
	}
}

// TestShardedConservation checks the merged result of a sharded run is
// internally consistent: work actually crossed domains, and the packet
// ledger balances (every sent packet is delivered, dropped, or still in
// flight at the horizon — never silently lost in a mailbox).
func TestShardedConservation(t *testing.T) {
	cfg := shardTestConfig()
	cfg.Shards = 4
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Summary
	if s.FlowsStarted == 0 || s.FlowsCompleted == 0 {
		t.Fatalf("no flow progress: started=%d completed=%d", s.FlowsStarted, s.FlowsCompleted)
	}
	if s.FlowsCompleted > s.FlowsStarted {
		t.Errorf("completed %d > started %d", s.FlowsCompleted, s.FlowsStarted)
	}
	if s.QueriesCompleted > s.QueriesStarted {
		t.Errorf("queries completed %d > started %d", s.QueriesCompleted, s.QueriesStarted)
	}
	var drops int64
	for _, d := range r.Collector.Drops {
		drops += d
	}
	if s.PacketsRecv+drops > s.PacketsSent {
		t.Errorf("ledger overflows: recv %d + drops %d > sent %d",
			s.PacketsRecv, drops, s.PacketsSent)
	}
	// In-flight at the horizon is bounded by the fabric's capacity; a large
	// residue would mean cross-domain packets leaked out of the mailboxes.
	if gap := s.PacketsSent - s.PacketsRecv - drops; gap > s.PacketsSent/10 {
		t.Errorf("suspiciously many packets unaccounted for: %d of %d sent", gap, s.PacketsSent)
	}
}

// TestShardedDegradesToSerial pins the degrade rules: shard counts <= 1,
// Monitor telemetry, and text packet traces all take the serial engine,
// byte-for-byte. (A sharded run cannot carry a Monitor or an ordered text
// trace, so Run falls back rather than changing semantics.)
func TestShardedDegradesToSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config) // applied to both runs; only Shards differs
	}{
		{"plain", func(c *Config) {}},
		{"telemetry", func(c *Config) { c.Telemetry = true }},
	} {
		serial := shardTestConfig()
		tc.mut(&serial)
		base, err := Run(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", tc.name, err)
		}
		for _, n := range []int{1, 4} {
			if tc.name == "plain" && n == 4 {
				continue // genuinely sharded; covered by TestShardedDeterministic
			}
			cfg := shardTestConfig()
			tc.mut(&cfg)
			cfg.Shards = n
			r, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, n, err)
			}
			if !reflect.DeepEqual(base.Summary, r.Summary) {
				t.Errorf("%s shards=%d: expected serial-identical summary, got:\n%+v\nvs serial\n%+v",
					tc.name, n, r.Summary, base.Summary)
			}
		}
	}
}

// startedFlow is what the start callback learns of one arrival.
type startedFlow struct {
	ID       uint64
	Start    units.Time
	Src, Dst int
	Size     int64
	Class    metrics.FlowClass
}

// replayWorkload runs cfg's generators alone on a bare engine and returns
// every arrival in order, numbered from 1, with the number of queries fired:
// the offered workload as a function of the seed and nothing else.
func replayWorkload(t *testing.T, cfg Config) ([]startedFlow, int) {
	t.Helper()
	eng, met := sim.NewEngine(cfg.Seed), metrics.NewCollector()
	var flows []startedFlow
	err := armGenerators(&cfg, eng, met, cfg.NumHosts(), nil, func(src, dst int, size int64, incast bool, _ int) {
		cls := metrics.Background
		if incast {
			cls = metrics.Incast
		}
		flows = append(flows, startedFlow{uint64(len(flows) + 1), eng.Now(), src, dst, size, cls})
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(cfg.SimTime)
	return flows, len(met.Queries)
}

// domainFlows arms cfg's n domains exactly as runSharded does, runs each to
// the horizon on its own (the arrivals never depend on a packet, so the
// window exchange is not needed) and returns the flow records the domains
// registered, in ID order.
func domainFlows(t *testing.T, cfg Config, n int) []startedFlow {
	t.Helper()
	cfg.RawSeries = metrics.RawKeep // completed records stay for RangeFlows
	tp, err := topo.NewLeafSpine(cfg.LeafSpineCfg)
	if cfg.Kind == FatTree {
		tp, err = topo.NewFatTree(cfg.FatTreeCfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	part, err := topo.NewPartition(tp, n)
	if err != nil || part.N != n {
		t.Fatalf("partition into %d: got %+v, %v", n, part, err)
	}
	var flows []startedFlow
	for di := 0; di < n; di++ {
		d, err := newDomain(&cfg, tp, part, di)
		if err != nil {
			t.Fatal(err)
		}
		d.eng.Run(cfg.SimTime)
		d.met.RangeFlows(func(f *metrics.FlowRecord) bool {
			if part.HostDomain[f.Dst] != di {
				t.Errorf("shards=%d: domain %d registered flow %d to host %d of domain %d",
					n, di, f.ID, f.Dst, part.HostDomain[f.Dst])
			}
			flows = append(flows, startedFlow{f.ID, f.Start, f.Src, f.Dst, f.Size, f.Class})
			return true
		})
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i].ID < flows[j].ID })
	return flows
}

// TestOfferedWorkloadIsShardInvariant: every domain runs every generator on
// an identically seeded engine, so the offered workload is a function of the
// seed, not of the shard count — the flows the domains register, put
// together, are the generators' arrivals exactly, with IDs dense from 1 in
// arrival order, and a sharded run reports that many flows and queries
// started. Where no policy randomness is drawn from the engine's stream
// (ECMP) the serial run offers the same workload too.
func TestOfferedWorkloadIsShardInvariant(t *testing.T) {
	fatTree := shardTestConfig()
	fatTree.Kind = FatTree
	fatTree.FatTreeCfg.K = 8
	fatTree.SimTime = 5 * units.Millisecond
	fatTree.IncastFlowSize = 4000
	fatTree.SetIncastLoad(0.2)
	fatTree.BGLoad = 0.2
	// Every request reaches its server past the horizon: the queries start,
	// none of their responses does, none can complete, and no flow names the
	// client whose domain has to count the query.
	late := shardTestConfig()
	late.SimTime = 2 * units.Millisecond
	late.RequestDelay = 3 * units.Millisecond
	late.BGLoad = 0
	late.SetIncastLoad(0.5)
	ecmp := shardTestConfig()
	ecmp.Fabric = fabric.DefaultConfig(fabric.ECMP)
	ecmp.VertigoStack = false

	for _, tc := range []struct {
		name   string
		cfg    Config
		serial bool // shards=1 draws nothing else from the engine's stream
		flows  bool // the seed offers any
	}{
		{"leafspine", shardTestConfig(), false, true},
		{"fattree8", fatTree, false, true},
		{"late-requests", late, true, false},
		{"ecmp", ecmp, true, true},
	} {
		if testing.Short() {
			if tc.cfg.Kind == FatTree {
				continue
			}
			tc.cfg.SimTime = min(tc.cfg.SimTime, 5*units.Millisecond)
		}
		want, queries := replayWorkload(t, tc.cfg)
		if queries == 0 || (len(want) > 0) != tc.flows {
			t.Fatalf("%s: replay offers %d flows and %d queries; test would prove nothing", tc.name, len(want), queries)
		}
		shards := []int{2, 4}
		if tc.serial {
			shards = []int{1, 2, 4}
		}
		for _, n := range shards {
			cfg := tc.cfg
			cfg.Shards = n
			r, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, n, err)
			}
			s := r.Summary
			if s.FlowsStarted != len(want) || s.QueriesStarted != queries {
				t.Errorf("%s shards=%d: started %d flows and %d queries, the seed offers %d and %d",
					tc.name, n, s.FlowsStarted, s.QueriesStarted, len(want), queries)
			}
			if !tc.flows && s.QueriesCompleted != 0 {
				t.Errorf("%s shards=%d: %d queries completed without a response", tc.name, n, s.QueriesCompleted)
			}
			if n == 1 {
				continue
			}
			if got := domainFlows(t, tc.cfg, n); !reflect.DeepEqual(got, want) {
				t.Errorf("%s shards=%d: the domains registered %d flows, not the %d arrivals of the replay (IDs 1..%d in arrival order)",
					tc.name, n, len(got), len(want), len(want))
			}
		}
	}
}
