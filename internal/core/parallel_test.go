package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vertigo/internal/fabric"
	"vertigo/internal/faults"
	"vertigo/internal/metrics"
	"vertigo/internal/sim"
	"vertigo/internal/telemetry"
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

// shardCase is one config the shard claims are checked over.
type shardCase struct {
	name string
	cfg  Config
}

// shardCases are what the experiments carry into a run: every policy, each at
// a load of its own (ECMP under Reno, as fig1 runs it), a flap schedule and
// two corrupting links, each on links of two domains (flapstorm and corrupt).
// Under -short only the first, the Vertigo case, runs.
func shardCases() []shardCase {
	base := shardTestConfig()
	hosts, links := base.NumHosts(), base.NumHosts()+base.LeafSpineCfg.Leaves*base.LeafSpineCfg.Spines
	T := base.SimTime
	reno := withPolicy(base, fabric.ECMP)
	reno.Transport = DefaultConfig(fabric.ECMP, transport.Reno).Transport
	reno.BGLoad = 0.15
	reno.SetIncastLoad(0.35)
	drill := withPolicy(base, fabric.DRILL)
	drill.BGLoad = 0.3
	dibs := withPolicy(base, fabric.DIBS)
	dibs.SetIncastLoad(0.25)
	flaps := base
	flaps.Faults = (&faults.Schedule{}).
		Add(faults.Flap(hosts, T/4, T/16, T/8, 3)...).
		Add(faults.Flap(links-1, T/3, T/16, T/8, 2)...)
	corrupt := withPolicy(base, fabric.ECMP)
	corrupt.Faults = (&faults.Schedule{}).Add(
		faults.Event{Kind: faults.Corrupt, Link: hosts, BER: 1e-3},
		faults.Event{Kind: faults.Corrupt, Link: links - 1, BER: 1e-2})
	cases := []shardCase{
		{"vertigo", base}, {"ecmp-reno", reno}, {"drill", drill}, {"dibs", dibs},
		{"flaps", flaps}, {"corrupt", corrupt},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	return cases
}

// TestShardedDeterministic pins the sharded determinism contract: for a
// fixed shard count a run is exactly reproducible, whatever the policy,
// faults or corruption. (Different shard counts are distinct deterministic
// universes — same-instant event ordering is partition-dependent — so
// cross-count identity is deliberately NOT asserted; see DESIGN.md.) The
// second of the flap case's two runs at two shards is watched by a sampler,
// the monitor and a tracer, so that pair also pins sharded observation
// identity: every probe shards, and none changes the run.
func TestShardedDeterministic(t *testing.T) {
	for _, tc := range shardCases() {
		for _, n := range []int{2, 4} {
			name := fmt.Sprintf("%s shards=%d", tc.name, n)
			cfg := tc.cfg
			cfg.Shards = n
			first, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			watched := tc.name == "flaps" && n == 2
			var trace bytes.Buffer
			if watched {
				cfg.Telemetry, cfg.SampleTick = true, 200*units.Microsecond
				cfg.PacketTrace, cfg.PacketTraceFlow = &trace, 1
			}
			r, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s, again: %v", name, err)
			}
			if !reflect.DeepEqual(first.Summary, r.Summary) {
				t.Errorf("%s: summaries differ between repetitions (watched %t):\n%+v\nvs\n%+v",
					name, watched, first.Summary, r.Summary)
			}
			// The sampler's ticks are events of their own.
			if !watched && first.Engine.Events != r.Engine.Events {
				t.Errorf("%s: event counts differ: %d vs %d", name, first.Engine.Events, r.Engine.Events)
			}
			if first.Collector.Drops != r.Collector.Drops {
				t.Errorf("%s: drop counters differ: %v vs %v", name, first.Collector.Drops, r.Collector.Drops)
			}
			if watched && (r.Telemetry.Delivered == 0 || len(r.Sampler.Samples()) == 0 || trace.Len() == 0) {
				t.Errorf("%s: the probes saw nothing", name)
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

// TestShardedDegradesToSerial pins the one degrade rule an option carries:
// shard counts <= 1 take the serial engine, byte-for-byte, over every shard
// case — a fault schedule's replicas must not double-count when there is
// only one domain. (The other rule — a topology the partition cannot cut — is
// TestPartitionDegradesToSerial's.)
func TestShardedDegradesToSerial(t *testing.T) {
	for _, tc := range shardCases() {
		base, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s serial: %v", tc.name, err)
		}
		cfg := tc.cfg
		cfg.Shards = 1
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s shards=1: %v", tc.name, err)
		}
		if !reflect.DeepEqual(base.Summary, r.Summary) {
			t.Errorf("%s shards=1: expected serial-identical summary, got:\n%+v\nvs serial\n%+v", tc.name, r.Summary, base.Summary)
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

// withPolicy returns cfg under pol's default fabric, transport and host stack.
func withPolicy(cfg Config, pol fabric.Policy) Config {
	def := DefaultConfig(pol, transport.DCTCP)
	cfg.Fabric, cfg.Transport, cfg.VertigoStack = def.Fabric, def.Transport, def.VertigoStack
	return cfg
}

// offered reduces flows to the multiset a run offers — (start, src, dst,
// size, class), IDs dropped — in a canonical order.
func offered(flows []startedFlow) []startedFlow {
	out := make([]startedFlow, len(flows))
	for i, f := range flows {
		f.ID = 0
		out[i] = f
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Start != b.Start:
			return a.Start < b.Start
		case a.Src != b.Src:
			return a.Src < b.Src
		case a.Dst != b.Dst:
			return a.Dst < b.Dst
		case a.Size != b.Size:
			return a.Size < b.Size
		}
		return a.Class < b.Class
	})
	return out
}

// TestOfferedWorkloadIsShardInvariant: the engine's random stream is the
// generators' alone — no policy, transport or probe draws from it — and every
// domain runs every generator on an identically seeded engine, so the offered
// workload is a function of the seed, not of the policy or the shard count.
// A serial run under each of the four policies starts the multiset of flows,
// and the number of queries, that a generators-only replay of the seed does;
// the flows the domains of a sharded run register, put together, are the
// replay's arrivals exactly, with IDs dense from 1 in arrival order, and the
// run reports that many flows and queries started.
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
	// Sixteen hosts: a query's fan-in is clamped to the other fifteen.
	fatTree4 := shardTestConfig()
	fatTree4.Kind = FatTree
	fatTree4.FatTreeCfg.K = 4
	fatTree4.SetIncastLoad(0.1)

	type row struct {
		name  string
		cfg   Config
		flows bool // the seed offers any
	}
	table := []row{
		{"leafspine", shardTestConfig(), true},
		{"fattree8", fatTree, true},
		{"late-requests", late, false},
	}
	for _, pol := range []fabric.Policy{fabric.ECMP, fabric.DRILL, fabric.DIBS} {
		table = append(table, row{"leafspine-" + pol.String(), withPolicy(shardTestConfig(), pol), true})
	}
	for _, pol := range []fabric.Policy{fabric.ECMP, fabric.DRILL, fabric.DIBS, fabric.Vertigo} {
		table = append(table, row{"fattree4-" + pol.String(), withPolicy(fatTree4, pol), true})
	}
	for _, tc := range table {
		if testing.Short() {
			if tc.cfg.Kind == FatTree && tc.cfg.FatTreeCfg.K == 8 {
				continue
			}
			tc.cfg.SimTime = min(tc.cfg.SimTime, 5*units.Millisecond)
		}
		want, queries := replayWorkload(t, tc.cfg)
		if queries == 0 || (len(want) > 0) != tc.flows {
			t.Fatalf("%s: replay offers %d flows and %d queries; test would prove nothing", tc.name, len(want), queries)
		}
		for _, n := range []int{1, 2, 4} {
			cfg := tc.cfg
			cfg.Shards = n
			cfg.RawSeries = metrics.RawKeep // completed records stay for RangeFlows
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
				// The serial run mints flow IDs its own way; what it offers
				// is the replay's multiset.
				var got []startedFlow
				r.Collector.RangeFlows(func(f *metrics.FlowRecord) bool {
					got = append(got, startedFlow{0, f.Start, f.Src, f.Dst, f.Size, f.Class})
					return true
				})
				if !reflect.DeepEqual(offered(got), offered(want)) {
					t.Errorf("%s serial: the run started %d flows that are not the multiset of the replay's %d arrivals",
						tc.name, len(got), len(want))
				}
				continue
			}
			if got := domainFlows(t, tc.cfg, n); !reflect.DeepEqual(got, want) {
				t.Errorf("%s shards=%d: the domains registered %d flows, not the %d arrivals of the replay (IDs 1..%d in arrival order)",
					tc.name, n, len(got), len(want), len(want))
			}
		}
	}
}

// TestShardedMonitorReconciles: Config.Telemetry shards like everything else.
// Every port and host reports in exactly one domain's Monitor, so the merged
// Monitor of a sharded run names no port twice and reconciles with the merged
// Summary to the packet — deliveries, drops, deflections — renders the same
// report on every run, and, under a flap schedule that fails links of more
// than one domain (the DIBS rows), carries the fault stream the collector
// counted.
func TestShardedMonitorReconciles(t *testing.T) {
	for _, pol := range []fabric.Policy{fabric.Vertigo, fabric.DIBS} {
		for _, n := range []int{2, 4} {
			cfg := withPolicy(shardTestConfig(), pol)
			if testing.Short() {
				cfg.SimTime = 10 * units.Millisecond
			}
			cfg.Shards = n
			cfg.Telemetry = true
			flaps, recoveries := 0, 0
			if pol == fabric.DIBS {
				// First leaf's first uplink and last leaf's last: two domains.
				hosts, links := cfg.NumHosts(), cfg.NumHosts()+cfg.LeafSpineCfg.Leaves*cfg.LeafSpineCfg.Spines
				cfg.Faults = (&faults.Schedule{}).
					Add(faults.Flap(hosts, cfg.SimTime/4, cfg.SimTime/16, cfg.SimTime/8, 3)...).
					Add(faults.Flap(links-1, cfg.SimTime/3, cfg.SimTime/16, cfg.SimTime/8, 2)...)
				flaps, recoveries = 10, 5
			}
			name := fmt.Sprintf("%v shards=%d", pol, n)

			var reports [2]string
			var r *Result
			for rep := range reports {
				var err error
				if r, err = Run(cfg); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var sb strings.Builder
				r.Telemetry.WriteReport(&sb, r.Summary.Duration, 1<<30)
				reports[rep] = sb.String()
			}
			if reports[0] != reports[1] {
				t.Errorf("%s: two runs render different reports:\n%s\nvs\n%s", name, reports[0], reports[1])
			}
			if !strings.Contains(reports[0], "congestion episodes") {
				t.Errorf("%s: report has no episode line:\n%s", name, reports[0])
			}

			// The monitored run is the sharded run: attaching the Monitor sent
			// it nowhere else.
			bare := cfg
			bare.Telemetry = false
			if b, err := Run(bare); err != nil {
				t.Fatalf("%s unmonitored: %v", name, err)
			} else if !reflect.DeepEqual(b.Summary, r.Summary) {
				t.Errorf("%s: the Monitor changed the run:\n%+v\nvs unmonitored\n%+v", name, r.Summary, b.Summary)
			}

			mon, s := r.Telemetry, r.Summary
			if mon.Delivered == 0 || mon.Delivered != s.PacketsRecv {
				t.Errorf("%s: monitor delivered %d, summary %d", name, mon.Delivered, s.PacketsRecv)
			}
			seen := map[telemetry.PortKey]bool{}
			var drops, defl int64
			for _, ps := range mon.Ports(s.Duration) {
				if seen[ps.Key] {
					t.Errorf("%s: port %v reported by two domains", name, ps.Key)
				}
				seen[ps.Key] = true
				drops += ps.Drops
				defl += ps.Deflections
			}
			// The collector counts dropped data packets; a port's row counts
			// the ACKs it dropped too, and no other counter holds those. DIBS
			// tail-drops a few and a dead link swallows what it is handed; a
			// Vertigo queue evicts from the tail of the rank order, where no
			// ACK sits, so on the unfaulted Vertigo rows the sum is exact.
			if total := r.Collector.TotalDrops(); total == 0 || drops < total || (pol == fabric.Vertigo && drops != total) {
				t.Errorf("%s: ports sum to %d drops, collector counts %d data packets dropped", name, drops, total)
			}
			if defl == 0 || defl != s.Deflections {
				t.Errorf("%s: ports sum to %d deflections, summary %d", name, defl, s.Deflections)
			}
			if got := len(mon.Faults()); got != flaps || int64(got) != r.Collector.FaultEvents {
				t.Errorf("%s: monitor saw %d fault events, collector %d, schedule %d", name, got, r.Collector.FaultEvents, flaps)
			}
			if got := len(mon.TimesToRecover()); got != recoveries || got != r.Collector.RecoveryCount() {
				t.Errorf("%s: monitor paired %d recoveries, collector %d, schedule %d", name, got, r.Collector.RecoveryCount(), recoveries)
			}
		}
	}
}
