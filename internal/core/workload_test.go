package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vertigo/internal/fabric"
	"vertigo/internal/faults"
	"vertigo/internal/metrics"
	"vertigo/internal/sim"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// burstConfig is a small leaf-spine scenario, 4 spines × 8 leaves × 4 hosts,
// with enough incast traffic that the core carries packets both ways.
func burstConfig() Config {
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

// withFlaps adds a flap schedule to cfg: three flaps of the first leaf's
// first uplink and two of the last leaf's last, so links at both ends of the
// fabric fail and recover; it returns the fault events and recoveries the
// schedule makes.
func withFlaps(cfg *Config) (events, recoveries int) {
	hosts, links := cfg.NumHosts(), cfg.NumHosts()+cfg.LeafSpineCfg.Leaves*cfg.LeafSpineCfg.Spines
	T := cfg.SimTime
	cfg.Faults = (&faults.Schedule{}).
		Add(faults.Flap(hosts, T/4, T/16, T/8, 3)...).
		Add(faults.Flap(links-1, T/3, T/16, T/8, 2)...)
	return 10, 5
}

// withPolicy returns cfg under pol's default fabric, transport and host stack.
func withPolicy(cfg Config, pol fabric.Policy) Config {
	def := DefaultConfig(pol, transport.DCTCP)
	cfg.Fabric, cfg.Transport, cfg.VertigoStack = def.Fabric, def.Transport, def.VertigoStack
	return cfg
}

// TestShardsHasNoEffect pins the contract of the one field a run keeps for
// the frozen benchmark: Config.Shards changes nothing at any value — the
// benchmark's sim_digest (a SHA-256 of the encoded Summary) and the Summary
// itself are those of the same run without it.
func TestShardsHasNoEffect(t *testing.T) {
	digest := func(s *metrics.Summary) string {
		h := sha256.New()
		if err := s.Encode(h); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	cfg := burstConfig()
	cfg.SimTime = 5 * units.Millisecond
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-3, 1, 2, 4} {
		cfg.Shards = n
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("Shards %d: %v", n, err)
		}
		if !reflect.DeepEqual(got.Summary, want.Summary) || digest(got.Summary) != digest(want.Summary) {
			t.Errorf("Shards %d: the Summary differs from the run without it:\n%+v\nvs\n%+v", n, got.Summary, want.Summary)
		}
		if got.Engine != want.Engine {
			t.Errorf("Shards %d: engine counters %+v, want %+v", n, got.Engine, want.Engine)
		}
	}
}

// TestObservedFlapRunIsUnobserved: a run under a flap schedule, watched by a
// sampler, the monitor and a tracer of one flow, is the run unwatched — the
// same Summary and drop counters — and the probes did see it.
func TestObservedFlapRunIsUnobserved(t *testing.T) {
	cfg := burstConfig()
	withFlaps(&cfg)
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	cfg.Telemetry, cfg.SampleTick = true, 200*units.Microsecond
	cfg.PacketTrace, cfg.PacketTraceFlow = &trace, 1
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Summary, want.Summary) {
		t.Errorf("the probes changed the run:\n%+v\nvs unobserved\n%+v", got.Summary, want.Summary)
	}
	if got.Collector.Drops != want.Collector.Drops {
		t.Errorf("drop counters differ: %v observed, %v unobserved", got.Collector.Drops, want.Collector.Drops)
	}
	if got.Telemetry.DeflectionHist == [17]int64{} || len(got.Sampler.Samples()) == 0 || trace.Len() == 0 {
		t.Error("the probes saw nothing")
	}
}

// TestRunConservesPackets: a finished run's packet ledger balances — every
// sent packet is delivered, dropped, or still in flight at the horizon, and
// what is in flight fits in the fabric — and no flow or query completes
// without starting.
func TestRunConservesPackets(t *testing.T) {
	r, err := Run(burstConfig())
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
	drops := r.Collector.TotalDrops()
	if s.PacketsRecv+drops > s.PacketsSent {
		t.Errorf("ledger overflows: recv %d + drops %d > sent %d", s.PacketsRecv, drops, s.PacketsSent)
	}
	if gap := s.PacketsSent - s.PacketsRecv - drops; gap > s.PacketsSent/10 {
		t.Errorf("suspiciously many packets unaccounted for: %d of %d sent", gap, s.PacketsSent)
	}
}

// TestMonitorReconciles: the Monitor reconciles with the run's ledger to the
// packet — deliveries, drops, deflections — renders the same report on every
// run, does not change the run it watches, and, under a flap schedule (the
// DIBS rows), carries the fault stream the collector counted.
func TestMonitorReconciles(t *testing.T) {
	for _, pol := range []fabric.Policy{fabric.Vertigo, fabric.DIBS} {
		cfg := withPolicy(burstConfig(), pol)
		if testing.Short() {
			cfg.SimTime = 10 * units.Millisecond
		}
		cfg.Telemetry = true
		flaps, recoveries := 0, 0
		if pol == fabric.DIBS {
			flaps, recoveries = withFlaps(&cfg)
		}

		var reports [2]string
		var r *Result
		for rep := range reports {
			var err error
			if r, err = Run(cfg); err != nil {
				t.Fatalf("%v: %v", pol, err)
			}
			var sb strings.Builder
			r.Telemetry.WriteReport(&sb, r.Summary, 1<<30)
			reports[rep] = sb.String()
		}
		if reports[0] != reports[1] {
			t.Errorf("%v: two runs render different reports:\n%s\nvs\n%s", pol, reports[0], reports[1])
		}
		if !strings.Contains(reports[0], "congestion episodes") {
			t.Errorf("%v: report has no episode line:\n%s", pol, reports[0])
		}

		bare := cfg
		bare.Telemetry = false
		if b, err := Run(bare); err != nil {
			t.Fatalf("%v unmonitored: %v", pol, err)
		} else if !reflect.DeepEqual(b.Summary, r.Summary) {
			t.Errorf("%v: the Monitor changed the run:\n%+v\nvs unmonitored\n%+v", pol, r.Summary, b.Summary)
		}

		mon, s := r.Telemetry, r.Summary
		var delivered int64
		for _, c := range mon.DeflectionHist {
			delivered += c
		}
		if delivered == 0 || delivered != s.PacketsRecv {
			t.Errorf("%v: monitor delivered %d, summary %d", pol, delivered, s.PacketsRecv)
		}
		var drops, defl int64
		for _, ps := range mon.Ports(s.Duration) {
			drops += ps.Drops
			defl += ps.Deflections
		}
		// The collector counts dropped data packets; a port's row counts
		// the ACKs it dropped too, and no other counter holds those. DIBS
		// tail-drops a few and a dead link swallows what it is handed; a
		// Vertigo queue evicts from the tail of the rank order, where no
		// ACK sits, so on the unfaulted Vertigo rows the sum is exact.
		if total := r.Collector.TotalDrops(); total == 0 || drops < total || (pol == fabric.Vertigo && drops != total) {
			t.Errorf("%v: ports sum to %d drops, collector counts %d data packets dropped", pol, drops, total)
		}
		if defl == 0 || defl != s.Deflections {
			t.Errorf("%v: ports sum to %d deflections, summary %d", pol, defl, s.Deflections)
		}
		if r.Collector.FaultEvents != int64(flaps) || r.Collector.RecoveryCount() != recoveries {
			t.Errorf("%v: collector counts %d fault events and %d recoveries, schedule %d and %d",
				pol, r.Collector.FaultEvents, r.Collector.RecoveryCount(), flaps, recoveries)
		}
		if want := fmt.Sprintf("fault events: %d, %d link recoveries", flaps, recoveries); recoveries > 0 && !strings.Contains(reports[0], want) {
			t.Errorf("%v: report has no %q line:\n%s", pol, want, reports[0])
		}
	}
}

// startedFlow is what the start callback learns of one arrival, ID dropped.
type startedFlow struct {
	Start    units.Time
	Src, Dst int
	Size     int64
	Class    metrics.FlowClass
}

// replayWorkload runs cfg's generators alone on a bare engine and returns
// every arrival, with the number of queries fired: the offered workload as a
// function of the seed and nothing else.
func replayWorkload(t *testing.T, cfg Config) ([]startedFlow, int) {
	t.Helper()
	eng, met := sim.NewEngine(cfg.Seed), metrics.NewCollector()
	var flows []startedFlow
	err := armGenerators(&cfg, eng, met, cfg.NumHosts(), func(src, dst int, size int64, incast bool, _ int) {
		cls := metrics.Background
		if incast {
			cls = metrics.Incast
		}
		flows = append(flows, startedFlow{eng.Now(), src, dst, size, cls})
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(cfg.SimTime)
	return flows, len(met.Queries)
}

// offered sorts flows into a canonical order, so that two runs offer the
// same workload iff their sorted flows are equal.
func offered(flows []startedFlow) []startedFlow {
	sort.Slice(flows, func(i, j int) bool {
		a, b := flows[i], flows[j]
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
	return flows
}

// TestOfferedWorkloadIsPolicyInvariant: the engine's random stream is the
// generators' alone — no policy, transport or probe draws from it — so the
// offered workload is a function of the seed, not of the policy. A run under
// each of the four policies starts the multiset of flows, and the number of
// queries, that a generators-only replay of the seed does.
func TestOfferedWorkloadIsPolicyInvariant(t *testing.T) {
	fatTree := burstConfig()
	fatTree.Kind = FatTree
	fatTree.FatTreeCfg.K = 8
	fatTree.SimTime = 5 * units.Millisecond
	fatTree.IncastFlowSize = 4000
	fatTree.SetIncastLoad(0.2)
	fatTree.BGLoad = 0.2
	// Every request reaches its server past the horizon: the queries start,
	// none of their responses does, and none can complete.
	late := burstConfig()
	late.SimTime = 2 * units.Millisecond
	late.RequestDelay = 3 * units.Millisecond
	late.BGLoad = 0
	late.SetIncastLoad(0.5)
	// Sixteen hosts: a query's fan-in is clamped to the other fifteen.
	fatTree4 := burstConfig()
	fatTree4.Kind = FatTree
	fatTree4.FatTreeCfg.K = 4
	fatTree4.SetIncastLoad(0.1)

	type row struct {
		name  string
		cfg   Config
		flows bool // the seed offers any
	}
	table := []row{
		{"leafspine", burstConfig(), true},
		{"fattree8", fatTree, true},
		{"late-requests", late, false},
	}
	for _, pol := range []fabric.Policy{fabric.ECMP, fabric.DRILL, fabric.DIBS} {
		table = append(table, row{"leafspine-" + pol.String(), withPolicy(burstConfig(), pol), true})
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
		cfg := tc.cfg
		cfg.RawSeries = metrics.RawKeep // completed records stay for RangeFlows
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s := r.Summary
		if s.FlowsStarted != len(want) || s.QueriesStarted != queries {
			t.Errorf("%s: started %d flows and %d queries, the seed offers %d and %d",
				tc.name, s.FlowsStarted, s.QueriesStarted, len(want), queries)
		}
		if !tc.flows && s.QueriesCompleted != 0 {
			t.Errorf("%s: %d queries completed without a response", tc.name, s.QueriesCompleted)
		}
		var got []startedFlow
		r.Collector.RangeFlows(func(f *metrics.FlowRecord) bool {
			got = append(got, startedFlow{f.Start, f.Src, f.Dst, f.Size, f.Class})
			return true
		})
		if !reflect.DeepEqual(offered(got), offered(want)) {
			t.Errorf("%s: the run started %d flows that are not the multiset of the replay's %d arrivals",
				tc.name, len(got), len(want))
		}
	}
}
