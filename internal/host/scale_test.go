package host_test

import (
	"testing"

	"vertigo/internal/core"
	"vertigo/internal/fabric"
	"vertigo/internal/host"
	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
	"vertigo/internal/workload"
)

// TestDefaultFilterNeverOverflowsOnLeafSpineIncast runs the paper's headline
// mix — the benchmark's leafspine_incast scenario: Vertigo + DCTCP on the
// 16-host leaf-spine, 25% cache-follower background plus 60% 8-way 20 KB
// incast — assembled from the layers the way core.Run's serial path does,
// so that the hosts' markers can be read afterwards. The default filter
// capacity must hold every in-flight signature: an overflow would leave a
// retransmission unboosted without any other symptom.
func TestDefaultFilterNeverOverflowsOnLeafSpineIncast(t *testing.T) {
	cfg := core.DefaultConfig(fabric.Vertigo, transport.DCTCP)
	cfg.Kind = core.LeafSpine
	cfg.LeafSpineCfg.Spines, cfg.LeafSpineCfg.Leaves, cfg.LeafSpineCfg.HostsPerLeaf = 2, 4, 4
	cfg.SimTime = 20 * units.Millisecond
	cfg.IncastScale, cfg.IncastFlowSize = 8, 20_000
	cfg.BGLoad = 0.25
	cfg.SetIncastLoad(0.60)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	tp, err := topo.NewLeafSpine(cfg.LeafSpineCfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	met := metrics.NewCollector()
	net := fabric.New(eng, tp, met, cfg.Fabric)
	ids := &packet.IDGen{}
	senders := transport.NewSenderPool(cfg.Transport)
	receivers := transport.NewReceiverPool(eng, net, met, ids)
	hosts := make([]*host.Host, tp.NumHosts)
	for i := range hosts {
		h := host.NewHost(i, eng, net, met, cfg.Marker, cfg.Orderer, true)
		h.SetAcceptor(func(first *packet.Packet) func(*packet.Packet) { return receivers.Accept(h, first) })
		hosts[i] = h
	}
	start := func(src, dst int, size int64, incast bool, query int) {
		spec := transport.FlowSpec{ID: ids.Next(), Src: src, Dst: dst, Size: size, Incast: incast, Query: query}
		senders.Get(hosts[src], met, ids, spec, nil).Start()
	}
	(&workload.Background{
		Eng: eng, Hosts: tp.NumHosts, Dist: workload.CacheFollower,
		HostRate: cfg.HostRate(), Load: cfg.BGLoad, Start: start,
	}).Run(cfg.SimTime)
	(&workload.Incast{
		Eng: eng, Met: met, Hosts: tp.NumHosts, QPS: cfg.IncastQPS, Scale: cfg.IncastScale,
		FlowSize: cfg.IncastFlowSize, RequestDelay: cfg.RequestDelay, Start: start,
	}).Run(cfg.SimTime)
	eng.Run(cfg.SimTime)

	var boosts int64
	for _, h := range hosts {
		boosts += h.Marker.Boosts
		if h.Marker.FilterOverflows != 0 {
			t.Errorf("host %d: %d filter overflows at default capacity", h.ID, h.Marker.FilterOverflows)
		}
	}
	if met.PacketsSent < 10_000 || boosts == 0 {
		t.Fatalf("scenario did too little to show anything: %d packets, %d boosts", met.PacketsSent, boosts)
	}
}
