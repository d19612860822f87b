package host

import (
	"runtime"
	"testing"

	"vertigo/internal/fabric"
	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/topo"
	"vertigo/internal/units"
)

// TestHostsShareOneDirectoryAndKeepTheirOwnCounts: hosts built against one
// network keep their flow state in that network's directory — the same flow
// ID, and the same destination's epoch, under two hosts are two entries — and
// ActiveFlows stays a per-host count. A slot one host's flow vacates goes to
// whichever host registers a flow next; the timers of the slot's new tenant
// fire on the new tenant's orderer.
func TestHostsShareOneDirectoryAndKeepTheirOwnCounts(t *testing.T) {
	eng, a, b, _ := hostPair(t, true)
	dir := directoryOf(a.Net)
	if directoryOf(b.Net) != dir || a.Marker.flows != dir.marks.View(0) || b.Orderer.flows != dir.orders.View(1) {
		t.Fatal("two hosts of one network do not share its directory")
	}

	// Markers: flow 7 at both hosts, toward the same destination.
	a.Marker.StartFlow(7, 5, 3*packet.MSS)
	a.Marker.StartFlow(8, 5, 3*packet.MSS)
	b.Marker.StartFlow(7, 5, 9*packet.MSS)
	if a.Marker.ActiveFlows() != 2 || b.Marker.ActiveFlows() != 1 || dir.marks.Len() != 3 {
		t.Fatalf("markers count %d and %d flows, the directory %d; want 2, 1 and 3",
			a.Marker.ActiveFlows(), b.Marker.ActiveFlows(), dir.marks.Len())
	}
	pa := &packet.Packet{Kind: packet.Data, Flow: 7, PayloadLen: packet.MSS}
	pb := &packet.Packet{Kind: packet.Data, Flow: 7, PayloadLen: packet.MSS}
	a.Marker.Mark(pa)
	b.Marker.Mark(pb)
	if pa.Info.RFS != 3*packet.MSS || pb.Info.RFS != 9*packet.MSS {
		t.Fatalf("flow 7 marked %d at host 0 and %d at host 1: the hosts share an entry", pa.Info.RFS, pb.Info.RFS)
	}
	if pa.Info.FlowID != 0 || pb.Info.FlowID != 0 {
		t.Fatalf("first flow toward host 5 carries epoch %d at host 0 and %d at host 1, want 0 at both", pa.Info.FlowID, pb.Info.FlowID)
	}
	a.Marker.EndFlow(7)
	a.Marker.EndFlow(7) // ending an unknown flow counts nothing
	if a.Marker.ActiveFlows() != 1 || b.Marker.ActiveFlows() != 1 || b.Marker.flows.Get(7) == nil {
		t.Fatalf("after host 0 ended flow 7: %d and %d flows", a.Marker.ActiveFlows(), b.Marker.ActiveFlows())
	}

	// Orderers: host 0 holds a reordered flow, host 1 completes one; host 1's
	// tombstone is reclaimed, host 0's slot times out on host 0.
	var gotA, gotB int
	a.Orderer.deliver = func(*packet.Packet) { gotA++ }
	b.Orderer.deliver = func(*packet.Packet) { gotB++ }
	fa, fb := mkFlow(21, 4), mkFlow(21, 2)
	a.Orderer.Receive(fa[1])
	for _, p := range fb {
		b.Orderer.Receive(p)
	}
	if a.Orderer.ActiveFlows() != 1 || b.Orderer.ActiveFlows() != 1 || dir.orders.Len() != 2 || gotA != 0 || gotB != 2 {
		t.Fatalf("orderers count %d and %d flows (directory %d), delivered %d and %d",
			a.Orderer.ActiveFlows(), b.Orderer.ActiveFlows(), dir.orders.Len(), gotA, gotB)
	}
	eng.Run(eng.Now() + 2*DefaultOrdererConfig().Timeout)
	if gotA != 1 || a.Orderer.Timeouts != 1 || b.Orderer.Timeouts != 0 {
		t.Fatalf("host 0's held packet: delivered %d, timeouts %d at host 0 and %d at host 1", gotA, a.Orderer.Timeouts, b.Orderer.Timeouts)
	}
	if b.Orderer.ActiveFlows() != 0 || a.Orderer.ActiveFlows() != 1 {
		t.Fatalf("after reclaim: %d flows at host 1 (want 0), %d at host 0 (want the open flow)", b.Orderer.ActiveFlows(), a.Orderer.ActiveFlows())
	}
	// Host 1's vacated slot now serves host 0.
	vacated := dir.orders.Len()
	a.Orderer.Receive(mkFlow(22, 2)[1])
	if _, owner, _, ok := dir.orders.AtRef(a.Orderer.flows.Ref(22)); !ok || owner != 0 || dir.orders.Len() != vacated+1 {
		t.Fatal("host 0's new flow is not in the directory under host 0")
	}
	eng.Run(eng.Now() + 2*DefaultOrdererConfig().Timeout)
	if gotA != 2 || a.Orderer.Timeouts != 2 || b.Orderer.Timeouts != 0 {
		t.Fatalf("recycled slot's timer: delivered %d, timeouts %d at host 0 and %d at host 1", gotA, a.Orderer.Timeouts, b.Orderer.Timeouts)
	}
}

// TestIdleHostsCostTheirStructs: a host that never sends or receives — every
// host of a sharded run's domain that does not own it — allocates no table,
// no filter page and no buffer: building a thousand costs under 1 KiB each
// (it was 27 KiB), and the directory they share stays empty.
func TestIdleHostsCostTheirStructs(t *testing.T) {
	tp, err := topo.NewFatTree(topo.FatTreeConfig{K: 16, Rate: 10 * units.Gbps, LinkDelay: 500 * units.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	met := metrics.NewCollector()
	net := fabric.New(eng, tp, met, fabric.DefaultConfig(fabric.Vertigo))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < tp.NumHosts; i++ {
		NewHost(i, eng, net, met, DefaultMarkerConfig(), DefaultOrdererConfig(), true)
	}
	runtime.ReadMemStats(&m1)
	perHost := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(tp.NumHosts)
	objs := float64(m1.Mallocs-m0.Mallocs) / float64(tp.NumHosts)
	t.Logf("%d hosts: %.0f B and %.1f objects each", tp.NumHosts, perHost, objs)
	if perHost > 1024 || objs > 6 {
		t.Errorf("an idle Vertigo host costs %.0f B in %.1f objects, want under 1 KiB in at most 6", perHost, objs)
	}
	dir := directoryOf(net)
	if dir.handlers.Len()+dir.marks.Len()+dir.epochs.Len()+dir.orders.Len() != 0 || len(dir.orderers) != tp.NumHosts {
		t.Errorf("idle hosts left entries in the directory, or %d of %d orderers registered", len(dir.orderers), tp.NumHosts)
	}
}
