package fabric

import (
	"reflect"
	"testing"

	"vertigo/internal/metrics"
	"vertigo/internal/obs"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/topo"
	"vertigo/internal/units"
)

// testNet builds a 2-spine, 2-leaf, 2-hosts-per-leaf fabric with a capture
// receiver per host.
func testNet(t *testing.T, cfg Config) (*sim.Engine, *Network, *metrics.Collector, [][]*packet.Packet) {
	t.Helper()
	tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
		Spines: 2, Leaves: 2, HostsPerLeaf: 2,
		HostRate: 10 * units.Gbps, FabricRate: 40 * units.Gbps,
		LinkDelay: 500 * units.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	met := metrics.NewCollector()
	net := New(eng, tp, met, cfg)
	got := make([][]*packet.Packet, tp.NumHosts)
	for h := 0; h < tp.NumHosts; h++ {
		h := h
		net.RegisterHost(h, recvFunc(func(p *packet.Packet) { got[h] = append(got[h], p) }))
	}
	return eng, net, met, got
}

type recvFunc func(*packet.Packet)

func (f recvFunc) Receive(p *packet.Packet) { f(p) }

func dataPkt(ids *packet.IDGen, src, dst int, flow uint64, rfs uint32) *packet.Packet {
	return &packet.Packet{
		ID: ids.Next(), Kind: packet.Data, Src: src, Dst: dst, Flow: flow,
		PayloadLen: packet.MSS, Marked: true, Info: packet.FlowInfo{RFS: rfs},
	}
}

func TestDeliveryAcrossFabric(t *testing.T) {
	for _, policy := range []Policy{ECMP, DRILL, DIBS, Vertigo} {
		eng, net, _, got := testNet(t, DefaultConfig(policy))
		var ids packet.IDGen
		// Host 0 (leaf 0) to host 2 (leaf 1): 3 switch hops.
		p := dataPkt(&ids, 0, 2, 7, 1000)
		net.Send(p)
		eng.Run(units.Second)
		if len(got[2]) != 1 {
			t.Fatalf("%v: delivered %d packets, want 1", policy, len(got[2]))
		}
		if got[2][0].Hops != 3 {
			t.Errorf("%v: hops = %d, want 3 (leaf-spine-leaf)", policy, got[2][0].Hops)
		}
	}
}

func TestECMPFlowStickiness(t *testing.T) {
	eng, net, _, got := testNet(t, DefaultConfig(ECMP))
	var ids packet.IDGen
	// Many packets of one flow: all must survive on the same path in FIFO
	// order (ECMP never reorders a flow).
	for i := 0; i < 50; i++ {
		net.Send(dataPkt(&ids, 0, 2, 9, uint32(5000-i)))
	}
	eng.Run(units.Second)
	if len(got[2]) != 50 {
		t.Fatalf("delivered %d, want 50", len(got[2]))
	}
	for i := 1; i < 50; i++ {
		if got[2][i].ID < got[2][i-1].ID {
			t.Fatal("ECMP reordered a single flow")
		}
	}
}

func TestVertigoSRPTDequeueOrder(t *testing.T) {
	eng, net, _, got := testNet(t, DefaultConfig(Vertigo))
	var ids packet.IDGen
	// Two senders at 10G into one 10G downlink: a queue builds at the ToR.
	// Host 1 sends a large-RFS flow, host 2 a tiny-RFS flow that must jump
	// the queue.
	for i := 0; i < 10; i++ {
		net.Send(dataPkt(&ids, 1, 0, 1, 100_000))
		net.Send(dataPkt(&ids, 2, 0, 2, 10))
	}
	eng.Run(units.Second)
	if len(got[0]) != 20 {
		t.Fatalf("delivered %d, want 20", len(got[0]))
	}
	// The first arrival entered an empty queue; after that the small-RFS
	// flow must overtake: packets of flow 2 finish before the last of flow 1.
	lastSmall, lastBig := -1, -1
	for i, p := range got[0] {
		if p.Flow == 2 {
			lastSmall = i
		} else {
			lastBig = i
		}
	}
	if lastSmall > lastBig {
		t.Fatalf("small-RFS flow finished at %d, after large-RFS at %d", lastSmall, lastBig)
	}
}

func TestVertigoDeflectionOnOverflow(t *testing.T) {
	cfg := DefaultConfig(Vertigo)
	cfg.BufferBytes = 5 * units.ByteSize(packet.MSS+packet.HeaderLen+packet.ShimHeaderLen)
	eng, net, met, got := testNet(t, cfg)
	var ids packet.IDGen
	// Burst from two hosts on leaf 1 into host 0: the ToR downlink floods.
	for i := 0; i < 40; i++ {
		net.Send(dataPkt(&ids, 2, 0, 3, 60_000))
		net.Send(dataPkt(&ids, 3, 0, 4, 60_000))
	}
	eng.Run(units.Second)
	if met.Deflections == 0 {
		t.Fatal("no deflections despite overflow")
	}
	deflected := 0
	for _, p := range got[0] {
		if p.Deflections > 0 {
			deflected++
			if p.Hops <= 3 {
				t.Errorf("deflected packet took %d hops, want > 3", p.Hops)
			}
		}
	}
	if deflected == 0 {
		t.Fatal("no deflected packet was ultimately delivered")
	}
}

func TestVertigoPrefersDeflectingLargeRFS(t *testing.T) {
	cfg := DefaultConfig(Vertigo)
	cfg.BufferBytes = 3 * units.ByteSize(packet.MSS+packet.HeaderLen+packet.ShimHeaderLen)
	eng, net, _, got := testNet(t, cfg)
	var ids packet.IDGen
	// Saturate with large-RFS, then send small-RFS: the small ones must be
	// delivered without deflection while large ones detour.
	for i := 0; i < 20; i++ {
		net.Send(dataPkt(&ids, 1, 0, 1, 1_000_000))
	}
	for i := 0; i < 5; i++ {
		net.Send(dataPkt(&ids, 1, 0, 2, 100))
	}
	eng.Run(units.Second)
	for _, p := range got[0] {
		if p.Flow == 2 && p.Deflections > 0 {
			t.Fatal("small-RFS packet was deflected while large-RFS packets were present")
		}
	}
}

func TestDIBSDeflectsArrivingPacket(t *testing.T) {
	cfg := DefaultConfig(DIBS)
	cfg.BufferBytes = 3 * units.ByteSize(packet.MSS+packet.HeaderLen+packet.ShimHeaderLen)
	eng, net, met, got := testNet(t, cfg)
	var ids packet.IDGen
	for i := 0; i < 30; i++ {
		net.Send(dataPkt(&ids, 2, 0, 3, 1000))
		net.Send(dataPkt(&ids, 3, 0, 4, 1000))
	}
	eng.Run(units.Second)
	if met.Deflections == 0 {
		t.Fatal("DIBS did not deflect on overflow")
	}
	if len(got[0]) == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestECMPDropsOnOverflow(t *testing.T) {
	cfg := DefaultConfig(ECMP)
	cfg.BufferBytes = 3 * units.ByteSize(packet.MSS+packet.HeaderLen)
	eng, net, met, _ := testNet(t, cfg)
	var ids packet.IDGen
	for i := 0; i < 30; i++ {
		p := dataPkt(&ids, 2, 0, 3, 1000)
		p.Marked = false
		net.Send(p)
		q := dataPkt(&ids, 3, 0, 4, 1000)
		q.Marked = false
		net.Send(q)
	}
	eng.Run(units.Second)
	if met.Drops[metrics.DropOverflow] == 0 {
		t.Fatal("ECMP did not tail-drop on overflow")
	}
	if met.Deflections != 0 {
		t.Fatal("ECMP deflected")
	}
}

func TestECNMarking(t *testing.T) {
	cfg := DefaultConfig(ECMP)
	cfg.ECNThreshold = 5
	eng, net, met, got := testNet(t, cfg)
	var ids packet.IDGen
	for i := 0; i < 50; i++ {
		p := dataPkt(&ids, 1, 0, 1, 1000)
		p.ECNCapable = true
		net.Send(p)
		q := dataPkt(&ids, 2, 0, 2, 1000)
		q.ECNCapable = true
		net.Send(q)
	}
	eng.Run(units.Second)
	if met.ECNMarks == 0 {
		t.Fatal("no ECN marks despite standing queue above threshold")
	}
	marked := 0
	for _, p := range got[0] {
		if p.CE {
			marked++
		}
	}
	if marked != int(met.ECNMarks) {
		t.Fatalf("delivered CE %d != marks %d", marked, met.ECNMarks)
	}
}

// TestPerPacketSignalsPublishInBatches: queue depth and ECN marks are
// tallied in the run's own collector, one observation per enqueue, and the
// fabric writes nothing to the process-global registry — the run's publisher
// (internal/core) folds the tallies in on the engine's cadence.
func TestPerPacketSignalsPublishInBatches(t *testing.T) {
	cfg := DefaultConfig(ECMP)
	cfg.ECNThreshold = 5
	eng, net, met, got := testNet(t, cfg)
	before := obs.Default.Snapshot()
	var ids packet.IDGen
	for i := 0; i < 50; i++ {
		for src := 1; src <= 2; src++ {
			p := dataPkt(&ids, src, 0, uint64(src), 1000)
			p.ECNCapable = true
			net.Send(p)
		}
	}
	eng.Run(units.Second)
	var enqueues uint64
	for _, p := range got[0] {
		enqueues += 1 + uint64(p.Hops) // the NIC, then every switch on the way
	}
	if len(got[0]) != 100 || met.ECNMarks == 0 {
		t.Fatalf("%d of 100 packets delivered, %d marks: scenario shows nothing", len(got[0]), met.ECNMarks)
	}
	if n := met.QueueDepth.Count(); n != enqueues {
		t.Errorf("collector saw %d queue-depth observations, want %d", n, enqueues)
	}
	if after := obs.Default.Snapshot(); !reflect.DeepEqual(after, before) {
		t.Errorf("the fabric wrote to the registry:\n%+v\nthen\n%+v", before, after)
	}
}

func TestECNNotMarkedWhenIncapable(t *testing.T) {
	cfg := DefaultConfig(ECMP)
	cfg.ECNThreshold = 2
	eng, net, met, _ := testNet(t, cfg)
	var ids packet.IDGen
	for i := 0; i < 50; i++ {
		net.Send(dataPkt(&ids, 1, 0, 1, 1000)) // ECNCapable false
		net.Send(dataPkt(&ids, 2, 0, 2, 1000))
	}
	eng.Run(units.Second)
	if met.ECNMarks != 0 {
		t.Fatal("marked non-ECT packets")
	}
}

func TestTTLDrop(t *testing.T) {
	cfg := DefaultConfig(Vertigo)
	cfg.MaxHops = 2 // any cross-leaf path needs 3
	eng, net, met, got := testNet(t, cfg)
	var ids packet.IDGen
	net.Send(dataPkt(&ids, 0, 2, 7, 100))
	eng.Run(units.Second)
	if met.Drops[metrics.DropTTL] != 1 {
		t.Fatalf("TTL drops = %d, want 1", met.Drops[metrics.DropTTL])
	}
	if len(got[2]) != 0 {
		t.Fatal("packet delivered despite TTL")
	}
}

func TestDeflectionSetExcludesHostPorts(t *testing.T) {
	_, net, _, _ := testNet(t, DefaultConfig(Vertigo))
	sw := net.Switch(0) // leaf 0: ports 0,1 hosts; 2,3 uplinks
	var ids packet.IDGen
	p := dataPkt(&ids, 2, 0, 1, 10)
	set := sw.deflectionSet(p, 2)
	for _, i := range set {
		if net.Topo.PortPeer[0][i].Host {
			t.Fatalf("deflection set contains host port %d", i)
		}
		if i == 2 {
			t.Fatal("deflection set contains the excluded origin")
		}
	}
	if len(set) == 0 {
		t.Fatal("empty deflection set on a leaf with uplinks")
	}
}

func TestMaxDeflectionsBudget(t *testing.T) {
	cfg := DefaultConfig(Vertigo)
	cfg.MaxDeflections = 1
	cfg.BufferBytes = 2 * units.ByteSize(packet.MSS+packet.HeaderLen+packet.ShimHeaderLen)
	eng, net, met, _ := testNet(t, cfg)
	var ids packet.IDGen
	for i := 0; i < 60; i++ {
		net.Send(dataPkt(&ids, 2, 0, 3, 50_000))
		net.Send(dataPkt(&ids, 3, 0, 4, 50_000))
	}
	eng.Run(units.Second)
	if met.Drops[metrics.DropDeflectFull] == 0 {
		t.Fatal("budget of 1 deflection never triggered a drop under sustained overflow")
	}
}

func TestVertigoNoSchedulingUsesFIFO(t *testing.T) {
	cfg := DefaultConfig(Vertigo)
	cfg.Scheduling = false
	_, net, _, _ := testNet(t, cfg)
	if _, ok := net.Switch(0).Port(0).Queue().(interface{ Tail() *packet.Packet }); ok {
		t.Fatal("scheduling disabled but port still uses a sorted queue")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"ecmp", "drill", "dibs", "vertigo"} {
		p, err := ParsePolicy(name)
		if err != nil || p.String() != name {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestConservationNoLossScenario(t *testing.T) {
	// Below capacity every injected packet must be delivered exactly once.
	for _, policy := range []Policy{ECMP, DRILL, DIBS, Vertigo} {
		eng, net, met, got := testNet(t, DefaultConfig(policy))
		var ids packet.IDGen
		const n = 200
		for i := 0; i < n; i++ {
			net.Send(dataPkt(&ids, i%4, (i+1)%4, uint64(i%4), uint32(1000+i)))
		}
		eng.Run(units.Second)
		total := 0
		for h := range got {
			total += len(got[h])
		}
		if total != n || met.TotalDrops() != 0 {
			t.Errorf("%v: delivered %d of %d, drops %d", policy, total, n, met.TotalDrops())
		}
	}
}

func TestLinkFailureBlackholesECMP(t *testing.T) {
	eng, net, met, got := testNet(t, DefaultConfig(ECMP))
	var ids packet.IDGen
	// Host 0 -> host 1: same leaf, single path through leaf 0 port 1.
	// Failing the host-1 access link (topology link index 1) blackholes it.
	eng.At(0, func() { net.SetLinkState(1, false) })
	eng.Run(units.Millisecond)
	for i := 0; i < 10; i++ {
		net.Send(dataPkt(&ids, 0, 1, 5, 100))
	}
	eng.Run(units.Second)
	if len(got[1]) != 0 {
		t.Fatalf("delivered %d packets over a dead link", len(got[1]))
	}
	if met.Drops[metrics.DropLinkDown] == 0 && met.Drops[metrics.DropOverflow] == 0 {
		t.Fatal("no drops recorded for blackholed traffic")
	}
}

func TestLinkFailureDeflectionRescuesVertigo(t *testing.T) {
	// Cross-leaf traffic with one of two uplinks dead: Vertigo must deflect
	// around the failure (a dead port behaves like a full queue), delivering
	// everything via the surviving spine.
	eng, net, met, got := testNet(t, DefaultConfig(Vertigo))
	var ids packet.IDGen
	// Leaf 0's first uplink is its port index 2 (after 2 host ports).
	// Its link index: 4 host links + first leaf-spine link = index 4.
	eng.At(0, func() { net.SetLinkState(4, false) })
	eng.Run(units.Millisecond)
	const n = 50
	for i := 0; i < n; i++ {
		net.Send(dataPkt(&ids, 0, 2, 6, uint32(1000+i)))
	}
	eng.Run(2 * units.Second)
	if len(got[2]) != n {
		t.Fatalf("delivered %d of %d with one uplink dead (drops: ttl=%d down=%d defl-full=%d)",
			len(got[2]), n, met.Drops[metrics.DropTTL],
			met.Drops[metrics.DropLinkDown], met.Drops[metrics.DropDeflectFull])
	}
}

func TestLinkFailureFlushesQueuedPackets(t *testing.T) {
	cfg := DefaultConfig(ECMP)
	eng, net, met, _ := testNet(t, cfg)
	var ids packet.IDGen
	// Queue a burst toward host 0, then kill its access link mid-drain.
	for i := 0; i < 40; i++ {
		net.Send(dataPkt(&ids, 1, 0, 7, 100))
		net.Send(dataPkt(&ids, 2, 0, 8, 100))
	}
	eng.At(10*units.Microsecond, func() { net.SetLinkState(0, false) })
	eng.Run(units.Second)
	if met.Drops[metrics.DropLinkDown] == 0 {
		t.Fatal("queued packets not flushed on carrier loss")
	}
}

func TestNoDuplicationUnderDeflection(t *testing.T) {
	// Heavy overflow with deflection: every injected packet is delivered at
	// most once (the fabric never clones), and delivered+dropped == sent.
	for _, policy := range []Policy{DIBS, Vertigo} {
		cfg := DefaultConfig(policy)
		cfg.BufferBytes = 4 * units.ByteSize(packet.MSS+packet.HeaderLen+packet.ShimHeaderLen)
		eng, net, met, got := testNet(t, cfg)
		var ids packet.IDGen
		const n = 600
		for i := 0; i < n; i++ {
			net.Send(dataPkt(&ids, 2, 0, uint64(i%7), uint32(1000+i)))
			net.Send(dataPkt(&ids, 3, 0, uint64(7+i%7), uint32(1000+i)))
		}
		eng.Run(5 * units.Second)
		seen := map[uint64]bool{}
		delivered := 0
		for _, g := range got {
			for _, p := range g {
				if seen[p.ID] {
					t.Fatalf("%v: packet %d delivered twice", policy, p.ID)
				}
				seen[p.ID] = true
				delivered++
			}
		}
		if int64(delivered)+met.TotalDrops() != 2*n {
			t.Fatalf("%v: conservation broken: %d delivered + %d dropped != %d sent",
				policy, delivered, met.TotalDrops(), 2*n)
		}
	}
}

// TestDRILLForwardingAllocatesNothing pins DRILL's per-packet routing cost in
// objects: two random queue samples plus the per-group least-loaded memory,
// through a leaf switch's enqueue and dequeue and on across a spine, allocate
// nothing once the path is warm.
func TestDRILLForwardingAllocatesNothing(t *testing.T) {
	eng, net, _, _ := testNet(t, DefaultConfig(DRILL))
	// Packets come from the pool and the destination puts them back, so Get
	// and Put balance and the free list stays flat; injecting one packet of
	// the test's own over and over would grow it by a frame a run.
	delivered := 0
	net.RegisterHost(2, recvFunc(func(p *packet.Packet) { delivered++; net.Pool().Put(p) }))
	leaf := net.Switch(net.Topo.HostToR[0]) // host 2 is under the other leaf: both spine uplinks are candidates
	var ids packet.IDGen
	inject := func() {
		p := net.Pool().Get()
		*p = packet.Packet{ID: ids.Next(), Kind: packet.Data, Src: 0, Dst: 2, Flow: 7, PayloadLen: packet.MSS}
		leaf.Receive(p)
		eng.Run(eng.Now() + 50*units.Microsecond) // drain, so queues stay shallow
	}
	inject()
	eng.Run(eng.Now() + units.Millisecond)
	if avg := testing.AllocsPerRun(1000, inject); avg != 0 {
		t.Fatalf("a packet through a warm DRILL leaf allocates %.3f objects, want 0", avg)
	}
	if delivered != 1002 { // the warm-up, AllocsPerRun's own warm-up, 1000 runs
		t.Fatalf("delivered %d of 1002 packets", delivered)
	}
}
