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

func hostPair(t *testing.T, vertigoStack bool) (*sim.Engine, *Host, *Host, *metrics.Collector) {
	t.Helper()
	tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
		Spines: 1, Leaves: 2, HostsPerLeaf: 1,
		HostRate: 10 * units.Gbps, FabricRate: 40 * units.Gbps,
		LinkDelay: 500 * units.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	met := metrics.NewCollector()
	net := fabric.New(eng, tp, met, fabric.DefaultConfig(fabric.Vertigo))
	a := NewHost(0, eng, net, met, DefaultMarkerConfig(), DefaultOrdererConfig(), vertigoStack)
	b := NewHost(1, eng, net, met, DefaultMarkerConfig(), DefaultOrdererConfig(), vertigoStack)
	return eng, a, b, met
}

// TestHostBindDispatch: Bind routes an outgoing flow's ACKs — and only its
// ACKs — to its handler until Unbind; a data packet of the same flow ID is an
// inbound flow's, and goes to the acceptor.
func TestHostBindDispatch(t *testing.T) {
	eng, a, b, _ := hostPair(t, false)
	acks, accepted := 0, 0
	b.Bind(7, HandlerFunc(func(*packet.Packet) { acks++ }))
	b.SetAcceptor(func(*packet.Packet) func(*packet.Packet) {
		accepted++
		return nil
	})
	a.Send(&packet.Packet{Kind: packet.Ack, Src: 0, Dst: 1, Flow: 7})
	a.Send(&packet.Packet{Kind: packet.Data, Src: 0, Dst: 1, Flow: 7, PayloadLen: 100})
	eng.Run(units.Second)
	if acks != 1 || accepted != 1 {
		t.Fatalf("handler got %d packets and the acceptor %d, want the ACK and the data packet", acks, accepted)
	}
	b.Unbind(7)
	a.Send(&packet.Packet{Kind: packet.Ack, Src: 0, Dst: 1, Flow: 7})
	eng.Run(2 * units.Second)
	if acks != 1 {
		t.Fatal("unbound handler still invoked")
	}
}

func TestHostAcceptorCreatesHandlerOnce(t *testing.T) {
	eng, a, b, _ := hostPair(t, false)
	created, received := 0, 0
	b.SetAcceptor(func(first *packet.Packet) func(*packet.Packet) {
		created++
		return func(p *packet.Packet) { received++ }
	})
	for i := 0; i < 5; i++ {
		a.Send(&packet.Packet{Kind: packet.Data, Src: 0, Dst: 1, Flow: 9, PayloadLen: 100})
	}
	eng.Run(units.Second)
	if created != 1 {
		t.Fatalf("acceptor ran %d times, want 1", created)
	}
	if received != 5 {
		t.Fatalf("handler got %d packets, want 5", received)
	}
}

func TestHostMarksOutgoingData(t *testing.T) {
	eng, a, b, _ := hostPair(t, true)
	a.Marker.StartFlow(3, 1, 5000)
	var got *packet.Packet
	b.SetAcceptor(func(*packet.Packet) func(*packet.Packet) { return func(p *packet.Packet) { got = p } })
	a.Send(&packet.Packet{
		Kind: packet.Data, Src: 0, Dst: 1, Flow: 3,
		Seq: 0, PayloadLen: 1460, FlowSize: 5000,
	})
	eng.Run(units.Second)
	if got == nil {
		t.Fatal("nothing delivered")
	}
	if !got.Marked || got.Info.RFS != 5000 || !got.Info.First {
		t.Fatalf("bad marking: %+v", got.Info)
	}
}

func TestHostAcksBypassMarkerAndOrderer(t *testing.T) {
	eng, a, b, _ := hostPair(t, true)
	var got *packet.Packet
	b.Bind(4, HandlerFunc(func(p *packet.Packet) { got = p }))
	a.Send(&packet.Packet{Kind: packet.Ack, Src: 0, Dst: 1, Flow: 4, AckSeq: 100})
	eng.Run(units.Second)
	if got == nil {
		t.Fatal("ack not delivered")
	}
	if got.Marked {
		t.Fatal("ack was marked")
	}
}

func TestHostCountsReceives(t *testing.T) {
	eng, a, b, met := hostPair(t, false)
	b.SetAcceptor(func(*packet.Packet) func(*packet.Packet) { return func(*packet.Packet) {} })
	a.Send(&packet.Packet{Kind: packet.Data, Src: 0, Dst: 1, Flow: 5, PayloadLen: 100})
	a.Send(&packet.Packet{Kind: packet.Ack, Src: 0, Dst: 1, Flow: 5})
	eng.Run(units.Second)
	if met.PacketsSent != 1 || met.PacketsRecv != 1 {
		t.Fatalf("sent=%d recv=%d, want 1/1 (ACKs excluded)", met.PacketsSent, met.PacketsRecv)
	}
	if met.HopSum == 0 {
		t.Fatal("hop accounting missing")
	}
}

func TestMarkerLASDiscipline(t *testing.T) {
	cfg := DefaultMarkerConfig()
	cfg.Discipline = LAS
	m := NewMarker(cfg)
	m.StartFlow(1, 0, 5*packet.MSS)
	for i := 0; i < 5; i++ {
		p := &packet.Packet{Flow: 1, Seq: int64(i) * packet.MSS, PayloadLen: packet.MSS}
		m.Mark(p)
		if p.Info.RFS != uint32(i) {
			t.Fatalf("LAS age %d, want %d", p.Info.RFS, i)
		}
	}
}

func TestMarkerFlowIDWrapsAt8(t *testing.T) {
	m := NewMarker(DefaultMarkerConfig())
	ids := map[uint8]bool{}
	for i := 0; i < 8; i++ {
		m.StartFlow(uint64(i+1), 5, 1000)
		p := &packet.Packet{Flow: uint64(i + 1), PayloadLen: 100}
		m.Mark(p)
		ids[p.Info.FlowID] = true
	}
	if len(ids) != 8 {
		t.Fatalf("flow IDs not distinct across 8 flows: %v", ids)
	}
	// The ninth flow to the same destination reuses ID 0.
	m.StartFlow(100, 5, 1000)
	p := &packet.Packet{Flow: 100, PayloadLen: 100}
	m.Mark(p)
	if p.Info.FlowID != 0 {
		t.Fatalf("9th flow ID %d, want wraparound to 0", p.Info.FlowID)
	}
}

func TestMarkerPanicsOnUnknownFlow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("marking unregistered flow did not panic")
		}
	}()
	NewMarker(DefaultMarkerConfig()).Mark(&packet.Packet{Flow: 42})
}

func TestMarkerBoostCapsAtMaxRetx(t *testing.T) {
	m := NewMarker(DefaultMarkerConfig())
	m.StartFlow(1, 0, 100000)
	p := &packet.Packet{Flow: 1, Seq: 0, PayloadLen: packet.MSS}
	for i := 0; i < packet.MaxRetx+5; i++ {
		m.Mark(p)
	}
	if p.Info.RetCnt > packet.MaxRetx {
		t.Fatalf("retcnt %d exceeds cap %d", p.Info.RetCnt, packet.MaxRetx)
	}
}

func TestMarkerEndFlowEnablesFilterReuse(t *testing.T) {
	m := NewMarker(DefaultMarkerConfig())
	m.StartFlow(1, 0, 10*packet.MSS)
	for i := 0; i < 10; i++ {
		m.Mark(&packet.Packet{Flow: 1, Seq: int64(i) * packet.MSS, PayloadLen: packet.MSS})
	}
	m.EndFlow(1)
	// Same flow key again: first transmissions must not look like retx.
	m.StartFlow(1, 0, 10*packet.MSS)
	p := &packet.Packet{Flow: 1, Seq: 0, PayloadLen: packet.MSS}
	m.Mark(p)
	if p.Info.RetCnt != 0 {
		t.Fatalf("stale signature: retcnt %d", p.Info.RetCnt)
	}
}

// TestMarkerCountsFilterOverflows overfills a deliberately tiny duplicate
// filter: once a signature cannot be stored the marker must say so, because
// the only other symptom is a retransmission that goes unboosted.
func TestMarkerCountsFilterOverflows(t *testing.T) {
	cfg := DefaultMarkerConfig()
	cfg.FilterCapacity = 8 // two buckets, eight slots
	m := NewMarker(cfg)
	const segs = 64
	m.StartFlow(1, 0, segs*packet.MSS)
	for i := int64(0); i < segs; i++ {
		m.Mark(&packet.Packet{Flow: 1, Seq: i * packet.MSS, PayloadLen: packet.MSS})
		if i == 3 && m.FilterOverflows != 0 {
			t.Fatalf("overflow after %d signatures in an 8-slot filter", i+1)
		}
	}
	if m.FilterOverflows == 0 {
		t.Fatalf("%d signatures into 8 slots reported no overflow", segs)
	}
	// The filter holds 8 fingerprints at most, so most segments went
	// unrecorded and their retransmissions look like first transmissions.
	unboosted := 0
	for i := int64(0); i < segs; i++ {
		p := &packet.Packet{Flow: 1, Seq: i * packet.MSS, PayloadLen: packet.MSS}
		m.Mark(p)
		if p.Info.RetCnt == 0 {
			unboosted++
		}
	}
	if unboosted == 0 {
		t.Fatal("every retransmission was boosted despite the overflows")
	}
}

// TestMarkerWarmFlowAllocatesNothing pins the marker's per-segment cost in
// objects on a warm flow — flow-table hit, duplicate-filter probe, header
// stamp: once every segment has been marked once and the filter's pages
// exist, marking allocates nothing.
func TestMarkerWarmFlowAllocatesNothing(t *testing.T) {
	m := NewMarker(DefaultMarkerConfig())
	const segs = 1 << 12
	m.StartFlow(1, 0, segs*packet.MSS)
	p := &packet.Packet{Flow: 1, Kind: packet.Data, PayloadLen: packet.MSS}
	i := 0
	mark := func() {
		p.Seq = int64(i%segs) * packet.MSS
		m.Mark(p)
		i++
	}
	for i < segs {
		mark()
	}
	if avg := testing.AllocsPerRun(2*segs, mark); avg != 0 {
		t.Fatalf("marking a segment of a warm flow allocates %.3f objects, want 0", avg)
	}
	if m.FilterOverflows != 0 {
		t.Fatalf("%d filter overflows at default capacity", m.FilterOverflows)
	}
}

// TestStandaloneMarkerIsSmall: a marker built on its own — the wire marker,
// one per TX queue — holds memory for what it marks, not a shared fabric's
// worth of chunks. Two hundred markers that each mark ten segments of a
// flow must average well under the 42 KB one held when a first miss in any
// of its pools' small classes carved a full 2,048-element chunk (24 KiB of
// it behind one 8-slot duplicate-filter table).
func TestStandaloneMarkerIsSmall(t *testing.T) {
	const markers, segs, limit = 200, 10, 24 << 10
	ms := make([]*Marker, markers)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range ms {
		m := NewMarker(DefaultMarkerConfig())
		m.StartFlow(1, 0, segs*packet.MSS)
		for k := 0; k < segs; k++ {
			m.Mark(&packet.Packet{Flow: 1, Seq: int64(k) * packet.MSS, PayloadLen: packet.MSS})
		}
		ms[i] = m
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / markers
	t.Logf("%d markers hold %d B each", markers, per)
	if per > limit {
		t.Errorf("a marker that marked %d segments holds %d B, want at most %d", segs, per, limit)
	}
	runtime.KeepAlive(ms)
}
