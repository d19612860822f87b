package transport_test

import (
	"runtime"
	"testing"

	"vertigo/internal/fabric"
	"vertigo/internal/host"
	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/telemetry"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// newPoolRig is the standard rig re-wired through SenderPool/ReceiverPool,
// the configuration core.Run uses.
func newPoolRig(t *testing.T) (*rig, *transport.SenderPool, *transport.ReceiverPool) {
	t.Helper()
	return newPoolRigFor(t, transport.DCTCP)
}

func newPoolRigFor(t *testing.T, proto transport.Protocol) (*rig, *transport.SenderPool, *transport.ReceiverPool) {
	t.Helper()
	r := newRig(t, fabric.DefaultConfig(fabric.ECMP), transport.DefaultConfig(proto), false)
	rp := transport.NewReceiverPool(r.eng, r.net, r.met, r.ids)
	for _, h := range r.hosts {
		h := h
		h.SetAcceptor(func(first *packet.Packet) func(*packet.Packet) {
			return rp.Accept(h, first)
		})
	}
	return r, transport.NewSenderPool(r.cfg), rp
}

// TestPoolRecyclesConnections drives many sequential flows through pooled
// transports: every one must complete, and the pools must converge to a
// bounded population — one slab each — with zero slots leaked.
func TestPoolRecyclesConnections(t *testing.T) {
	r, sp, rp := newPoolRig(t)
	const flows = 1000
	for i := 0; i < flows; i++ {
		src, dst := i%4, (i+2)%4
		spec := transport.FlowSpec{ID: r.ids.Next(), Src: src, Dst: dst, Size: 20_000, Query: -1}
		sp.Get(r.hosts[src], r.met, r.ids, spec, nil).Start()
		r.eng.Run(r.eng.Now() + 300*units.Microsecond)
	}
	r.eng.Run(r.eng.Now() + 50*units.Millisecond)
	if got := r.met.FlowsCompleted(); got != flows {
		t.Fatalf("completed %d/%d flows", got, flows)
	}
	if sp.Live() != 0 || rp.Live() != 0 {
		t.Fatalf("leaked slots: %d senders, %d receivers still live", sp.Live(), rp.Live())
	}
	if sp.Allocated() > 256 || rp.Allocated() > 256 {
		t.Fatalf("pool grew past one slab: %d sender / %d receiver slots for %d sequential flows",
			sp.Allocated(), rp.Allocated(), flows)
	}
}

// TestPoolChurnAllocationFree pins the tentpole claim: once pools are warm,
// flow churn itself — start, transmit, complete, recycle — allocates
// (almost) nothing. The budget of ~2 allocs per flow leaves slack only for
// amortized growth of long-lived structures (event heap, metrics table),
// not per-flow sender/receiver/closure allocations, which cost 5+ each.
func TestPoolChurnAllocationFree(t *testing.T) {
	r, sp, _ := newPoolRig(t)
	flow := func(i int) {
		src, dst := i%4, (i+2)%4
		spec := transport.FlowSpec{ID: r.ids.Next(), Src: src, Dst: dst, Size: 20_000, Query: -1}
		sp.Get(r.hosts[src], r.met, r.ids, spec, nil).Start()
		r.eng.Run(r.eng.Now() + 300*units.Microsecond)
	}
	for i := 0; i < 200; i++ { // warm-up: size pools, tables, event heap
		flow(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const measured = 500
	for i := 0; i < measured; i++ {
		flow(200 + i)
	}
	runtime.ReadMemStats(&m1)
	perFlow := float64(m1.Mallocs-m0.Mallocs) / measured
	t.Logf("%d allocs over %d flows (%.3f allocs/flow)", m1.Mallocs-m0.Mallocs, measured, perFlow)
	if perFlow > 2 {
		t.Errorf("flow churn allocates %.2f objects/flow, want ~0", perFlow)
	}
}

// TestPoolRTOFollowsTheSlot: a sender's timers name its slot by number, so a
// recycled slot's RTO must act on the tenant that armed it, and the previous
// tenant's timer — cancelled when its flow completed, and due long before the
// new one — must stay inert. The second tenant's destination is unplugged, so
// the only thing that can happen to it is its own retransmission timeout.
func TestPoolRTOFollowsTheSlot(t *testing.T) {
	r, sp, _ := newPoolRig(t)
	type rtoSeen struct {
		flow uint64
		at   units.Time
	}
	var seen []rtoSeen
	transport.SetDebugRTO(func(flow uint64, _, _ int64, now, _ units.Time, _ int) {
		seen = append(seen, rtoSeen{flow, now})
	})
	defer transport.SetDebugRTO(nil)

	specA := transport.FlowSpec{ID: r.ids.Next(), Src: 0, Dst: 2, Size: 20_000, Query: -1}
	a := sp.Get(r.hosts[0], r.met, r.ids, specA, nil)
	a.Start()
	r.eng.Run(300 * units.Microsecond)
	if !a.Done() || sp.Live() != 0 {
		t.Fatalf("first tenant: done=%v, %d senders live", a.Done(), sp.Live())
	}
	// A's last RTO arming was due MinRTO (10 ms) after its last ACK: well
	// inside the second tenant's InitRTO (1 s).
	r.net.SetLinkState(r.net.Topo.HostLink[2], false)
	start := r.eng.Now()
	specB := transport.FlowSpec{ID: r.ids.Next(), Src: 0, Dst: 2, Size: 20_000, Query: -1}
	b := sp.Get(r.hosts[0], r.met, r.ids, specB, nil)
	if b != a {
		t.Fatal("second flow did not get the recycled slot")
	}
	b.Start()
	r.eng.Run(start + r.cfg.InitRTO + units.Millisecond)
	want := rtoSeen{specB.ID, start + r.cfg.InitRTO}
	if len(seen) != 1 || seen[0] != want {
		t.Fatalf("RTOs seen %+v, want exactly %+v", seen, want)
	}
	if b.Done() || r.met.RTOs != 1 {
		t.Fatalf("second tenant: done=%v with %d RTOs, want a lone timeout on a dead path", b.Done(), r.met.RTOs)
	}
}

// TestPoolPacingFollowsTheSlot is the pacing timer's half: two Swift flows
// with half-packet windows share a pool, one of them on a recycled slot.
// Each can send its second segment only when its own pacing timer fires
// (two base RTTs after the first, long after the ACK), so both finishing
// promptly — and no sooner than the pacing gap — means each timer resolved
// its own slot; one resolving the other's would leave a flow waiting for its
// one-second RTO.
func TestPoolPacingFollowsTheSlot(t *testing.T) {
	r, sp, _ := newPoolRigFor(t, transport.Swift)
	r.met.RawSeries = metrics.RawKeep // the completed records stay for Flow
	get := func(src, dst int) (*transport.Sender, uint64) {
		spec := transport.FlowSpec{ID: r.ids.Next(), Src: src, Dst: dst, Size: 6_000, Query: -1}
		return sp.Get(r.hosts[src], r.met, r.ids, spec, nil), spec.ID
	}
	a, _ := get(0, 2)
	a.Start()
	r.eng.Run(300 * units.Microsecond)
	if !a.Done() {
		t.Fatal("first tenant did not complete")
	}
	b, idB := get(0, 2)
	c, idC := get(1, 3)
	if b != a || c == a {
		t.Fatal("want one flow on the recycled slot and one on a fresh slot")
	}
	b.SetCwndForTest(0.5)
	c.SetCwndForTest(0.5)
	b.Start()
	c.Start()
	r.eng.Run(r.eng.Now() + 5*units.Millisecond)
	if !b.Done() || !c.Done() || r.met.RTOs != 0 {
		t.Fatalf("paced flows: done=%v,%v with %d RTOs", b.Done(), c.Done(), r.met.RTOs)
	}
	const gap = 50 * units.Microsecond // 25 µs default RTT / cwnd 0.5
	for _, id := range []uint64{idB, idC} {
		if fct := r.met.Flow(id).FCT(); fct < gap {
			t.Errorf("flow %d finished in %v, under one pacing gap: its second segment was not paced", id, fct)
		}
	}
}

// TestPoolStragglerAck exercises the fin-handler path: a data packet for an
// already-completed flow must still be ACKed with full coverage so the
// sender can finish, and must not double-count goodput.
func TestPoolStragglerAck(t *testing.T) {
	// Tiny buffer forces drops, so some flows complete at the receiver while
	// the sender still retransmits into the fin handler.
	fcfg := fabric.DefaultConfig(fabric.ECMP)
	fcfg.BufferBytes = 5 * 1500
	fcfg.ECNThreshold = 0
	r := newRig(t, fcfg, transport.DefaultConfig(transport.Reno), false)
	rp := transport.NewReceiverPool(r.eng, r.net, r.met, r.ids)
	for _, h := range r.hosts {
		h := h
		h.SetAcceptor(func(first *packet.Packet) func(*packet.Packet) {
			return rp.Accept(h, first)
		})
	}
	sp := transport.NewSenderPool(r.cfg)
	const size = 400_000
	s1 := sp.Get(r.hosts[2], r.met, r.ids, transport.FlowSpec{ID: r.ids.Next(), Src: 2, Dst: 0, Size: size, Query: -1}, nil)
	s2 := sp.Get(r.hosts[3], r.met, r.ids, transport.FlowSpec{ID: r.ids.Next(), Src: 3, Dst: 0, Size: size, Query: -1}, nil)
	s1.Start()
	s2.Start()
	r.eng.Run(30 * units.Second)
	if !s1.Done() || !s2.Done() {
		t.Fatalf("senders incomplete under loss (drops=%d)", r.met.TotalDrops())
	}
	if r.met.TotalDrops() == 0 {
		t.Fatal("scenario produced no drops; straggler path not exercised")
	}
	if r.met.BytesGoodput != 2*size {
		t.Fatalf("goodput %d, want %d (stragglers double-counted?)", r.met.BytesGoodput, 2*size)
	}
	if sp.Live() != 0 || rp.Live() != 0 {
		t.Fatalf("slots leaked after recovery: %d senders, %d receivers", sp.Live(), rp.Live())
	}
}

// ackTap records every ACK of one flow as its sender hands it to the fabric.
type ackTap struct {
	flow uint64
	acks []packet.Packet
}

func (a *ackTap) Enqueue(sw, port int, p *packet.Packet, occ units.ByteSize) {
	if p.Kind == packet.Ack && p.Flow == a.flow {
		a.acks = append(a.acks, *p)
	}
}
func (a *ackTap) Transmit(int, int, *packet.Packet, units.Time, units.ByteSize) {}
func (a *ackTap) Deflect(int, int, int, *packet.Packet)                         {}
func (a *ackTap) Drop(int, int, *packet.Packet, metrics.DropReason)             {}
func (a *ackTap) Deliver(int, *packet.Packet)                                   {}
func (a *ackTap) Fault(telemetry.FaultEvent)                                    {}

// TestRetiredStragglerGetsFinAck: a pooled receiver that finishes retires its
// flow — the binding goes, a bit stays — and a data straggler of the flow
// still gets the pool's fin handler's ACK, field for field what the handler
// sends when handed the packet itself, and counts as one reordered packet.
// A flow ID never seen still reaches the acceptor.
func TestRetiredStragglerGetsFinAck(t *testing.T) {
	r, sp, rp := newPoolRig(t)
	spec := transport.FlowSpec{ID: r.ids.Next(), Src: 0, Dst: 2, Size: 20_000, Query: -1}
	tap := &ackTap{flow: spec.ID}
	r.net.AddObserver(tap)
	sp.Get(r.hosts[0], r.met, r.ids, spec, nil).Start()
	r.eng.Run(5 * units.Millisecond)
	if r.met.FlowsCompleted() != 1 || sp.Live() != 0 || rp.Live() != 0 {
		t.Fatalf("flow not done: %d completed, %d senders and %d receivers live", r.met.FlowsCompleted(), sp.Live(), rp.Live())
	}
	if fp := host.FootprintOf(r.net); fp.Handlers != 0 || fp.RetiredPages != 1 {
		t.Fatalf("after the flow: %d handlers bound, %d retired pages; want none and one", fp.Handlers, fp.RetiredPages)
	}

	straggler := func() *packet.Packet {
		p := r.net.Pool().Get()
		*p = packet.Packet{
			ID: r.ids.Next(), Kind: packet.Data, Src: 0, Dst: 2, Flow: spec.ID,
			Seq: 2 * packet.MSS, PayloadLen: packet.MSS, FlowSize: spec.Size,
			ECNCapable: true, CE: true, Incast: true, Hops: 3,
			TxAt: r.eng.Now() - 4*units.Microsecond,
		}
		return p
	}
	tap.acks = nil
	reorder, goodput := r.met.ReorderPkts, r.met.BytesGoodput
	r.hosts[2].Receive(straggler()) // stamps RxAt = now, then dispatches
	if len(tap.acks) != 1 || r.met.ReorderPkts != reorder+1 || r.met.BytesGoodput != goodput {
		t.Fatalf("the retired flow's straggler drew %d ACKs, %d reorders, %d goodput bytes; want 1, 1, 0",
			len(tap.acks), r.met.ReorderPkts-reorder, r.met.BytesGoodput-goodput)
	}
	direct := straggler()
	direct.RxAt = r.eng.Now()
	rp.FinForTest().Handle(direct)
	if len(tap.acks) != 2 || r.met.ReorderPkts != reorder+2 {
		t.Fatalf("the fin handler sent %d ACKs", len(tap.acks)-1)
	}
	got, want := tap.acks[0], tap.acks[1]
	if want.ID <= got.ID {
		t.Fatalf("ACK IDs %d then %d: not freshly minted", got.ID, want.ID)
	}
	got.ID = want.ID
	if got != want {
		t.Fatalf("the retired flow's straggler got\n %+v\nthe fin handler sends\n %+v", got, want)
	}
	if got.AckSeq != spec.Size || got.Src != 2 || got.Dst != 0 || !got.ECE || got.EchoHops != 3 || !got.Incast {
		t.Fatalf("fin ACK %+v does not cover the flow or echo the straggler", got)
	}

	// A flow ID no receiver ever saw is a new flow.
	fresh := straggler()
	fresh.Flow, fresh.Seq, fresh.FlowSize = r.ids.Next(), 0, 2*packet.MSS
	tap.flow = fresh.Flow
	r.hosts[2].Receive(fresh)
	if rp.Live() != 1 || len(tap.acks) != 3 || tap.acks[2].AckSeq != packet.MSS {
		t.Fatalf("a never-seen flow: %d receivers live, ACKs %+v; want one accepted and acking its first segment", rp.Live(), tap.acks[2:])
	}
}
