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
// network keep their flow state in that network's directory, keyed by flow.
// One flow's two ends are two entries — the sender's, which takes its ACKs,
// and the receiver's, which takes its data and holds its ordering state — and
// ActiveFlows stays a per-host count. A slot one host's flow vacates goes to
// whichever host registers a flow next, and a τ timer fires on the orderer
// that armed it.
func TestHostsShareOneDirectoryAndKeepTheirOwnCounts(t *testing.T) {
	eng, a, b, _ := hostPair(t, true)
	dir := directoryOf(a.Net)
	if directoryOf(b.Net) != dir || a.dir != dir || b.Marker.dir != dir || b.Orderer.dir != dir {
		t.Fatal("two hosts of one network do not share its directory")
	}
	tau := DefaultOrdererConfig().Timeout

	// Flow 7 from host 0 to host 1: host 0 binds it for its ACKs, host 1
	// accepts it and acknowledges each segment.
	var acks, data int
	a.Marker.StartFlow(7, 1, 2*packet.MSS)
	a.Bind(7, HandlerFunc(func(p *packet.Packet) {
		if p.Kind == packet.Ack {
			acks++
		}
	}))
	b.SetAcceptor(func(*packet.Packet) func(*packet.Packet) {
		return func(p *packet.Packet) {
			if p.Kind == packet.Data {
				data++
			}
			b.Send(&packet.Packet{Kind: packet.Ack, Src: 1, Dst: 0, Flow: p.Flow, AckSeq: p.End()})
		}
	})
	for seq := int64(0); seq < 2*packet.MSS; seq += packet.MSS {
		a.Send(&packet.Packet{Kind: packet.Data, Src: 0, Dst: 1, Flow: 7, Seq: seq, PayloadLen: packet.MSS, FlowSize: 2 * packet.MSS})
	}
	eng.Run(eng.Now() + 10*units.Microsecond)
	if data != 2 || acks != 2 || dir.senders.Len() != 1 || dir.receivers.Len() != 1 {
		t.Fatalf("flow 7: receiver got %d segments, sender %d ACKs; %d sender and %d receiver entries; want 2, 2, 1 and 1",
			data, acks, dir.senders.Len(), dir.receivers.Len())
	}

	// Counts stay per host, and epochs per (source, destination).
	a.Marker.StartFlow(8, 5, packet.MSS)
	b.Marker.StartFlow(9, 5, packet.MSS)
	b.Marker.StartFlow(10, 5, packet.MSS)
	if a.Marker.ActiveFlows() != 2 || b.Marker.ActiveFlows() != 2 || dir.senders.Len() != 4 {
		t.Fatalf("markers count %d and %d flows, the directory %d senders; want 2, 2 and 4",
			a.Marker.ActiveFlows(), b.Marker.ActiveFlows(), dir.senders.Len())
	}
	if n := dir.footprint().OrderSlots; a.Orderer.ActiveFlows() != 0 || b.Orderer.ActiveFlows() != 1 || n != 1 {
		t.Fatalf("orderers count %d and %d flows, the directory %d; want flow 7's tombstone at host 1 alone",
			a.Orderer.ActiveFlows(), b.Orderer.ActiveFlows(), n)
	}
	for _, c := range []struct {
		m    *Marker
		flow uint64
		want uint8
	}{{a.Marker, 8, 0}, {b.Marker, 9, 0}, {b.Marker, 10, 1}} {
		p := &packet.Packet{Kind: packet.Data, Flow: c.flow, PayloadLen: packet.MSS}
		c.m.Mark(p)
		if p.Info.FlowID != c.want {
			t.Errorf("flow %d toward host 5 carries epoch %d, want %d", c.flow, p.Info.FlowID, c.want)
		}
	}

	// Host 0's flow 7 ends — the binding first, then the marking state — and
	// host 1's next flow takes the slot it vacates.
	s7 := dir.senders.Get(7)
	a.Unbind(7)
	if dir.senders.Get(7) != s7 || a.Marker.ActiveFlows() != 2 {
		t.Fatal("unbinding flow 7 dropped its marking state")
	}
	a.Marker.EndFlow(7)
	a.Marker.EndFlow(7) // ending an unknown flow counts nothing
	b.Marker.StartFlow(11, 5, packet.MSS)
	if dir.senders.Get(7) != nil || dir.senders.Get(11) != s7 || a.Marker.ActiveFlows() != 1 || b.Marker.ActiveFlows() != 3 {
		t.Fatalf("after host 0 ended flow 7: %d and %d flows; host 1's flow 11 in slot %p, want %p",
			a.Marker.ActiveFlows(), b.Marker.ActiveFlows(), dir.senders.Get(11), s7)
	}

	// Host 1's tombstone of flow 7 is reclaimed while its receiver stays
	// bound; once host 1 retires the flow too, host 0's next ordered flow
	// takes the slot.
	r7 := dir.receivers.Get(7)
	eng.Run(eng.Now() + 2*tau)
	if dir.order(7) != nil || dir.receivers.Get(7) != r7 || b.Orderer.ActiveFlows() != 0 {
		t.Fatalf("flow 7's tombstone outlived τ, or took the bound slot with it: %d flows at host 1", b.Orderer.ActiveFlows())
	}
	b.Retire(7, HandlerFunc(func(*packet.Packet) {}))
	var gotA, gotB int
	a.Orderer.deliver = func(*packet.Packet) { gotA++ }
	b.Orderer.deliver = func(*packet.Packet) { gotB++ }
	a.Orderer.Receive(mkFlow(21, 2)[1])
	if dir.receivers.Get(21) != r7 || a.Orderer.ActiveFlows() != 1 {
		t.Fatal("host 0's new flow did not take the slot host 1 vacated")
	}

	// Each host holds a reordered flow; each τ timer fires on its own host.
	b.Orderer.Receive(mkFlow(22, 3)[2])
	b.Orderer.Receive(mkFlow(22, 3)[1])
	eng.Run(eng.Now() + 2*tau)
	if gotA != 1 || gotB != 2 || a.Orderer.Timeouts != 1 || b.Orderer.Timeouts != 1 {
		t.Fatalf("held packets: delivered %d at host 0 and %d at host 1, timeouts %d and %d; want 1, 2, 1 and 1",
			gotA, gotB, a.Orderer.Timeouts, b.Orderer.Timeouts)
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
	if dir.senders.Len()+dir.receivers.Len()+dir.epochs.Len() != 0 || len(dir.orderers) != tp.NumHosts {
		t.Errorf("idle hosts left entries in the directory, or %d of %d orderers registered", len(dir.orderers), tp.NumHosts)
	}
}

// TestReceiveSlotLifecycle: a flow's receive end is one slot with two halves
// that live apart — the receiver's binding, from the acceptor to Host.Retire,
// and the ordering state, from the orderer's first sight of the flow to the
// reclaim of its tombstone τ after it finished, or on, stranded, once a
// straggler past τ re-creates it. The slot goes when both halves have gone,
// and not before: a Retire that took a tombstone's slot would hold the next
// straggler as a new flow's, and a reclaim that took a bound slot would
// accept the flow's next segment again. Each script drives flow 7 through one
// order of those events and checks, after each step, the slot and what the
// directory's Footprint reports, on a Vertigo host, on a host without the
// stack, and on an orderer built on its own.
func TestReceiveSlotLifecycle(t *testing.T) {
	type want struct {
		slot               bool
		handlers, orders   int
		accepts, recv, fin int
		held               int64
	}
	type step struct {
		do string // "seg1" or "seg2" (a segment arrives), "retire", or "tau" (time passes τ)
		want
	}
	const flow = 7
	tau := DefaultOrdererConfig().Timeout
	for _, tc := range []struct {
		name  string
		stack string // "vertigo", "plain" or "orderer"
		steps []step
	}{
		{"held first, retired, then reclaimed", "vertigo", []step{
			{"seg2", want{slot: true, orders: 1, held: 1}},
			{"seg1", want{true, 1, 1, 1, 2, 0, 1}},   // accepted; the flow finishes
			{"retire", want{true, 0, 1, 1, 2, 0, 1}}, // the tombstone keeps the slot
			{"seg2", want{true, 0, 1, 1, 2, 1, 1}},   // a straggler passes the tombstone to fin
			{"tau", want{false, 0, 0, 1, 2, 1, 1}},   // reclaimed: both halves gone
			{"seg1", want{true, 0, 1, 1, 2, 2, 1}},   // past τ: a stranded in-order state
		}},
		{"in order, reclaimed, then retired", "vertigo", []step{
			{"seg1", want{true, 1, 1, 1, 1, 0, 0}},
			{"seg2", want{true, 1, 1, 1, 2, 0, 0}},
			{"tau", want{true, 1, 0, 1, 2, 0, 0}},    // the binding keeps the slot
			{"seg1", want{true, 1, 1, 1, 3, 0, 0}},   // past τ: to the bound receiver, not the acceptor
			{"retire", want{true, 0, 1, 1, 3, 0, 0}}, // stranded
		}},
		{"reclaimed and retired, then a held straggler", "vertigo", []step{
			{"seg1", want{true, 1, 1, 1, 1, 0, 0}},
			{"seg2", want{true, 1, 1, 1, 2, 0, 0}},
			{"tau", want{true, 1, 0, 1, 2, 0, 0}},
			{"retire", want{false, 0, 0, 1, 2, 0, 0}},
			{"seg2", want{true, 0, 1, 1, 2, 0, 1}}, // past τ: held as a new flow's
			{"tau", want{true, 0, 1, 1, 2, 1, 1}},  // released to fin: a tombstone again
			{"tau", want{false, 0, 0, 1, 2, 1, 1}},
		}},
		{"no Vertigo stack", "plain", []step{
			{"seg1", want{true, 1, 0, 1, 1, 0, 0}},
			{"seg2", want{true, 1, 0, 1, 2, 0, 0}},
			{"retire", want{false, 0, 0, 1, 2, 0, 0}},
			{"seg1", want{false, 0, 0, 1, 2, 1, 0}},
		}},
		{"stand-alone orderer", "orderer", []step{
			{"seg2", want{slot: true, orders: 1, held: 1}},
			{"seg1", want{true, 0, 1, 0, 2, 0, 1}},
			{"seg2", want{true, 0, 1, 0, 3, 0, 1}}, // passes the tombstone
			{"tau", want{false, 0, 0, 0, 3, 0, 1}},
			{"seg1", want{true, 0, 1, 0, 4, 0, 1}}, // past τ: stranded
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got want
			var eng *sim.Engine
			var dir *directory
			var o *Orderer
			var receive func(*packet.Packet)
			var b *Host
			if tc.stack == "orderer" {
				eng = sim.NewEngine(1)
				o = NewOrderer(eng, DefaultOrdererConfig(), func(*packet.Packet) { got.recv++ })
				dir, receive = o.dir, o.Receive
			} else {
				eng, _, b, _ = hostPair(t, tc.stack == "vertigo")
				dir, receive, o = b.dir, b.Receive, b.Orderer
				b.SetAcceptor(func(*packet.Packet) func(*packet.Packet) {
					got.accepts++
					return func(*packet.Packet) { got.recv++ }
				})
			}
			fin := HandlerFunc(func(*packet.Packet) { got.fin++ })
			for i, s := range tc.steps {
				switch s.do {
				case "seg1", "seg2":
					receive(mkFlow(flow, 2)[s.do[3]-'1'])
				case "retire":
					b.Retire(flow, fin)
				case "tau":
					eng.Run(eng.Now() + tau)
				}
				fp, active := dir.footprint(), 0
				got.slot, got.handlers, got.orders = dir.receivers.Get(flow) != nil, fp.Handlers, fp.OrderSlots
				if o != nil {
					got.held, active = o.Held, o.ActiveFlows()
				}
				if got != s.want || fp.RecvSlots != dir.receivers.Len() || active != fp.OrderSlots {
					t.Errorf("step %d (%s): %+v, %d slots, %d flows at the orderer; want %+v",
						i, s.do, got, fp.RecvSlots, active, s.want)
				}
			}
		})
	}
}
