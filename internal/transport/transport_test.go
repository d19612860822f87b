package transport_test

import (
	"testing"

	"vertigo/internal/fabric"
	"vertigo/internal/host"
	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// rig is a minimal full-stack harness: a 2-leaf/2-spine fabric with four
// hosts, transports wired through the host layer.
type rig struct {
	eng   *sim.Engine
	met   *metrics.Collector
	net   *fabric.Network
	hosts []*host.Host
	ids   *packet.IDGen
	cfg   transport.Config
}

func newRig(t *testing.T, fcfg fabric.Config, tcfg transport.Config, vertigoStack bool) *rig {
	t.Helper()
	tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
		Spines: 2, Leaves: 2, HostsPerLeaf: 2,
		HostRate: 10 * units.Gbps, FabricRate: 40 * units.Gbps,
		LinkDelay: 500 * units.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{
		eng: sim.NewEngine(1),
		met: metrics.NewCollector(),
		ids: &packet.IDGen{},
		cfg: tcfg,
	}
	r.net = fabric.New(r.eng, tp, r.met, fcfg)
	for i := 0; i < tp.NumHosts; i++ {
		h := host.NewHost(i, r.eng, r.net, r.met,
			host.DefaultMarkerConfig(), host.DefaultOrdererConfig(), vertigoStack)
		h.SetAcceptor(func(first *packet.Packet) func(*packet.Packet) {
			return transport.NewReceiver(h, r.met, r.ids, first)
		})
		r.hosts = append(r.hosts, h)
	}
	return r
}

func (r *rig) flow(src, dst int, size int64) *transport.Sender {
	spec := transport.FlowSpec{ID: r.ids.Next(), Src: src, Dst: dst, Size: size, Query: -1}
	s := transport.NewSender(r.hosts[src], r.met, r.cfg, r.ids, spec, nil)
	s.Start()
	return s
}

func TestSingleFlowCompletes(t *testing.T) {
	for _, proto := range []transport.Protocol{transport.Reno, transport.DCTCP, transport.Swift} {
		r := newRig(t, fabric.DefaultConfig(fabric.ECMP), transport.DefaultConfig(proto), false)
		r.met.RawSeries = metrics.RawKeep // the completed record stays for Flow
		const size = 1_000_000
		s := r.flow(0, 2, size)
		r.eng.Run(units.Second)
		if !s.Done() {
			t.Fatalf("%v: flow not acknowledged", proto)
		}
		f := r.met.Flow(1)
		if f == nil || !f.Completed {
			t.Fatalf("%v: flow not completed at receiver", proto)
		}
		if r.met.BytesGoodput != size {
			t.Fatalf("%v: goodput %d bytes, want %d", proto, r.met.BytesGoodput, size)
		}
		// 1 MB at 10 Gb/s is 800 µs minimum; allow slow start overhead.
		if fct := f.FCT(); fct < 800*units.Microsecond || fct > 20*units.Millisecond {
			t.Errorf("%v: FCT %v outside sane range", proto, fct)
		}
	}
}

func TestTinyFlowSinglePacket(t *testing.T) {
	r := newRig(t, fabric.DefaultConfig(fabric.ECMP), transport.DefaultConfig(transport.DCTCP), false)
	s := r.flow(0, 1, 100)
	r.eng.Run(units.Second)
	if !s.Done() || r.met.BytesGoodput != 100 {
		t.Fatalf("tiny flow: done=%v goodput=%d", s.Done(), r.met.BytesGoodput)
	}
	if r.met.Retransmits != 0 {
		t.Fatalf("tiny flow retransmitted %d times", r.met.Retransmits)
	}
}

func TestLossRecovery(t *testing.T) {
	for _, proto := range []transport.Protocol{transport.Reno, transport.DCTCP, transport.Swift} {
		fcfg := fabric.DefaultConfig(fabric.ECMP)
		fcfg.BufferBytes = 5 * 1500 // tiny buffer: guaranteed drops
		fcfg.ECNThreshold = 0
		r := newRig(t, fcfg, transport.DefaultConfig(proto), false)
		// Two senders overload host 0's downlink.
		s1 := r.flow(2, 0, 400_000)
		s2 := r.flow(3, 0, 400_000)
		r.eng.Run(30 * units.Second)
		if r.met.TotalDrops() == 0 {
			t.Fatalf("%v: scenario produced no drops", proto)
		}
		if !s1.Done() || !s2.Done() {
			t.Fatalf("%v: flows not recovered after loss (done=%v,%v drops=%d rto=%d)",
				proto, s1.Done(), s2.Done(), r.met.TotalDrops(), r.met.RTOs)
		}
		if r.met.Retransmits == 0 {
			t.Fatalf("%v: no retransmissions despite drops", proto)
		}
	}
}

func TestFastRetransmitPreferredOverRTO(t *testing.T) {
	// Steady-state Reno sawtooth over a normal buffer: overflow losses land
	// mid-window, so duplicate ACKs (not RTOs) must drive most recoveries.
	fcfg := fabric.DefaultConfig(fabric.ECMP)
	fcfg.ECNThreshold = 0
	tcfg := transport.DefaultConfig(transport.Reno)
	r := newRig(t, fcfg, tcfg, false)
	r.flow(2, 0, 5_000_000)
	r.flow(3, 0, 5_000_000)
	r.eng.Run(60 * units.Second)
	if r.met.TotalDrops() == 0 {
		t.Fatal("no drops: scenario does not exercise recovery")
	}
	if r.met.FastRetx == 0 {
		t.Fatalf("no fast retransmissions (drops=%d rtos=%d)", r.met.TotalDrops(), r.met.RTOs)
	}
	if r.met.FastRetx < r.met.RTOs {
		t.Errorf("fast retransmissions (%d) rarer than RTOs (%d) in steady state",
			r.met.FastRetx, r.met.RTOs)
	}
}

func TestFastRetransmitDisabledFallsBackToRTO(t *testing.T) {
	fcfg := fabric.DefaultConfig(fabric.ECMP)
	fcfg.BufferBytes = 8 * 1500
	fcfg.ECNThreshold = 0
	tcfg := transport.DefaultConfig(transport.Reno)
	tcfg.FastRetransmit = false
	r := newRig(t, fcfg, tcfg, false)
	s1 := r.flow(2, 0, 300_000)
	s2 := r.flow(3, 0, 300_000)
	r.eng.Run(60 * units.Second)
	if r.met.FastRetx != 0 {
		t.Fatal("fast retransmit fired while disabled")
	}
	if r.met.RTOs == 0 {
		t.Fatal("no RTOs despite drops and disabled fast retransmit")
	}
	if !s1.Done() || !s2.Done() {
		t.Fatal("flows did not recover via RTO")
	}
}

func TestDCTCPKeepsQueuesShorterThanReno(t *testing.T) {
	run := func(proto transport.Protocol) int64 {
		fcfg := fabric.DefaultConfig(fabric.ECMP)
		r := newRig(t, fcfg, transport.DefaultConfig(proto), false)
		s1 := r.flow(2, 0, 3_000_000)
		s2 := r.flow(3, 0, 3_000_000)
		r.eng.Run(60 * units.Second)
		if !s1.Done() || !s2.Done() {
			t.Fatalf("%v: flows incomplete", proto)
		}
		return r.met.TotalDrops()
	}
	renoDrops := run(transport.Reno)
	dctcpDrops := run(transport.DCTCP)
	if dctcpDrops >= renoDrops {
		t.Errorf("DCTCP drops %d not below Reno drops %d", dctcpDrops, renoDrops)
	}
	if renoDrops == 0 {
		t.Error("Reno never filled the 300KB buffer with 2x10G into 10G")
	}
}

func TestSwiftThrottlesUnderFanIn(t *testing.T) {
	// 3:1 fan-in: Swift must shrink windows below the initial 10 to hold its
	// delay target (fractional sub-packet windows need far larger fan-in,
	// exercised by the incast experiments).
	fcfg := fabric.DefaultConfig(fabric.ECMP)
	r := newRig(t, fcfg, transport.DefaultConfig(transport.Swift), false)
	senders := []*transport.Sender{
		r.flow(1, 0, 2_000_000),
		r.flow(2, 0, 2_000_000),
		r.flow(3, 0, 2_000_000),
	}
	r.eng.Run(2 * units.Millisecond) // mid-flight
	below := 0
	for _, s := range senders {
		if s.Cwnd() < 10 { // throttled below the initial window
			below++
		}
	}
	if below == 0 {
		t.Error("no Swift sender throttled under 3:1 fan-in")
	}
	r.eng.Run(60 * units.Second)
	for i, s := range senders {
		if !s.Done() {
			t.Errorf("sender %d incomplete", i)
		}
	}
}

func TestVertigoStackEndToEnd(t *testing.T) {
	// Full Vertigo: marked packets, sorted queues, ordering layer.
	r := newRig(t, fabric.DefaultConfig(fabric.Vertigo), transport.DefaultConfig(transport.DCTCP), true)
	s1 := r.flow(1, 0, 500_000)
	s2 := r.flow(2, 0, 500_000)
	s3 := r.flow(3, 0, 500_000)
	r.eng.Run(30 * units.Second)
	if !s1.Done() || !s2.Done() || !s3.Done() {
		t.Fatal("flows incomplete under Vertigo stack")
	}
	if r.met.BytesGoodput != 1_500_000 {
		t.Fatalf("goodput %d, want 1500000", r.met.BytesGoodput)
	}
	if r.met.ReorderPkts != 0 && r.met.TotalDrops() == 0 && r.met.OrderTimeout == 0 {
		t.Errorf("transport reordering (%d pkts) without loss or ordering timeout", r.met.ReorderPkts)
	}
}

func TestReorderDetection(t *testing.T) {
	// DRILL's per-packet spraying across 2 uplinks reorders flows; the
	// bare stack (no ordering layer) must count it.
	fcfg := fabric.DefaultConfig(fabric.DRILL)
	r := newRig(t, fcfg, transport.DefaultConfig(transport.DCTCP), false)
	r.flow(0, 2, 2_000_000)
	r.flow(1, 3, 2_000_000)
	r.eng.Run(30 * units.Second)
	// Not asserting a count: spraying only reorders when queue depths
	// diverge. Just ensure the counter is wired (either zero or positive,
	// never panics) and flows completed.
	if r.met.BytesGoodput != 4_000_000 {
		t.Fatalf("goodput %d, want 4000000", r.met.BytesGoodput)
	}
}

func TestParseProtocol(t *testing.T) {
	for name, want := range map[string]transport.Protocol{
		"tcp": transport.Reno, "reno": transport.Reno,
		"dctcp": transport.DCTCP, "swift": transport.Swift,
	} {
		got, err := transport.ParseProtocol(name)
		if err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := transport.ParseProtocol("quic"); err == nil {
		t.Error("unknown protocol accepted")
	}
}
