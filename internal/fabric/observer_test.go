package fabric

import (
	"runtime"
	"testing"

	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/telemetry"
	"vertigo/internal/topo"
	"vertigo/internal/units"
)

// nopObserver is a probe that does nothing: it isolates the cost of the
// fabric's observer dispatch from any probe's own work.
type nopObserver struct{ events int64 }

func (o *nopObserver) Enqueue(sw, port int, p *packet.Packet, occ units.ByteSize) { o.events++ }
func (o *nopObserver) Transmit(sw, port int, p *packet.Packet, busy units.Time, occ units.ByteSize) {
	o.events++
}
func (o *nopObserver) Deflect(sw, fromPort, toPort int, p *packet.Packet) { o.events++ }
func (o *nopObserver) Drop(sw, port int, p *packet.Packet, reason metrics.DropReason) {
	o.events++
}
func (o *nopObserver) Deliver(host int, p *packet.Packet) { o.events++ }

// observerRig is a 2-spine/2-leaf fabric whose receivers recycle every
// delivered packet, so the steady-state send path allocates nothing and
// observer overhead is the only variable.
func observerRig(tb testing.TB, attach func(n *Network)) (*sim.Engine, *Network, func(i int)) {
	tb.Helper()
	tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
		Spines: 2, Leaves: 2, HostsPerLeaf: 2,
		HostRate: 10 * units.Gbps, FabricRate: 40 * units.Gbps,
		LinkDelay: 500 * units.Nanosecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	eng := sim.NewEngine(1)
	met := metrics.NewCollector()
	net := New(eng, tp, met, DefaultConfig(Vertigo))
	for h := 0; h < tp.NumHosts; h++ {
		net.RegisterHost(h, recvFunc(func(p *packet.Packet) { net.Pool().Put(p) }))
	}
	if attach != nil {
		attach(net)
	}
	var ids packet.IDGen
	send := func(i int) {
		p := net.Pool().Get()
		*p = packet.Packet{
			ID: ids.Next(), Kind: packet.Data,
			Src: i % 2, Dst: 2 + i%2, Flow: uint64(i%8 + 1),
			PayloadLen: packet.MSS, Marked: true,
			Info: packet.FlowInfo{RFS: uint32(i%1000 + 1)},
		}
		net.Send(p)
		if i%64 == 63 {
			eng.Run(eng.Now() + 100*units.Microsecond)
		}
	}
	// Warm-up: size the packet pool, event free list, queues and in-flight
	// rings so the measured region is steady state.
	for i := 0; i < 4096; i++ {
		send(i)
	}
	eng.Run(eng.Now() + units.Second)
	return eng, net, send
}

// TestObserverNilPathAllocFree pins the PR-1 allocation wins: with no
// observer attached, the per-event observer check is a nil comparison and
// the steady-state dataplane allocates nothing.
func TestObserverNilPathAllocFree(t *testing.T) {
	eng, _, send := observerRig(t, nil)
	i := 4096
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const pkts = 64 * 200
	for n := 0; n < pkts; n++ {
		send(i)
		i++
	}
	eng.Run(eng.Now() + units.Second)
	runtime.ReadMemStats(&m1)
	perPkt := float64(m1.Mallocs-m0.Mallocs) / float64(pkts)
	t.Logf("%d packets, %d allocs (%.4f allocs/pkt)", pkts, m1.Mallocs-m0.Mallocs, perPkt)
	if perPkt > 0.01 {
		t.Errorf("nil-observer dataplane allocates %.4f objects/packet, want 0", perPkt)
	}
}

// TestMultiObserverAllocFree extends the same guarantee to the fan-out
// path: attaching probes must cost allocations only at attach time.
func TestMultiObserverAllocFree(t *testing.T) {
	probes := [3]nopObserver{}
	eng, net, send := observerRig(t, func(n *Network) {
		for i := range probes {
			n.AddObserver(&probes[i])
		}
	})
	if m, ok := net.Observer().(*telemetry.Multi); !ok || m.Len() != 3 {
		t.Fatalf("observer %T, want *telemetry.Multi with 3 probes", net.Observer())
	}
	i := 4096
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const pkts = 64 * 200
	for n := 0; n < pkts; n++ {
		send(i)
		i++
	}
	eng.Run(eng.Now() + units.Second)
	runtime.ReadMemStats(&m1)
	perPkt := float64(m1.Mallocs-m0.Mallocs) / float64(pkts)
	t.Logf("%d packets, %d allocs (%.4f allocs/pkt)", pkts, m1.Mallocs-m0.Mallocs, perPkt)
	if perPkt > 0.01 {
		t.Errorf("3-probe fan-out allocates %.4f objects/packet, want 0", perPkt)
	}
	if probes[0].events == 0 || probes[0].events != probes[2].events {
		t.Errorf("probes saw %d/%d/%d events, want equal and nonzero",
			probes[0].events, probes[1].events, probes[2].events)
	}
}

func TestAddObserverComposition(t *testing.T) {
	_, net, _ := observerRig(t, nil)
	if net.Observer() != nil {
		t.Fatal("fresh network has an observer")
	}
	net.AddObserver(nil)
	if net.Observer() != nil {
		t.Fatal("AddObserver(nil) attached something")
	}
	a, b, c := &nopObserver{}, &nopObserver{}, &nopObserver{}
	net.AddObserver(a)
	if net.Observer() != Observer(a) {
		t.Fatal("single observer should attach directly, not via a mux")
	}
	net.AddObserver(b)
	m, ok := net.Observer().(*telemetry.Multi)
	if !ok || m.Len() != 2 {
		t.Fatalf("two observers: got %T", net.Observer())
	}
	net.AddObserver(c)
	if m2, ok := net.Observer().(*telemetry.Multi); !ok || m2.Len() != 3 || m2 != m {
		t.Fatal("third observer should extend the existing mux in place")
	}
	net.AddObserver(nil)
	if m2, ok := net.Observer().(*telemetry.Multi); !ok || m2.Len() != 3 {
		t.Fatal("AddObserver(nil) on a mux should leave its three probes attached")
	}
}

// benchObserver measures dataplane throughput with b.ReportAllocs, so the
// benchmark doubles as the allocs/op regression signal: the nil path must
// report 0 allocs/op.
func benchObserver(b *testing.B, attach func(n *Network)) {
	eng, _, send := observerRig(b, attach)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(4096 + i)
	}
	eng.Run(eng.Now() + units.Second)
}

func BenchmarkObserverOverhead(b *testing.B) {
	b.Run("nil", func(b *testing.B) { benchObserver(b, nil) })
	b.Run("single", func(b *testing.B) {
		var p nopObserver
		benchObserver(b, func(n *Network) { n.AddObserver(&p) })
	})
	b.Run("multi3", func(b *testing.B) {
		var ps [3]nopObserver
		benchObserver(b, func(n *Network) {
			for i := range ps {
				n.AddObserver(&ps[i])
			}
		})
	})
	b.Run("monitor", func(b *testing.B) {
		benchObserver(b, func(n *Network) {
			n.AddObserver(telemetry.NewMonitor(n.Eng, telemetry.Config{}))
		})
	})
}
