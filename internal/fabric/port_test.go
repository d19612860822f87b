package fabric

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/topo"
	"vertigo/internal/units"
)

// TestPortLayout pins the port slab's geometry: a port is three cache lines —
// what it reads only under a fault or across a domain boundary lives in the
// cold table beside the slab — a slab big enough for it to matter (past
// the allocator's 32 KiB small-object classes, whose arrays start behind an
// 8-byte header) starts on one, and every switch's ports and the NICs are
// windows of it in index order.
func TestPortLayout(t *testing.T) {
	if n := unsafe.Sizeof(Port{}); n != 192 {
		t.Errorf("Port is %d bytes, want 192", n)
	}

	tp, err := topo.NewFatTree(topo.FatTreeConfig{K: 8, Rate: 10 * units.Gbps, LinkDelay: 500 * units.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	net := New(sim.NewEngine(1), tp, metrics.NewCollector(), DefaultConfig(Vertigo))
	if a := uintptr(unsafe.Pointer(&net.ports[0])); a%64 != 0 {
		t.Errorf("port slab starts at %#x, not on a cache line", a)
	}
	slot := 0
	for sw := 0; sw < net.Topo.NumSwitches; sw++ {
		for i := 0; i < net.Topo.Ports(sw); i++ {
			if pt := net.Switch(sw).Port(i); pt != &net.ports[slot] || int(pt.slot) != slot {
				t.Fatalf("switch %d port %d is not slab element %d", sw, i, slot)
			}
			slot++
		}
	}
	for h := range net.nics {
		if pt := &net.nics[h]; pt != &net.ports[slot] || int(pt.slot) != slot {
			t.Fatalf("host %d's NIC is not slab element %d", h, slot)
		}
		slot++
	}
	if slot != len(net.ports) {
		t.Fatalf("slab holds %d ports, switches and NICs account for %d", len(net.ports), slot)
	}
}

// TestPortsCostNoObjects: building a network allocates nothing per port — no
// queue object, no event closures, no delivery closure; the slab and the cold
// table beside it are one allocation each whatever their length — and a first
// packet through a fresh port allocates nothing either: the arrays it fills,
// the queue's and the in-flight FIFO's, are carved from the network's chunks.
func TestPortsCostNoObjects(t *testing.T) {
	build := func(hostsPerLeaf int) (*topo.Topology, float64) {
		tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
			Spines: 2, Leaves: 2, HostsPerLeaf: hostsPerLeaf,
			HostRate: 10 * units.Gbps, FabricRate: 40 * units.Gbps,
			LinkDelay: 500 * units.Nanosecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, met := sim.NewEngine(1), metrics.NewCollector()
		// Malloc counts are process-wide and the runtime allocates now and
		// then on its own account (a thread started under CPU contention is
		// three objects), so every reading here is the least of three.
		least := math.Inf(1)
		for i := 0; i < 3; i++ {
			least = min(least, testing.AllocsPerRun(5, func() { New(eng, tp, met, DefaultConfig(Vertigo)) }))
		}
		return tp, least
	}
	_, few := build(2)
	tp, many := build(16)
	if few != many {
		t.Errorf("New allocates %.0f objects with 12 ports and %.0f with 68: something is allocated per port", few, many)
	}

	eng := sim.NewEngine(1)
	net := New(eng, tp, metrics.NewCollector(), DefaultConfig(Vertigo))
	delivered := 0
	for h := 0; h < tp.NumHosts; h++ {
		net.RegisterHost(h, recvFunc(func(p *packet.Packet) { delivered++; net.Pool().Put(p) }))
	}
	var ids packet.IDGen
	send := func(src, dst int) {
		p := net.Pool().Get()
		*p = *dataPkt(&ids, src, dst, uint64(src), 1000)
		net.Send(p)
		eng.Run(eng.Now() + 100*units.Microsecond)
	}
	// Warm the packet pool, the event frames and every port between host 0
	// and leaf 1: both uplinks, both spines' downlinks.
	for i := 0; i < 64; i++ {
		send(0, 16)
	}
	least := ^uint64(0)
	for h := 1; h <= 3; h++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		send(h, 16+h) // fresh: host h's NIC and leaf 1's port to host 16+h
		runtime.ReadMemStats(&m1)
		least = min(least, m1.Mallocs-m0.Mallocs)
	}
	if delivered != 67 {
		t.Fatalf("delivered %d of 67", delivered)
	}
	if least > 0 {
		t.Errorf("first packet through two fresh ports allocated %d objects, want its arrays carved from chunks already there", least)
	}
}

// refPickPowerOfN is pickPowerOfN as it was before its two-sample case
// stopped copying the candidates: a partial Fisher-Yates shuffle over a copy,
// each sample probed as it is drawn.
func refPickPowerOfN(cands []int, n int, intn func(int) int, occ func(port int) units.ByteSize) int {
	if len(cands) == 1 {
		return cands[0]
	}
	if n <= 1 {
		return cands[intn(len(cands))]
	}
	if n > len(cands) {
		n = len(cands)
	}
	best := -1
	var bestBytes units.ByteSize
	idx := append([]int(nil), cands...)
	for k := 0; k < n; k++ {
		j := k + intn(len(idx)-k)
		idx[k], idx[j] = idx[j], idx[k]
		c := idx[k]
		if b := occ(c); best == -1 || b < bestBytes {
			best, bestBytes = c, b
		}
	}
	return best
}

// TestPickPowerOfNMatchesCopyingReference: for n of 1, 2, 3 and all, over
// random candidate lists and queue depths with many ties, pickPowerOfN makes
// the draws the copying reference makes and picks the port it picks. The two
// draw from twin streams; a different number of draws, or the same draws
// resolved differently, parts them.
func TestPickPowerOfNMatchesCopyingReference(t *testing.T) {
	tp, err := topo.NewFatTree(topo.FatTreeConfig{K: 8, Rate: 10 * units.Gbps, LinkDelay: 500 * units.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	net := New(eng, tp, metrics.NewCollector(), DefaultConfig(Vertigo))
	s := net.Switch(tp.NumSwitches - 1) // a core switch: eight ports, all facing the fabric
	twin := s.rng                       // xrand.Source is a value: a copy is a twin stream
	twinIntn := func(n int) int { return int(twin.Int63n(int64(n))) }
	rng := rand.New(rand.NewSource(7))
	var ids packet.IDGen
	for round := 0; round < 200; round++ {
		// 0-2 packets on every port, queued behind the engine's back and
		// behind a wire marked busy: nothing is due, so a probe finds exactly
		// this.
		for i := range s.ports {
			s.ports[i].busyUntil = units.Second
			for s.ports[i].pop() != nil {
			}
			for k := rng.Intn(3); k > 0; k-- {
				s.ports[i].push(dataPkt(&ids, 0, 1, 1, 1000))
			}
		}
		cands := rng.Perm(len(s.ports))[:1+rng.Intn(len(s.ports))]
		for _, n := range []int{1, 2, 3, len(cands)} {
			got := s.pickPowerOfN(cands, n)
			want := refPickPowerOfN(cands, n, twinIntn, func(port int) units.ByteSize { return s.ports[port].qs.Bytes() })
			if got != want {
				t.Fatalf("round %d: pickPowerOfN(%v, %d) = %d, reference %d", round, cands, n, got, want)
			}
			if s.rng != twin {
				t.Fatalf("round %d: pickPowerOfN(%v, %d) left the random stream elsewhere than the reference", round, cands, n)
			}
		}
	}
}

// TestBusyPortInflightFollowsOccupancy: a port kept busy by a frame or two
// carries an in-flight FIFO sized to that, not to how long it has been busy.
// Host 0 keeps a window of packets toward host 2 a couple beyond what the
// path holds, for 10k packets, over links long enough to carry two frames
// each: its NIC always has a packet or two queued and on the wire. Every
// in-flight FIFO must stay within 16 entries, under both disciplines: a
// consumed prefix left to grow to 32 entries before compaction doubles it,
// lap after lap, to 64. (buffer.TestBusyQueueArraysFollowOccupancy bounds
// the queues' arrays the same way.)
func TestBusyPortInflightFollowsOccupancy(t *testing.T) {
	const pkts, window = 10000, 12
	for _, pol := range []Policy{Vertigo, ECMP} {
		tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
			Spines: 2, Leaves: 2, HostsPerLeaf: 2,
			HostRate: 10 * units.Gbps, FabricRate: 40 * units.Gbps,
			LinkDelay: 2 * units.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine(1)
		net := New(eng, tp, metrics.NewCollector(), DefaultConfig(pol))
		var ids packet.IDGen
		sent, delivered, peak := 0, 0, 0
		send := func() {
			p := net.Pool().Get()
			*p = *dataPkt(&ids, 0, 2, 1, 1000)
			net.Send(p)
			if sent++; sent > 2*window { // past the opening burst
				peak = max(peak, net.nics[0].qs.Len())
			}
		}
		for h := 0; h < tp.NumHosts; h++ {
			net.RegisterHost(h, recvFunc(func(p *packet.Packet) {
				delivered++
				net.Pool().Put(p)
				if sent < pkts {
					send()
				}
			}))
		}
		for i := 0; i < window; i++ {
			send()
		}
		eng.Run(units.Second)
		if delivered != pkts {
			t.Fatalf("%v: delivered %d of %d", pol, delivered, pkts)
		}
		if peak < 2 || peak > 4 {
			t.Fatalf("%v: host 0's NIC queued up to %d packets, want a couple", pol, peak)
		}
		for i := range net.ports {
			pt := &net.ports[i]
			if n := cap(pt.inflight); n > 16 {
				t.Errorf("%v: port %d (switch %d, index %d) holds %d in-flight slots, want at most 16",
					pol, i, pt.sw, pt.idx, n)
			}
		}
	}
}
