package topo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vertigo/internal/units"
)

// refRoutes is the reference the compact table is checked against: one BFS
// for one destination host over the links dead spares, nothing shared between
// destinations. It returns every switch's next-hop ports (in port order) and
// hop count, empty and 0 where the host cannot be reached.
func refRoutes(t *Topology, dead func(link int) bool, dst int) (ports [][]int, hops []int) {
	ports = make([][]int, t.NumSwitches)
	hops = make([]int, t.NumSwitches)
	if dead(t.HostLink[dst]) {
		return ports, hops
	}
	dist := make([]int, t.NumSwitches)
	for i := range dist {
		dist[i] = -1
	}
	tor := t.HostToR[dst]
	dist[tor] = 0
	for queue := []int{tor}; len(queue) > 0; queue = queue[1:] {
		sw := queue[0]
		for p, peer := range t.PortPeer[sw] {
			if !peer.Host && !dead(t.PortLink[sw][p]) && dist[peer.Node] == -1 {
				dist[peer.Node] = dist[sw] + 1
				queue = append(queue, peer.Node)
			}
		}
	}
	for sw := range ports {
		if dist[sw] < 0 {
			continue
		}
		hops[sw] = dist[sw] + 1
		if sw == tor {
			ports[sw] = []int{t.HostPeer[dst].Port}
			continue
		}
		for p, peer := range t.PortPeer[sw] {
			if !peer.Host && !dead(t.PortLink[sw][p]) && dist[peer.Node] == dist[sw]-1 {
				ports[sw] = append(ports[sw], p)
			}
		}
	}
	return ports, hops
}

// randomTopology wires 3-10 switches with random links (parallel ones and
// disconnected islands included) and hangs 1-20 hosts off random switches, so
// that hosts sharing a ToR are not neighbours in host order.
func randomTopology(t *testing.T, rng *rand.Rand, name string) *Topology {
	t.Helper()
	switches := 3 + rng.Intn(8)
	return wireRandom(t, rng, name, switches, 1+rng.Intn(20), 3*switches)
}

// wireRandom is randomTopology's shape at any size: hosts hang off random
// switches, and fewer than maxLinks random switch pairs (self-pairs skipped)
// get a link each.
func wireRandom(t *testing.T, rng *rand.Rand, name string, switches, hosts, maxLinks int) *Topology {
	t.Helper()
	tp := &Topology{Name: name, NumSwitches: switches, NumHosts: hosts}
	for h := 0; h < tp.NumHosts; h++ {
		tp.Links = append(tp.Links, Link{
			A: Endpoint{Host: true, Node: h}, B: Endpoint{Node: rng.Intn(tp.NumSwitches)},
			Rate: units.Gbps, Delay: 100,
		})
	}
	for n := rng.Intn(maxLinks); n > 0; n-- {
		a, b := rng.Intn(tp.NumSwitches), rng.Intn(tp.NumSwitches)
		if a != b {
			tp.Links = append(tp.Links, Link{A: Endpoint{Node: a}, B: Endpoint{Node: b}, Rate: units.Gbps, Delay: 100})
		}
	}
	if err := tp.Finalize(); err != nil {
		t.Fatal(err)
	}
	return tp
}

// checkFIB compares every (switch, destination) cell of fib, built over the
// links dead spares, with refRoutes.
func checkFIB(t *testing.T, tp *Topology, fib *FIB, dead func(link int) bool, label string) {
	t.Helper()
	for dst := 0; dst < tp.NumHosts; dst++ {
		wantPorts, wantHops := refRoutes(tp, dead, dst)
		for sw := 0; sw < tp.NumSwitches; sw++ {
			if got := fib.NextHops(sw, dst); !slices.Equal(got, wantPorts[sw]) {
				t.Fatalf("%s: NextHops(s%d, h%d) = %v, want %v", label, sw, dst, got, wantPorts[sw])
			}
			if got := fib.Hops(sw, dst); got != wantHops[sw] {
				t.Fatalf("%s: Hops(s%d, h%d) = %d, want %d", label, sw, dst, got, wantHops[sw])
			}
		}
	}
}

// TestFIBMatchesPerDestinationBFS: on the paper's leaf-spine, fat-trees and
// random hand-built topologies, under random dead-link sets that take out
// fabric and access links alike, the compact table answers every (switch,
// destination) — the ToR's own entry and unreachable destinations included —
// exactly as one BFS per destination does. The k=16 fat-tree's 129 columns
// take three bitset words, the last one partial, and the 80-leaf leaf-spine
// gives each spine more than 64 live neighbours, so a list's pattern over
// them takes two words.
func TestFIBMatchesPerDestinationBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var topos []*Topology
	add := func(tp *Topology, err error) {
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, tp)
	}
	add(NewLeafSpine(PaperLeafSpine()))
	add(NewLeafSpine(LeafSpineConfig{Spines: 4, Leaves: 80, HostsPerLeaf: 2, HostRate: units.Gbps, FabricRate: units.Gbps, LinkDelay: 500}))
	for _, k := range []int{4, 8, 16} {
		add(NewFatTree(FatTreeConfig{K: k, Rate: 10 * units.Gbps, LinkDelay: 500}))
	}
	for i := 0; i < 40; i++ {
		add(randomTopology(t, rng, fmt.Sprintf("random-%d", i)), nil)
	}
	for _, tp := range topos {
		for _, pDead := range []float64{0, 0.05, 0.3} {
			deadSet := make([]bool, len(tp.Links))
			for li := range deadSet {
				deadSet[li] = rng.Float64() < pDead
			}
			dead := func(li int) bool { return deadSet[li] }
			fib := tp.FIBExcluding(dead)
			if pDead == 0 {
				fib = tp.FIB // the table Finalize built, with a nil filter
			}
			checkFIB(t, tp, fib, dead, fmt.Sprintf("%s, %.0f%% dead", tp.Name, 100*pDead))
		}
	}
}

// FuzzFIBMatchesPerDestinationBFS checks the compact table against one BFS
// per destination on topologies in randomTopology's shape at any size —
// parallel links, islands, hosts sharing ToRs — under a dead-link set that
// kills each link with probability pDead/255. Up to 256 switches and hosts
// reach multi-word column bitsets, and many parallel links multi-word
// neighbour patterns.
func FuzzFIBMatchesPerDestinationBFS(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(19), uint16(30), uint8(0))
	f.Add(int64(2), uint8(9), uint8(40), uint16(900), uint8(20))    // > 64 neighbours on some switches
	f.Add(int64(3), uint8(150), uint8(200), uint16(600), uint8(10)) // > 64 columns, islands
	f.Fuzz(func(t *testing.T, seed int64, switches, hosts uint8, links uint16, pDead uint8) {
		rng := rand.New(rand.NewSource(seed))
		tp := wireRandom(t, rng, "fuzz", 1+int(switches), 1+int(hosts), 1+int(links)%4096)
		deadSet := make([]bool, len(tp.Links))
		for li := range deadSet {
			deadSet[li] = rng.Intn(255) < int(pDead)
		}
		dead := func(li int) bool { return deadSet[li] }
		fib := tp.FIBExcluding(dead)
		if pDead == 0 {
			fib = tp.FIB
		}
		checkFIB(t, tp, fib, dead, fmt.Sprintf("%d switches, %d hosts, %d links, seed %d", tp.NumSwitches, tp.NumHosts, len(tp.Links), seed))
	})
}

// fibSink keeps BenchmarkFIBBuild's tables live.
var fibSink *FIB

// BenchmarkFIBBuild times one build of the whole-topology forwarding table
// (FIBExcluding(nil), what Finalize runs) on the k=16 and k=32 fat-trees.
func BenchmarkFIBBuild(b *testing.B) {
	for _, k := range []int{16, 32} {
		tp, err := NewFatTree(FatTreeConfig{K: k, Rate: 10 * units.Gbps, LinkDelay: 500})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fibSink = tp.FIBExcluding(nil)
			}
		})
	}
}
