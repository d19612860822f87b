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
	tp := &Topology{Name: name, NumSwitches: 3 + rng.Intn(8), NumHosts: 1 + rng.Intn(20)}
	for h := 0; h < tp.NumHosts; h++ {
		tp.Links = append(tp.Links, Link{
			A: Endpoint{Host: true, Node: h}, B: Endpoint{Node: rng.Intn(tp.NumSwitches)},
			Rate: units.Gbps, Delay: 100,
		})
	}
	for n := rng.Intn(3 * tp.NumSwitches); n > 0; n-- {
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

// TestFIBMatchesPerDestinationBFS: on the paper's leaf-spine, fat-trees and
// random hand-built topologies, under random dead-link sets that take out
// fabric and access links alike, the compact table answers every (switch,
// destination) — the ToR's own entry and unreachable destinations included —
// exactly as one BFS per destination does.
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
	for _, k := range []int{4, 8} {
		add(NewFatTree(FatTreeConfig{K: k, Rate: 10 * units.Gbps, LinkDelay: 500}))
	}
	for i := 0; i < 40; i++ {
		add(randomTopology(t, rng, fmt.Sprintf("random-%d", i)), nil)
	}
	for _, tp := range topos {
		name := tp.Name
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
			for dst := 0; dst < tp.NumHosts; dst++ {
				wantPorts, wantHops := refRoutes(tp, dead, dst)
				for sw := 0; sw < tp.NumSwitches; sw++ {
					if got := fib.NextHops(sw, dst); !slices.Equal(got, wantPorts[sw]) {
						t.Fatalf("%s, %.0f%% dead: NextHops(s%d, h%d) = %v, want %v", name, 100*pDead, sw, dst, got, wantPorts[sw])
					}
					if got := fib.Hops(sw, dst); got != wantHops[sw] {
						t.Fatalf("%s, %.0f%% dead: Hops(s%d, h%d) = %d, want %d", name, 100*pDead, sw, dst, got, wantHops[sw])
					}
				}
			}
		}
	}
}
