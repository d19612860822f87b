package topo

import (
	"testing"
	"testing/quick"

	"vertigo/internal/units"
)

func TestPaperLeafSpineDimensions(t *testing.T) {
	tp, err := NewLeafSpine(PaperLeafSpine())
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumHosts != 320 {
		t.Errorf("hosts = %d, want 320", tp.NumHosts)
	}
	if tp.NumSwitches != 12 {
		t.Errorf("switches = %d, want 12 (8 leaves + 4 spines)", tp.NumSwitches)
	}
	// Each leaf: 40 host ports + 4 uplinks; each spine: 8 downlinks.
	for leaf := 0; leaf < 8; leaf++ {
		if got := tp.Ports(leaf); got != 44 {
			t.Errorf("leaf %d has %d ports, want 44", leaf, got)
		}
		if got := len(tp.FabricPorts[leaf]); got != 4 {
			t.Errorf("leaf %d has %d fabric ports, want 4", leaf, got)
		}
	}
	for s := 8; s < 12; s++ {
		if got := tp.Ports(s); got != 8 {
			t.Errorf("spine %d has %d ports, want 8", s, got)
		}
	}
}

func TestPaperFatTreeDimensions(t *testing.T) {
	tp, err := NewFatTree(PaperFatTree())
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumHosts != 128 {
		t.Errorf("hosts = %d, want 128", tp.NumHosts)
	}
	if tp.NumSwitches != 80 {
		t.Errorf("switches = %d, want 80", tp.NumSwitches)
	}
	// Every switch in a k=8 fat-tree has k=8 ports.
	for sw := 0; sw < tp.NumSwitches; sw++ {
		if got := tp.Ports(sw); got != 8 {
			t.Errorf("switch %d has %d ports, want 8", sw, got)
		}
	}
}

func TestLeafSpineFIB(t *testing.T) {
	tp, err := NewLeafSpine(LeafSpineConfig{
		Spines: 2, Leaves: 3, HostsPerLeaf: 4,
		HostRate: 10 * units.Gbps, FabricRate: 40 * units.Gbps,
		LinkDelay: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	for sw := 0; sw < tp.NumSwitches; sw++ {
		for dst := 0; dst < tp.NumHosts; dst++ {
			ports := tp.FIB.NextHops(sw, dst)
			if len(ports) == 0 {
				t.Fatalf("no next hop from switch %d to host %d", sw, dst)
			}
			tor := tp.HostToR[dst]
			switch {
			case sw == tor:
				if len(ports) != 1 || tp.PortPeer[sw][ports[0]] != (Endpoint{Host: true, Node: dst}) {
					t.Fatalf("ToR %d FIB for local host %d is %v", sw, dst, ports)
				}
			case sw < 3: // other leaf: all uplinks
				if len(ports) != 2 {
					t.Fatalf("leaf %d to remote host %d: %d paths, want 2", sw, dst, len(ports))
				}
			default: // spine: single downlink toward dst's ToR
				if len(ports) != 1 {
					t.Fatalf("spine %d to host %d: %d paths, want 1", sw, dst, len(ports))
				}
			}
		}
	}
}

func TestLeafSpineDistances(t *testing.T) {
	tp, err := NewLeafSpine(PaperLeafSpine())
	if err != nil {
		t.Fatal(err)
	}
	// From a host's own ToR the path is 1 hop (ToR->host); from another
	// leaf it is 3 (leaf->spine->ToR->host).
	if d := tp.FIB.Hops(tp.HostToR[0], 0); d != 1 {
		t.Errorf("ToR->local host distance %d, want 1", d)
	}
	otherLeaf := tp.HostToR[319]
	if d := tp.FIB.Hops(otherLeaf, 0); d != 3 {
		t.Errorf("remote leaf distance %d, want 3", d)
	}
}

func TestFatTreeFIBMultipath(t *testing.T) {
	tp, err := NewFatTree(FatTreeConfig{K: 4, Rate: 10 * units.Gbps, LinkDelay: 500})
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 16 hosts, 20 switches. Edge switch to a host in another pod:
	// 2 upward choices.
	edge0 := tp.HostToR[0]
	lastHost := tp.NumHosts - 1
	if got := len(tp.FIB.NextHops(edge0, lastHost)); got != 2 {
		t.Errorf("edge uplink choices = %d, want 2", got)
	}
	// Within-pod, different edge: still 2 choices (via the 2 aggs).
	inPodOther := 2 // host under edge 1, pod 0
	if tp.HostToR[inPodOther] == edge0 {
		t.Fatal("test setup: host 2 shares edge with host 0")
	}
	if got := len(tp.FIB.NextHops(edge0, inPodOther)); got != 2 {
		t.Errorf("within-pod choices = %d, want 2", got)
	}
	// Distances: same edge 1, same pod 3, cross-pod 5.
	if d := tp.FIB.Hops(edge0, 1); d != 1 {
		t.Errorf("same-edge dist %d, want 1", d)
	}
	if d := tp.FIB.Hops(edge0, inPodOther); d != 3 {
		t.Errorf("same-pod dist %d, want 3", d)
	}
	if d := tp.FIB.Hops(edge0, lastHost); d != 5 {
		t.Errorf("cross-pod dist %d, want 5", d)
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	if _, err := NewFatTree(FatTreeConfig{K: 5, Rate: units.Gbps}); err == nil {
		t.Fatal("odd k accepted")
	}
	if _, err := NewFatTree(FatTreeConfig{K: 0, Rate: units.Gbps}); err == nil {
		t.Fatal("zero k accepted")
	}
}

func TestLeafSpineRejectsBadConfig(t *testing.T) {
	if _, err := NewLeafSpine(LeafSpineConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// Property: in any valid leaf-spine, every (switch,dst) has at least one
// next hop, and next-hop distances strictly decrease toward the host.
func TestPropertyFIBProgress(t *testing.T) {
	f := func(spinesRaw, leavesRaw, hostsRaw uint8) bool {
		cfg := LeafSpineConfig{
			Spines:       int(spinesRaw%4) + 1,
			Leaves:       int(leavesRaw%4) + 2,
			HostsPerLeaf: int(hostsRaw%4) + 1,
			HostRate:     10 * units.Gbps,
			FabricRate:   40 * units.Gbps,
			LinkDelay:    100,
		}
		tp, err := NewLeafSpine(cfg)
		if err != nil {
			return false
		}
		for sw := 0; sw < tp.NumSwitches; sw++ {
			for dst := 0; dst < tp.NumHosts; dst++ {
				ports := tp.FIB.NextHops(sw, dst)
				if len(ports) == 0 {
					return false
				}
				for _, p := range ports {
					peer := tp.PortPeer[sw][p]
					if peer.Host {
						if peer.Node != dst {
							return false
						}
						continue
					}
					if tp.FIB.Hops(peer.Node, dst) != tp.FIB.Hops(sw, dst)-1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFinalizeRejectsHostHostLink(t *testing.T) {
	tp := &Topology{
		NumHosts:    2,
		NumSwitches: 1,
		Links: []Link{
			{A: Endpoint{Host: true, Node: 0}, B: Endpoint{Host: true, Node: 1}},
		},
	}
	if err := tp.Finalize(); err == nil {
		t.Fatal("host-host link accepted")
	}
}

func TestFinalizeRejectsDisconnectedHost(t *testing.T) {
	tp := &Topology{
		NumHosts:    2,
		NumSwitches: 1,
		Links: []Link{
			{A: Endpoint{Host: true, Node: 0}, B: Endpoint{Node: 0}},
		},
	}
	if err := tp.Finalize(); err == nil {
		t.Fatal("disconnected host accepted")
	}
}

func TestEndpointString(t *testing.T) {
	if (Endpoint{Host: true, Node: 3}).String() != "h3" {
		t.Error("host endpoint string")
	}
	if (Endpoint{Node: 2, Port: 5}).String() != "s2.p5" {
		t.Error("switch endpoint string")
	}
}
