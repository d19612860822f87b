// Package topo describes datacenter topologies as hosts, switches, ports and
// links, and computes the static shortest-path forwarding tables (FIBs) that
// the fabric pre-populates into every switch, matching the paper's assumption
// of pre-installed next-hop state (§3.2).
package topo

import (
	"fmt"

	"vertigo/internal/units"
)

// Endpoint names one side of a link: a port on a host or a switch.
// Hosts have exactly one port (their NIC), so Port is always 0 for hosts.
type Endpoint struct {
	Host bool
	Node int // host ID or switch ID
	Port int // port index on the node
}

func (e Endpoint) String() string {
	if e.Host {
		return fmt.Sprintf("h%d", e.Node)
	}
	return fmt.Sprintf("s%d.p%d", e.Node, e.Port)
}

// Link is a full-duplex cable between two endpoints.
type Link struct {
	A, B  Endpoint
	Rate  units.BitRate
	Delay units.Time // one-way propagation delay
}

// Topology is an immutable description of a network. Build one with
// NewLeafSpine or NewFatTree (or assemble Links by hand and call Finalize).
type Topology struct {
	Name        string
	NumHosts    int
	NumSwitches int
	Links       []Link

	// Derived by Finalize:

	// PortPeer[sw][port] is the endpoint at the far side of each switch port.
	PortPeer [][]Endpoint
	// PortLink[sw][port] indexes into Links for rate/delay lookup.
	PortLink [][]int
	// HostPeer[h] is the switch endpoint the host NIC connects to.
	HostPeer []Endpoint
	// HostLink[h] indexes into Links for the host's access link.
	HostLink []int
	// HostToR[h] is the switch directly attached to host h.
	HostToR []int
	// FIB is the shortest-path forwarding table over the whole topology:
	// FIB.NextHops(sw, dst) lists the output ports on shortest paths from sw
	// to host dst, FIB.Hops(sw, dst) is their length.
	FIB *FIB
	// FabricPorts[sw] lists ports whose peer is another switch (the
	// deflection candidate set, host-destination ports excluded).
	FabricPorts [][]int

	// accessPort[h] is the port on HostToR[h] that faces host h. Every
	// forwarding table built from this topology answers a ToR's own entries
	// out of this one array.
	accessPort []int
}

// Ports returns the number of ports on switch sw.
func (t *Topology) Ports(sw int) int { return len(t.PortPeer[sw]) }

// Finalize assigns port numbers from the link list and computes FIBs.
// Constructors call it; call it yourself only for hand-built topologies.
func (t *Topology) Finalize() error {
	if t.NumHosts == 0 || t.NumSwitches == 0 {
		return fmt.Errorf("topo: %s has no hosts or no switches", t.Name)
	}
	t.PortPeer = make([][]Endpoint, t.NumSwitches)
	t.PortLink = make([][]int, t.NumSwitches)
	t.HostPeer = make([]Endpoint, t.NumHosts)
	t.HostLink = make([]int, t.NumHosts)
	t.HostToR = make([]int, t.NumHosts)
	for i := range t.HostLink {
		t.HostLink[i] = -1
	}

	// Counting pass: per-switch port counts, so every per-switch slice below
	// is an exact-capacity window into one backing array instead of a
	// separately grown allocation (large fat-trees have tens of thousands of
	// ports; growing each list by doubling would dominate build time).
	nport := make([]int, t.NumSwitches)
	for i := range t.Links {
		l := &t.Links[i]
		switch {
		case l.A.Host && l.B.Host:
			// reported with context by the main loop below
		case l.A.Host:
			nport[l.B.Node]++
		case l.B.Host:
			nport[l.A.Node]++
		default:
			nport[l.A.Node]++
			nport[l.B.Node]++
		}
	}
	totalPorts := 0
	for _, n := range nport {
		totalPorts += n
	}
	peerBack := make([]Endpoint, totalPorts)
	linkBack := make([]int, totalPorts)
	for sw, off := 0, 0; sw < t.NumSwitches; sw++ {
		end := off + nport[sw]
		t.PortPeer[sw] = peerBack[off:off:end]
		t.PortLink[sw] = linkBack[off:off:end]
		off = end
	}

	addSwitchPort := func(sw int, peer Endpoint, link int) int {
		t.PortPeer[sw] = append(t.PortPeer[sw], peer)
		t.PortLink[sw] = append(t.PortLink[sw], link)
		return len(t.PortPeer[sw]) - 1
	}

	for i := range t.Links {
		l := &t.Links[i]
		switch {
		case l.A.Host && l.B.Host:
			return fmt.Errorf("topo: link %d connects two hosts", i)
		case l.A.Host:
			l.B.Port = addSwitchPort(l.B.Node, l.A, i)
			if t.HostLink[l.A.Node] != -1 {
				return fmt.Errorf("topo: host %d has multiple links", l.A.Node)
			}
			t.HostPeer[l.A.Node] = l.B
			t.HostLink[l.A.Node] = i
			t.HostToR[l.A.Node] = l.B.Node
		case l.B.Host:
			l.A.Port = addSwitchPort(l.A.Node, l.B, i)
			if t.HostLink[l.B.Node] != -1 {
				return fmt.Errorf("topo: host %d has multiple links", l.B.Node)
			}
			t.HostPeer[l.B.Node] = l.A
			t.HostLink[l.B.Node] = i
			t.HostToR[l.B.Node] = l.A.Node
		default:
			// Switch-to-switch: assign both ports, then patch peers to carry
			// the assigned port numbers.
			pa := addSwitchPort(l.A.Node, l.B, i)
			pb := addSwitchPort(l.B.Node, l.A, i)
			l.A.Port, l.B.Port = pa, pb
			t.PortPeer[l.A.Node][pa] = Endpoint{Node: l.B.Node, Port: pb}
			t.PortPeer[l.B.Node][pb] = Endpoint{Node: l.A.Node, Port: pa}
		}
	}
	for h, li := range t.HostLink {
		if li == -1 {
			return fmt.Errorf("topo: host %d is not connected", h)
		}
	}

	t.FabricPorts = make([][]int, t.NumSwitches)
	nFabric := 0
	for sw := range t.PortPeer {
		for _, peer := range t.PortPeer[sw] {
			if !peer.Host {
				nFabric++
			}
		}
	}
	fabricBack := make([]int, 0, nFabric)
	for sw := range t.PortPeer {
		start := len(fabricBack)
		for p, peer := range t.PortPeer[sw] {
			if !peer.Host {
				fabricBack = append(fabricBack, p)
			}
		}
		if len(fabricBack) > start {
			t.FabricPorts[sw] = fabricBack[start:len(fabricBack):len(fabricBack)]
		}
	}

	t.accessPort = make([]int, t.NumHosts)
	for h, peer := range t.HostPeer {
		t.accessPort[h] = peer.Port
	}
	t.FIB = t.FIBExcluding(nil)
	return nil
}
