package topo

import "encoding/binary"

// FIB is an immutable shortest-path forwarding table: for every switch and
// destination host, the output ports that lie on a shortest path, and that
// path's length. Topology.FIB covers the whole topology; FIBExcluding builds
// one over a subgraph.
//
// The table is as big as the topology, not as hosts x switches. Hosts behind
// one ToR are reached the same way from everywhere but the ToR itself, so
// destinations are grouped into columns: one per ToR that has a host with a
// live access link, plus column 0, which is empty everywhere and holds every
// host whose access link is dead. A (column, switch) cell is an offset into
// one packed array of length-prefixed port lists, in which equal lists are
// stored once: port numbering repeats from switch to switch, so a fat-tree's
// whole table comes to "every uplink" and one list per single port, a few
// hundred bytes that stay in L1. The ToR's own cell is a marker: its answer
// is the destination's access port, out of a per-host array. Cells are
// column-major — the cells of every switch toward one ToR are neighbours —
// because traffic is: an incast crosses many switches toward one column, and
// finds that column's few cache lines warm at each. A k=16 fat-tree (1,024
// hosts, 320 switches) takes ~0.2 MiB this way, where one slice per (switch,
// host) took 13 MB and two dependent cache misses per routed packet.
type FIB struct {
	switches int      // cells per column
	col      []int32  // per host: its column
	off      []uint32 // cell col*switches+sw: index into ports of the cell's list, or torCell
	hops     []uint8  // cell col*switches+sw: switch hops to the column's hosts, 0 if unreachable
	ports    []int    // lists, each a count followed by that many port ids; ports[0] is the empty list
	access   []int    // per host: the port facing it on its ToR (Topology.accessPort, shared by every table)
}

// torCell marks the cell of a column's own ToR.
const torCell = ^uint32(0)

// NextHops returns the output ports of switch sw on shortest paths to host
// dst: one access port on dst's ToR, every equal-cost uplink or downlink
// elsewhere, none when dst is unreachable from sw. The slice aliases the
// table and must not be modified. Two destinations that share a ToR get the
// identical slice at every switch but that ToR.
func (f *FIB) NextHops(sw, dst int) []int {
	o := f.off[int(f.col[dst])*f.switches+sw]
	if o == torCell {
		return f.access[dst : dst+1 : dst+1]
	}
	lo := int(o) + 1
	hi := lo + f.ports[o]
	return f.ports[lo:hi:hi]
}

// Hops returns the number of switches a packet from switch sw (inclusive)
// crosses on a shortest path to host dst, 0 when dst is unreachable from sw.
// It saturates at 255.
func (f *FIB) Hops(sw, dst int) int {
	return int(f.hops[int(f.col[dst])*f.switches+sw])
}

// FIBExcluding recomputes the shortest-path forwarding table over the
// subgraph that omits every link for which dead reports true — the table a
// converged control plane would install after routing around failures. The
// receiver is not modified; install the result with fabric.Network.InstallFIB.
// Destinations whose every path crosses a dead link get empty entries
// (traffic to them is unroutable until the links recover). A nil dead keeps
// every link: that is Topology.FIB, which Finalize builds.
//
// It runs one reverse BFS per column across the switch graph and records per
// switch every port that steps one hop closer.
func (t *Topology) FIBExcluding(dead func(link int) bool) *FIB {
	f := &FIB{
		switches: t.NumSwitches,
		col:      make([]int32, t.NumHosts),
		ports:    make([]int, 1, 64),
		access:   t.accessPort,
	}
	// Columns, in order of each ToR's first reachable host.
	torCol := make([]int32, t.NumSwitches)
	colToR := []int{-1}
	for h := 0; h < t.NumHosts; h++ {
		if dead != nil && dead(t.HostLink[h]) {
			continue // no switch can reach it: column 0
		}
		tor := t.HostToR[h]
		if torCol[tor] == 0 {
			torCol[tor] = int32(len(colToR))
			colToR = append(colToR, tor)
		}
		f.col[h] = torCol[tor]
	}
	f.off = make([]uint32, len(colToR)*t.NumSwitches)
	f.hops = make([]uint8, len(colToR)*t.NumSwitches)

	// Switch adjacency: neighbor switch -> connecting ports, dead links
	// filtered out up front, packed into one backing array.
	type adj struct{ sw, port int }
	live := func(sw, p int) bool {
		return !t.PortPeer[sw][p].Host && (dead == nil || !dead(t.PortLink[sw][p]))
	}
	nAdj := 0
	for sw := range t.PortPeer {
		for p := range t.PortPeer[sw] {
			if live(sw, p) {
				nAdj++
			}
		}
	}
	adjBack := make([]adj, 0, nAdj)
	neighbors := make([][]adj, t.NumSwitches)
	for sw := range t.PortPeer {
		start := len(adjBack)
		for p, peer := range t.PortPeer[sw] {
			if live(sw, p) {
				adjBack = append(adjBack, adj{peer.Node, p})
			}
		}
		neighbors[sw] = adjBack[start:len(adjBack):len(adjBack)]
	}

	dist := make([]int, t.NumSwitches)
	queue := make([]int, 0, t.NumSwitches)
	// Equal lists are stored once; without that the packed array is 2.4 MB at
	// k=16 and 72 MB at k=32, where it is 42 and 82 words.
	stored := map[string]uint32{} // a list's port ids, four bytes each -> its offset in f.ports
	var (
		list []int  // the cell's ports
		key  []byte // the same, as a map key
	)
	for c := 1; c < len(colToR); c++ {
		tor := colToR[c]
		for i := range dist {
			dist[i] = -1
		}
		dist[tor] = 0
		queue = append(queue[:0], tor)
		for head := 0; head < len(queue); head++ {
			sw := queue[head]
			for _, n := range neighbors[sw] {
				if dist[n.sw] == -1 {
					dist[n.sw] = dist[sw] + 1
					queue = append(queue, n.sw)
				}
			}
		}
		for sw, d := range dist {
			if d < 0 {
				continue // cannot reach the ToR: empty list, 0 hops
			}
			cell := c*t.NumSwitches + sw
			f.hops[cell] = uint8(min(d+1, 255)) // +1 for the final host hop
			if sw == tor {
				f.off[cell] = torCell
				continue
			}
			list, key = list[:0], key[:0]
			for _, n := range neighbors[sw] {
				if dist[n.sw] == d-1 {
					list = append(list, n.port)
					key = binary.LittleEndian.AppendUint32(key, uint32(n.port))
				}
			}
			o, ok := stored[string(key)]
			if !ok {
				o = uint32(len(f.ports))
				stored[string(key)] = o
				f.ports = append(append(f.ports, len(list)), list...)
			}
			f.off[cell] = o
		}
	}
	return f
}
