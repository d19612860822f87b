package topo

import (
	"math/bits"
	"slices"
)

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
	return f.listAt(o)
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
// It runs the reverse BFS of every column at once: each switch carries a
// bitset of columns, and ring d of all of them is one step over the switch
// graph, a switch's new columns being the OR of its live neighbours' last
// ring less the columns it has already seen. A switch's list for a new column
// is every neighbour whose last ring holds the column, in port order.
func (t *Topology) FIBExcluding(dead func(link int) bool) *FIB {
	nsw := t.NumSwitches
	f := &FIB{
		switches: nsw,
		col:      make([]int32, t.NumHosts),
		ports:    make([]int, 1, 64),
		access:   t.accessPort,
	}
	// Columns, in order of each ToR's first reachable host.
	torCol := make([]int32, nsw)
	colToR := make([]int, 1, min(t.NumHosts, nsw)+1)
	colToR[0] = -1
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
	ncol := len(colToR)
	f.off = make([]uint32, ncol*nsw)
	f.hops = make([]uint8, ncol*nsw)

	// Live switch adjacency in port order, dead links filtered out up front:
	// switch sw's neighbours are adj[first[sw]:first[sw+1]].
	nport := 0
	for _, peers := range t.PortPeer {
		nport += len(peers)
	}
	adj := make([]neighbor, 0, nport)
	first := make([]int32, nsw+1)
	maxDeg := 0
	for sw, peers := range t.PortPeer {
		for p, peer := range peers {
			if !peer.Host && (dead == nil || !dead(t.PortLink[sw][p])) {
				adj = append(adj, neighbor{int32(peer.Node), int32(p)})
			}
		}
		first[sw+1] = int32(len(adj))
		maxDeg = max(maxDeg, len(adj)-int(first[sw]))
	}

	// Per switch, a bitset of columns words wide: the columns it has reached
	// (seen), reached in the last ring (front), and reaches in this one (next).
	words := (ncol + 63) / 64
	sets := make([]uint64, 3*nsw*words)
	seen, front, next := sets[:nsw*words], sets[nsw*words:2*nsw*words], sets[2*nsw*words:]
	for c := 1; c < ncol; c++ {
		tor := colToR[c]
		seen[tor*words+c/64] |= 1 << (c % 64)
		front[tor*words+c/64] |= 1 << (c % 64)
		f.off[c*nsw+tor] = torCell
		f.hops[c*nsw+tor] = 1
	}

	// A switch's new columns fall into classes, the columns that the same
	// neighbours' fronts hold, and each class has one list: the ports to
	// those neighbours. Classes are found one word of columns at a time, by
	// splitting the word's new columns against each neighbour's front;
	// class k is cls[k], a mask within the word, and its neighbours are
	// pats[k*pw:(k+1)*pw], bit i for nbrs[i].
	pw := (maxDeg + 63) / 64
	pats := make([]uint64, 64*pw)
	cls := make([]uint64, 0, 64) // disjoint, non-empty masks within one word
	store := listStore{slots: make([]uint32, 64), list: make([]int, 0, maxDeg)}

	for d := 1; ; d++ {
		hop := uint8(min(d+1, 255)) // +1 for the final host hop
		grew := false
		for v := 0; v < nsw; v++ {
			nbrs := adj[first[v]:first[v+1]]
			nv, sv := next[v*words:(v+1)*words], seen[v*words:(v+1)*words]
			clear(nv)
			for _, n := range nbrs {
				fu := front[int(n.sw)*words : int(n.sw+1)*words]
				for w := range nv {
					nv[w] |= fu[w]
				}
			}
			for w := range nv {
				nv[w] &^= sv[w]
				sv[w] |= nv[w]
			}
			for w, nw := range nv {
				if nw == 0 {
					continue
				}
				grew = true
				cls = append(cls[:0], nw)
				clear(pats[:pw])
				for i, n := range nbrs {
					m := front[int(n.sw)*words+w] & nw
					for k, n0 := 0, len(cls); m != 0 && k < n0; k++ {
						in := cls[k] & m
						if in == 0 {
							continue
						}
						m &^= in
						j := k
						if out := cls[k] &^ in; out != 0 { // split: in becomes a class of its own
							cls[k] = out
							j = len(cls)
							cls = append(cls, in)
							copy(pats[j*pw:(j+1)*pw], pats[k*pw:(k+1)*pw])
						}
						pats[j*pw+i/64] |= 1 << (i % 64)
					}
				}
				for k, in := range cls {
					o := store.offset(f, nbrs, pats[k*pw:(k+1)*pw])
					for ; in != 0; in &= in - 1 {
						cell := (w*64+bits.TrailingZeros64(in))*nsw + v
						f.off[cell] = o
						f.hops[cell] = hop
					}
				}
			}
		}
		if !grew {
			return f
		}
		front, next = next, front
	}
}

// neighbor is one live fabric port of a switch: the switch across it, and
// the port's number.
type neighbor struct{ sw, port int32 }

// listStore keeps the lists of FIB.ports unique while a table is built: equal
// lists are stored once, whichever switch or column they serve. Port
// numbering repeats from switch to switch, so without it the packed array is
// 2.4 MB at k=16 and 72 MB at k=32, where it is 42 and 82 words. A list is
// found by its hash and confirmed by its content.
type listStore struct {
	slots []uint32 // open addressing, a power of two long: a list's offset in ports, 0 if free
	used  int
	list  []int // scratch: the list in hand
}

// offset returns the offset in f.ports of the list that pattern picks out of
// nbrs (bit i: the port to nbrs[i]), appending the list if it is new. The
// list is never empty, so no stored list has offset 0.
func (s *listStore) offset(f *FIB, nbrs []neighbor, pattern []uint64) uint32 {
	s.list = s.list[:0]
	for w, m := range pattern {
		for ; m != 0; m &= m - 1 {
			s.list = append(s.list, int(nbrs[w*64+bits.TrailingZeros64(m)].port))
		}
	}
	h := hashList(s.list)
	mask := len(s.slots) - 1
	for i := h & mask; ; i = (i + 1) & mask {
		o := s.slots[i]
		if o == 0 {
			break
		}
		if slices.Equal(f.listAt(o), s.list) {
			return o
		}
	}
	o := uint32(len(f.ports))
	f.ports = append(append(f.ports, len(s.list)), s.list...)
	if s.used++; 2*s.used > len(s.slots) {
		old := s.slots
		s.slots = make([]uint32, 2*len(old))
		for _, o := range old {
			if o != 0 {
				s.insert(o, hashList(f.listAt(o)))
			}
		}
	}
	s.insert(o, h)
	return o
}

// insert files offset o in the first free slot from h on.
func (s *listStore) insert(o uint32, h int) {
	mask := len(s.slots) - 1
	i := h & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = o
}

// hashList mixes a list's port ids (FNV-1a over whole words).
func hashList(list []int) int {
	h := uint64(0xcbf29ce484222325)
	for _, p := range list {
		h = (h ^ uint64(p)) * 0x100000001b3
	}
	return int(h ^ h>>32)
}

// listAt returns the list stored at offset o of f.ports.
func (f *FIB) listAt(o uint32) []int {
	lo := int(o) + 1
	hi := lo + f.ports[o]
	return f.ports[lo:hi:hi]
}
