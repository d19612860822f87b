package topo

import (
	"testing"

	"vertigo/internal/units"
)

// k16 builds the scale=huge fat-tree (1024 hosts, 320 switches) once per
// test binary; the allocation-lean Finalize makes this cheap enough to
// rebuild per test, but sharing keeps the suite snappy.
func k16(t *testing.T) *Topology {
	t.Helper()
	tp, err := NewFatTree(FatTreeConfig{K: 16, Rate: 10 * units.Gbps, LinkDelay: 500})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestFatTreeK16Dimensions(t *testing.T) {
	tp := k16(t)
	if tp.NumHosts != 1024 {
		t.Errorf("hosts = %d, want 1024", tp.NumHosts)
	}
	// 128 edge + 128 aggregation + 64 core.
	if tp.NumSwitches != 320 {
		t.Errorf("switches = %d, want 320", tp.NumSwitches)
	}
	if got, want := len(tp.Links), 1024+2*1024; got != want {
		t.Errorf("links = %d, want %d", got, want)
	}
	// Every switch in a k-ary fat-tree has exactly k ports; edges split
	// them half hosts / half fabric, aggs and cores are all-fabric.
	for sw := 0; sw < tp.NumSwitches; sw++ {
		if got := tp.Ports(sw); got != 16 {
			t.Fatalf("switch %d has %d ports, want 16", sw, got)
		}
		wantFabric := 16
		if sw < 128 { // edge
			wantFabric = 8
		}
		if got := len(tp.FabricPorts[sw]); got != wantFabric {
			t.Fatalf("switch %d has %d fabric ports, want %d", sw, got, wantFabric)
		}
	}
	// Hosts pack under edges in ID order, k/2 = 8 per edge.
	for h := 0; h < tp.NumHosts; h++ {
		if tp.HostToR[h] != h/8 {
			t.Fatalf("host %d ToR = %d, want %d", h, tp.HostToR[h], h/8)
		}
	}
}

func TestFatTreeK16FIBMultipath(t *testing.T) {
	tp := k16(t)
	edge0 := tp.HostToR[0]
	lastHost := tp.NumHosts - 1 // in the last pod
	inPodOther := 8             // under edge 1, pod 0

	// Edge to any non-local host: k/2 = 8 equal-cost uplinks, whether the
	// destination is in-pod (via the 8 aggs) or cross-pod.
	if got := len(tp.FIB.NextHops(edge0, inPodOther)); got != 8 {
		t.Errorf("edge within-pod choices = %d, want 8", got)
	}
	if got := len(tp.FIB.NextHops(edge0, lastHost)); got != 8 {
		t.Errorf("edge cross-pod choices = %d, want 8", got)
	}
	// Aggregation to a cross-pod host: all 8 core uplinks are shortest.
	agg0 := 128
	if got := len(tp.FIB.NextHops(agg0, lastHost)); got != 8 {
		t.Errorf("agg cross-pod choices = %d, want 8", got)
	}
	// Core to any host: a single downlink (the destination pod's agg).
	for c := 256; c < 320; c++ {
		if got := len(tp.FIB.NextHops(c, lastHost)); got != 1 {
			t.Fatalf("core %d choices = %d, want 1", c, got)
		}
	}
	// Hop distances: same edge 1, same pod 3, cross-pod 5.
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

// TestFatTreeK16FIBProgress is the leaf-spine FIB-progress property on the
// k=16 fat-tree: every (switch, dst) entry is non-empty and every listed
// port steps strictly closer to the destination. This sweeps all 320x1024
// entries, so every column, shared list and ToR cell of the table is read.
func TestFatTreeK16FIBProgress(t *testing.T) {
	tp := k16(t)
	for sw := 0; sw < tp.NumSwitches; sw++ {
		for dst := 0; dst < tp.NumHosts; dst++ {
			ports := tp.FIB.NextHops(sw, dst)
			if len(ports) == 0 {
				t.Fatalf("no next hop from switch %d to host %d", sw, dst)
			}
			for _, p := range ports {
				peer := tp.PortPeer[sw][p]
				if peer.Host {
					if peer.Node != dst {
						t.Fatalf("switch %d FIB for host %d exits to host %d", sw, dst, peer.Node)
					}
					continue
				}
				if tp.FIB.Hops(peer.Node, dst) != tp.FIB.Hops(sw, dst)-1 {
					t.Fatalf("switch %d port %d to host %d does not make progress", sw, p, dst)
				}
			}
		}
	}
}

// TestFatTreeK16SameToRAliasing pins what the table's size rests on: hosts
// under one edge switch share a column — the identical next-hop slice at every
// other switch, the same hop count everywhere — while the ToR's own entry
// names each host's distinct access port; and the k=16 table's backing arrays
// stay under 3 MiB (one slice per (switch, host) took 13 MB).
func TestFatTreeK16SameToRAliasing(t *testing.T) {
	tp := k16(t)
	h0, h1 := 0, 1 // both under edge 0
	tor := tp.HostToR[h0]
	if tp.HostToR[h1] != tor {
		t.Fatal("test setup: hosts 0 and 1 do not share an edge")
	}
	for sw := 0; sw < tp.NumSwitches; sw++ {
		if tp.FIB.Hops(sw, h0) != tp.FIB.Hops(sw, h1) {
			t.Fatalf("switch %d: dist to h0 %d != dist to h1 %d",
				sw, tp.FIB.Hops(sw, h0), tp.FIB.Hops(sw, h1))
		}
		if sw == tor {
			continue
		}
		a, b := tp.FIB.NextHops(sw, h0), tp.FIB.NextHops(sw, h1)
		if len(a) == 0 || len(a) != len(b) || &a[0] != &b[0] {
			t.Fatalf("switch %d: non-ToR FIB entries for same-ToR hosts not aliased", sw)
		}
	}
	e0, e1 := tp.FIB.NextHops(tor, h0), tp.FIB.NextHops(tor, h1)
	if len(e0) != 1 || len(e1) != 1 || e0[0] == e1[0] {
		t.Fatalf("ToR entries %v / %v: want distinct single access ports", e0, e1)
	}
	if tp.PortPeer[tor][e0[0]] != (Endpoint{Host: true, Node: h0}) {
		t.Fatalf("ToR entry for h0 exits to %v", tp.PortPeer[tor][e0[0]])
	}

	f := tp.FIB
	if cols := len(f.off) / f.switches; cols != 1+128 {
		t.Errorf("%d columns, want one per edge switch plus the empty one", cols)
	}
	size := 4*len(f.col) + 4*len(f.off) + len(f.hops) + 8*cap(f.ports) + 8*len(f.access)
	t.Logf("k=16 FIB: %d cells, %d packed port words, %d bytes", len(f.off), len(f.ports), size)
	if size > 3<<20 {
		t.Errorf("k=16 FIB backing arrays total %d bytes, want <= 3 MiB", size)
	}
}
