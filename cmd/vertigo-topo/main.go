// Command vertigo-topo inspects the simulated topologies: prints the node
// and link inventory, FIB statistics, and optionally a Graphviz DOT graph.
//
//	vertigo-topo -topology leafspine -spines 4 -leaves 8 -hosts-per-leaf 40
//	vertigo-topo -topology fattree -k 8 -dot | dot -Tsvg > fabric.svg
package main

import (
	"flag"
	"fmt"
	"os"

	"vertigo/internal/topo"
	"vertigo/internal/units"
)

func main() {
	var (
		kind   = flag.String("topology", "leafspine", "leafspine|fattree")
		spines = flag.Int("spines", 4, "leaf-spine: spine switches")
		leaves = flag.Int("leaves", 8, "leaf-spine: leaf switches")
		hpl    = flag.Int("hosts-per-leaf", 40, "leaf-spine: hosts per leaf")
		k      = flag.Int("k", 8, "fat-tree: k (even)")
		dot    = flag.Bool("dot", false, "emit Graphviz DOT instead of the summary")
	)
	flag.Parse()

	var (
		t   *topo.Topology
		err error
	)
	switch *kind {
	case "leafspine":
		t, err = topo.NewLeafSpine(topo.LeafSpineConfig{
			Spines: *spines, Leaves: *leaves, HostsPerLeaf: *hpl,
			HostRate: 10 * units.Gbps, FabricRate: 40 * units.Gbps,
			LinkDelay: 500 * units.Nanosecond,
		})
	case "fattree":
		t, err = topo.NewFatTree(topo.FatTreeConfig{
			K: *k, Rate: 10 * units.Gbps, LinkDelay: 500 * units.Nanosecond,
		})
	default:
		err = fmt.Errorf("unknown topology %q", *kind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vertigo-topo:", err)
		os.Exit(1)
	}

	if *dot {
		writeDOT(t)
		return
	}
	summarize(t)
}

func summarize(t *topo.Topology) {
	fmt.Printf("topology  %s\n", t.Name)
	fmt.Printf("hosts     %d\n", t.NumHosts)
	fmt.Printf("switches  %d\n", t.NumSwitches)
	fmt.Printf("links     %d\n", len(t.Links))

	// Bisection-ish capacity: total fabric (switch-switch) link rate.
	var hostCap, fabricCap units.BitRate
	for _, l := range t.Links {
		if l.A.Host || l.B.Host {
			hostCap += l.Rate
		} else {
			fabricCap += l.Rate
		}
	}
	fmt.Printf("capacity  %v at the hosts, %v switch-to-switch (oversubscription %.2f:1)\n",
		hostCap, fabricCap, float64(hostCap)/float64(fabricCap))

	// Path diversity and distance distribution.
	minP, maxP := 1<<30, 0
	var sumDist, pairs int
	maxDist := 0
	for sw := 0; sw < t.NumSwitches; sw++ {
		for dst := 0; dst < t.NumHosts; dst++ {
			if n := len(t.FIB.NextHops(sw, dst)); n > 0 {
				if n < minP {
					minP = n
				}
				if n > maxP {
					maxP = n
				}
			}
		}
	}
	for h := 0; h < t.NumHosts; h++ {
		tor := t.HostToR[h]
		for dst := 0; dst < t.NumHosts; dst++ {
			if dst == h {
				continue
			}
			d := t.FIB.Hops(tor, dst)
			sumDist += d
			pairs++
			if d > maxDist {
				maxDist = d
			}
		}
	}
	fmt.Printf("fib       %d–%d next-hop choices per (switch,dst)\n", minP, maxP)
	fmt.Printf("paths     mean %.2f switch hops host-to-host, diameter %d\n",
		float64(sumDist)/float64(pairs), maxDist)
	for sw := 0; sw < t.NumSwitches; sw++ {
		if sw < 3 || sw >= t.NumSwitches-2 {
			fmt.Printf("  s%-3d %d ports (%d fabric)\n", sw, t.Ports(sw), len(t.FabricPorts[sw]))
		} else if sw == 3 {
			fmt.Println("  ...")
		}
	}
}

func writeDOT(t *topo.Topology) {
	fmt.Println("graph fabric {")
	fmt.Println("  layout=dot; rankdir=BT; node [fontsize=10];")
	for sw := 0; sw < t.NumSwitches; sw++ {
		fmt.Printf("  s%d [shape=box, style=filled, fillcolor=lightsteelblue];\n", sw)
	}
	for h := 0; h < t.NumHosts; h++ {
		fmt.Printf("  h%d [shape=circle, width=0.25, fixedsize=true, fontsize=7];\n", h)
	}
	name := func(e topo.Endpoint) string {
		if e.Host {
			return fmt.Sprintf("h%d", e.Node)
		}
		return fmt.Sprintf("s%d", e.Node)
	}
	for _, l := range t.Links {
		attr := ""
		if !l.A.Host && !l.B.Host {
			attr = " [penwidth=2]"
		}
		fmt.Printf("  %s -- %s%s;\n", name(l.A), name(l.B), attr)
	}
	fmt.Println("}")
}
