// Failover: an extension beyond the paper. One leaf uplink loses carrier
// mid-run with no routing reconvergence. ECMP keeps hashing flows onto the
// dead port and blackholes them until its (absent) control plane would
// repair the FIB; Vertigo's switches see the dead port as a full queue and
// deflect around it in the dataplane, within microseconds.
//
// This example drives the internal scenario API directly (fault schedules
// are a research knob, not part of the stable public surface).
package main

import (
	"fmt"
	"log"

	"vertigo/internal/core"
	"vertigo/internal/fabric"
	"vertigo/internal/faults"
	"vertigo/internal/metrics"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

func main() {
	fmt.Println("16-host leaf-spine at 50% load; leaf 0's first uplink dies at T/2")
	fmt.Printf("%-8s  %-12s  %-12s  %-8s  %s\n",
		"scheme", "flows done", "mean FCT", "drops", "flushed@fail")
	for _, policy := range []fabric.Policy{fabric.ECMP, fabric.DRILL, fabric.DIBS, fabric.Vertigo} {
		cfg := core.DefaultConfig(policy, transport.DCTCP)
		cfg.LeafSpineCfg = topo.LeafSpineConfig{
			Spines: 2, Leaves: 4, HostsPerLeaf: 4,
			HostRate: 10 * units.Gbps, FabricRate: 40 * units.Gbps,
			LinkDelay: 500 * units.Nanosecond,
		}
		cfg.SimTime = 60 * units.Millisecond
		cfg.BGLoad = 0.30
		cfg.IncastScale = 8
		cfg.IncastFlowSize = 40_000
		cfg.SetIncastLoad(0.20)
		// Host access links occupy indices 0..hosts-1; the first leaf-spine
		// uplink follows.
		cfg.Faults = (&faults.Schedule{}).Add(faults.Event{At: cfg.SimTime / 2, Kind: faults.LinkDown, Link: cfg.NumHosts()})

		res, err := core.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		s := res.Summary
		fmt.Printf("%-8s  %5.1f%%        %-12v  %-8d  %d\n",
			policy, s.FlowCompletionP, s.MeanFCT, s.Drops,
			res.Collector.Drops[metrics.DropLinkDown])
	}
	fmt.Println("\nexpected shape: Vertigo completes nearly all flows with the lowest FCT;")
	fmt.Println("ECMP and DRILL keep hashing onto the dead port, so the flows pinned to it")
	fmt.Println("stall (their losses appear as ordinary overflow-style drops at the dead port).")
}
