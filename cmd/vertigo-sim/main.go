// Command vertigo-sim runs one simulation scenario and prints its metrics.
// Every field of vertigo.Config is a flag (vertigo.Config.RegisterFlags);
// the defaults are the paper's (vertigo.Defaults) cut to a 16-host fabric
// for 100 ms.
//
// Examples:
//
//	vertigo-sim -scheme vertigo -transport dctcp -duration 100ms
//	vertigo-sim -scheme dibs -bg-load 0.5 -incast-load 0.35 -json
//	vertigo-sim -topology fattree -fattree-k 4 -scheme vertigo -transport swift
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"vertigo"
	"vertigo/internal/obs"
)

func main() {
	cfg := vertigo.Defaults(vertigo.SchemeVertigo, vertigo.TransportDCTCP)
	// Small-scale defaults: a 2×4×4 leaf-spine (k=4 fat-tree) for 100 ms, a
	// quarter of background load and 8-way incast offering another quarter.
	cfg.Duration = 100 * time.Millisecond
	cfg.Spines, cfg.Leaves, cfg.HostsPerLeaf, cfg.FatTreeK = 2, 4, 4, 4
	cfg.BackgroundLoad = 0.25
	cfg.IncastQPS, cfg.IncastScale, cfg.IncastLoad = 0, 8, 0.25
	cfg.RegisterFlags(flag.CommandLine)
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	debugAddr := flag.String("debug-addr", "", "serve the introspection plane on this address, e.g. localhost:9464 (/metrics, /statusz, /healthz, /debug/pprof)")
	flag.Parse()

	if *debugAddr != "" {
		status := func() any {
			return map[string]any{
				"scheme": cfg.Scheme, "transport": cfg.Transport, "topology": cfg.Topology,
				"duration": cfg.Duration.String(), "seed": cfg.Seed,
			}
		}
		// Closer unused: -debug-addr serves until process exit by design.
		addr, _, err := obs.Serve(*debugAddr, obs.Default, status)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vertigo-sim: debug server:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "introspection plane on http://%s/ (metrics, statusz, healthz, pprof)\n", addr)
	}

	rep, err := vertigo.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vertigo-sim:", err)
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "vertigo-sim:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("scheme=%s transport=%s topology=%s duration=%v seed=%d\n\n",
		cfg.Scheme, cfg.Transport, cfg.Topology, cfg.Duration, cfg.Seed)
	fmt.Printf("flows     %d started, %d completed (%.1f%%)\n",
		rep.FlowsStarted, rep.FlowsCompleted, rep.FlowCompletionPct)
	fmt.Printf("FCT       mean %v  p99 %v  (mice mean %v)\n",
		rep.MeanFCT, rep.P99FCT, rep.MeanMiceFCT)
	fmt.Printf("queries   %d started, %d completed (%.1f%%)\n",
		rep.QueriesStarted, rep.QueriesCompleted, rep.QueryCompletionPct)
	fmt.Printf("QCT       mean %v  p50 %v  p99 %v\n",
		rep.MeanQCT, rep.QCTPercentile(50), rep.P99QCT)
	fmt.Printf("packets   %d sent, %d delivered, %d dropped (%.4f%%)\n",
		rep.PacketsSent, rep.PacketsDelivered, rep.Drops, rep.DropRatePct)
	fmt.Printf("network   %d deflections, mean hops %.2f, %d reordered\n",
		rep.Deflections, rep.MeanHops, rep.ReorderedPackets)
	fmt.Printf("recovery  %d retransmits (%d RTO, %d fast)\n",
		rep.Retransmits, rep.RTOs, rep.FastRetx)
	fmt.Printf("goodput   %.2f Gbps overall, %.1f Mbps per elephant\n",
		rep.OverallGoodputGbps, rep.ElephantGoodputMbps)
	fmt.Printf("engine    %d events\n", rep.Events)
	if rep.TelemetryText != "" {
		fmt.Printf("\n%s", rep.TelemetryText)
	}
}
