// Command vertigo-sim runs one simulation scenario and prints its metrics.
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
	var (
		scheme    = flag.String("scheme", "vertigo", "forwarding scheme: ecmp|drill|dibs|vertigo")
		transport = flag.String("transport", "dctcp", "congestion control: tcp|dctcp|swift")
		topology  = flag.String("topology", "leafspine", "fabric: leafspine|fattree")
		duration  = flag.Duration("duration", 100*time.Millisecond, "simulated time (also the completion deadline)")
		seed      = flag.Int64("seed", 1, "simulation seed (same seed => identical run)")

		spines   = flag.Int("spines", 2, "leaf-spine: spine switches")
		leaves   = flag.Int("leaves", 4, "leaf-spine: leaf (ToR) switches")
		hpl      = flag.Int("hosts-per-leaf", 4, "leaf-spine: hosts per leaf")
		fatTreeK = flag.Int("fattree-k", 4, "fat-tree: k (even)")

		bgLoad     = flag.Float64("bg-load", 0.25, "background load fraction of host capacity")
		bgWorkload = flag.String("bg-workload", "cachefollower", "cachefollower|datamining|websearch")
		tracePath  = flag.String("trace", "", "CSV flow trace to replay (start_us,src,dst,bytes)")

		incastLoad  = flag.Float64("incast-load", 0.25, "incast offered load fraction (overrides -incast-qps)")
		incastQPS   = flag.Float64("incast-qps", 0, "incast queries per second (used when -incast-load is 0)")
		incastScale = flag.Int("incast-scale", 8, "servers per incast query")
		incastKB    = flag.Int("incast-flow-kb", 40, "incast response size in KB")

		tau       = flag.Duration("ordering-timeout", 360*time.Microsecond, "Vertigo ordering timeout τ")
		boost     = flag.Int("boost-factor", 2, "Vertigo boosting factor (power of two; 1 disables)")
		las       = flag.Bool("las", false, "use flow-aging (LAS) marking instead of SRPT")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON")
		telemetry = flag.Bool("telemetry", false, "print the per-port monitoring report (§5)")
		pktTrace  = flag.String("packet-trace", "", "write a per-event dataplane trace (JSONL, one object per event) to this file")
		traceFlow = flag.Uint64("packet-trace-flow", 0, "flow ID to trace (0 = all flows)")
		shards    = flag.Int("shards", 0, "shard the run across this many topology domains on separate cores, probes included (deterministic per shard count, same offered workload at any; <=1 = serial engine)")
		debugAddr = flag.String("debug-addr", "", "serve the introspection plane on this address, e.g. localhost:9464 (/metrics, /statusz, /healthz, /debug/pprof)")
	)
	flag.Parse()

	if *debugAddr != "" {
		status := func() any {
			return map[string]any{
				"scheme": *scheme, "transport": *transport, "topology": *topology,
				"duration": duration.String(), "seed": *seed,
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

	cfg := vertigo.Defaults(vertigo.Scheme(*scheme), vertigo.Transport(*transport))
	cfg.Seed = *seed
	cfg.Duration = *duration
	cfg.Topology = vertigo.Topology(*topology)
	cfg.Spines = *spines
	cfg.Leaves = *leaves
	cfg.HostsPerLeaf = *hpl
	cfg.FatTreeK = *fatTreeK
	cfg.BackgroundLoad = *bgLoad
	cfg.BackgroundWorkload = *bgWorkload
	cfg.TracePath = *tracePath
	cfg.IncastScale = *incastScale
	cfg.IncastFlowKB = *incastKB
	cfg.IncastQPS = *incastQPS
	cfg.IncastLoad = *incastLoad
	cfg.OrderTimeout = *tau
	cfg.BoostFactor = *boost
	cfg.DisableBoost = *boost == 1
	cfg.LAS = *las

	cfg.Telemetry = *telemetry
	cfg.PacketTracePath = *pktTrace
	cfg.PacketTraceFlow = *traceFlow
	cfg.Shards = *shards
	rep, err := vertigo.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vertigo-sim:", err)
		os.Exit(1)
	}

	if *jsonOut {
		rep.FCTs, rep.QCTs = nil, nil // keep the JSON digestible
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "vertigo-sim:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("scheme=%s transport=%s topology=%s duration=%v seed=%d\n\n",
		*scheme, *transport, *topology, *duration, *seed)
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
