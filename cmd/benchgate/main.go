// Command benchgate is the CI performance gate over the BENCH_*.json
// reports that benchjson emits. It prints a benchstat-style old-vs-new
// table for the headline comparison in the report and exits non-zero
// when a bound is violated, replacing ad-hoc jq threshold checks:
//
//	benchgate -max-regress 10 -zero-alloc BenchmarkDatapath BENCH_run.json
//	benchgate -min-improve 20 -zero-alloc BenchmarkEngine BENCH_core.json
//	benchgate -max-regress 10 -max-rss-mb 1024 BENCH_scale.json
//	benchgate -min-parallel-speedup 2.0 BENCH_parallel.json
//
// -max-regress bounds how far the headline metric (pkts/s for the run
// report, events/s for the core report) may fall below its recorded
// baseline; -min-improve demands it stay at least that far above.
// -zero-alloc requires every benchmark whose name starts with the given
// prefix to report exactly 0 allocs/op; it may be repeated. -max-rss-mb
// bounds the scale run's recorded process peak RSS. -min-parallel-speedup
// requires the sharded scale=huge run to beat the serial one by the given
// factor when the bench machine has at least 4 cores.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// report mirrors the subset of the benchjson schema the gate reads.
// Unknown fields are ignored so the two tools can evolve independently.
type report struct {
	Benchmarks    []benchmark    `json:"benchmarks"`
	CancelChurn   *comparison    `json:"cancel_churn"`
	RunThroughput *runThroughput `json:"run_throughput"`
	ScaleRun      *scaleRun      `json:"scale_run"`
	ParallelRun   *parallelRun   `json:"parallel_run"`
}

type benchmark struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp *float64           `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics"`
}

type comparison struct {
	EngineNsPerOp   float64 `json:"engine_ns_per_op"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op"`
	ImprovementPct  float64 `json:"improvement_pct"`
}

type runThroughput struct {
	BaselinePktsPerSec float64 `json:"baseline_pkts_per_sec"`
	PktsPerSec         float64 `json:"pkts_per_sec"`
	ImprovementPct     float64 `json:"improvement_pct"`
}

type scaleRun struct {
	BaselinePktsPerSec float64 `json:"baseline_pkts_per_sec"`
	PktsPerSec         float64 `json:"pkts_per_sec"`
	FlowsPerRun        float64 `json:"flows_per_run"`
	PeakRSSMB          float64 `json:"peak_rss_mb"`
	ImprovementPct     float64 `json:"improvement_pct"`
}

type parallelRun struct {
	SerialPktsPerSec  float64 `json:"serial_pkts_per_sec"`
	ShardedPktsPerSec float64 `json:"sharded_pkts_per_sec"`
	Speedup           float64 `json:"speedup"`
	Shards            float64 `json:"shards"`
	Cores             float64 `json:"cores"`
}

// prefixList collects repeated -zero-alloc flags.
type prefixList []string

func (p *prefixList) String() string     { return strings.Join(*p, ",") }
func (p *prefixList) Set(s string) error { *p = append(*p, s); return nil }

func main() {
	maxRegress := flag.Float64("max-regress", -1,
		"fail if the headline metric regresses more than this percent below baseline")
	minImprove := flag.Float64("min-improve", -1,
		"fail if the headline metric improves less than this percent over baseline")
	maxRSS := flag.Float64("max-rss-mb", -1,
		"fail if the scale run's peak RSS exceeds this many MiB")
	minSpeedup := flag.Float64("min-parallel-speedup", -1,
		"fail if the sharded run's speedup over serial is below this factor (skipped with a warning when the bench machine had < 4 cores)")
	var zeroAlloc prefixList
	flag.Var(&zeroAlloc, "zero-alloc",
		"require 0 allocs/op for benchmarks with this name prefix (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [flags] BENCH_<suite>.json")
		os.Exit(2)
	}

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		fatal(fmt.Errorf("%s: %w", flag.Arg(0), err))
	}

	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}

	// Headline comparison: whichever of the two benchjson headline blocks
	// the report carries. The benchstat-style table shows old (baseline),
	// new, and delta so the CI log reads like a perf diff, not a boolean.
	headline := ""
	var oldV, newV, deltaPct float64
	switch {
	case rep.ScaleRun != nil:
		headline = "pkts/s (scale=huge)"
		oldV = rep.ScaleRun.BaselinePktsPerSec
		newV = rep.ScaleRun.PktsPerSec
		deltaPct = rep.ScaleRun.ImprovementPct
	case rep.RunThroughput != nil:
		headline = "pkts/s"
		oldV = rep.RunThroughput.BaselinePktsPerSec
		newV = rep.RunThroughput.PktsPerSec
		deltaPct = rep.RunThroughput.ImprovementPct
	case rep.CancelChurn != nil:
		headline = "ns/op (cancel churn)"
		oldV = rep.CancelChurn.BaselineNsPerOp
		newV = rep.CancelChurn.EngineNsPerOp
		deltaPct = rep.CancelChurn.ImprovementPct
	}
	if headline != "" {
		fmt.Printf("%-24s %14s %14s %9s\n", "metric", "old", "new", "delta")
		fmt.Printf("%-24s %14.1f %14.1f %+8.2f%%\n", headline, oldV, newV, deltaPct)
		if *maxRegress >= 0 && deltaPct < -*maxRegress {
			fail("%s regressed %.2f%% against baseline (limit %.0f%%)",
				headline, -deltaPct, *maxRegress)
		}
		if *minImprove >= 0 && deltaPct < *minImprove {
			fail("%s improved only %.2f%% over baseline (need >= %.0f%%)",
				headline, deltaPct, *minImprove)
		}
	} else if *maxRegress >= 0 || *minImprove >= 0 {
		fail("report carries no headline comparison to gate on")
	}

	// Memory-envelope gate: the scale run's process peak RSS must fit the
	// CI budget — the sublinear-memory claim turned into a hard bound.
	if *maxRSS >= 0 {
		switch {
		case rep.ScaleRun == nil:
			fail("report carries no scale_run block to gate peak RSS on")
		case rep.ScaleRun.PeakRSSMB <= 0:
			fail("scale run recorded no peak RSS")
		case rep.ScaleRun.PeakRSSMB > *maxRSS:
			fail("scale run peak RSS %.0f MiB exceeds the %.0f MiB envelope",
				rep.ScaleRun.PeakRSSMB, *maxRSS)
		default:
			fmt.Printf("%-48s %.0f MiB peak RSS (envelope %.0f MiB)  ok\n",
				"scale=huge", rep.ScaleRun.PeakRSSMB, *maxRSS)
		}
	}

	// Multi-core gate: the sharded scale=huge run must beat the serial one
	// by the required factor. A speedup needs cores to show up on, so on a
	// bench machine with fewer than 4 the gate degrades to a warning — the
	// recorded numbers still land in the report for machines that can tell.
	if *minSpeedup >= 0 {
		switch {
		case rep.ParallelRun == nil:
			fail("report carries no parallel_run block to gate speedup on")
		case rep.ParallelRun.Cores < 4:
			fmt.Printf("%-48s %.2fx speedup (%.0f shards, %.0f cores)  skipped: needs >= 4 cores\n",
				"parallel scale=huge", rep.ParallelRun.Speedup,
				rep.ParallelRun.Shards, rep.ParallelRun.Cores)
		case rep.ParallelRun.Speedup < *minSpeedup:
			fail("sharded run speedup %.2fx below the %.2fx floor (%.0f shards, %.0f cores)",
				rep.ParallelRun.Speedup, *minSpeedup,
				rep.ParallelRun.Shards, rep.ParallelRun.Cores)
		default:
			fmt.Printf("%-48s %.2fx speedup (%.0f shards, %.0f cores)  ok\n",
				"parallel scale=huge", rep.ParallelRun.Speedup,
				rep.ParallelRun.Shards, rep.ParallelRun.Cores)
		}
	}

	// Alloc gates: every matching benchmark must exist and be alloc-free.
	for _, prefix := range zeroAlloc {
		matched := 0
		for _, b := range rep.Benchmarks {
			if !strings.HasPrefix(b.Name, prefix) {
				continue
			}
			matched++
			switch {
			case b.AllocsPerOp == nil:
				fail("%s: no allocs/op recorded (run with -benchmem)", b.Name)
			case *b.AllocsPerOp != 0:
				fail("%s: %.0f allocs/op on a zero-alloc path", b.Name, *b.AllocsPerOp)
			default:
				fmt.Printf("%-48s 0 allocs/op  ok\n", b.Name)
			}
		}
		if matched == 0 {
			fail("no benchmarks match -zero-alloc prefix %q", prefix)
		}
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchgate: all gates passed")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
