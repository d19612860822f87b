// Command vertigo-exp regenerates the paper's tables and figures.
//
// Usage:
//
//	vertigo-exp [-scale tiny|small|medium|paper|huge] [-v] [-out DIR] <experiment>...
//	vertigo-exp -list
//	vertigo-exp all
//
// Experiments map one-to-one to the paper's evaluation artifacts: fig1,
// fig5–fig13, table2, table3, sec2, plus the extra "defset" ablation.
// Absolute numbers depend on the scale; the orderings and trends are the
// reproduction targets (see EXPERIMENTS.md).
//
// With -out, every invocation writes a self-describing artifact directory:
// manifest.json (what ran, toolchain, throughput), results.json (tables plus
// every run's summary and engine/pool counters), and — when -sample-tick or
// -trace-flow are set — samples.csv and trace.jsonl.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"sync"
	"time"

	"vertigo/internal/exp"
	"vertigo/internal/faults"
	"vertigo/internal/metrics"
	"vertigo/internal/obs"
	"vertigo/internal/units"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "vertigo-exp:", err)
		os.Exit(1)
	}
}

func realMain() error {
	opt := exp.NewOptions()
	var (
		scale   = flag.String("scale", "small", "scale preset: tiny|small|medium|paper|huge")
		verbose = flag.Bool("v", false, "print one progress line per simulation run (label, metrics, wall time, events/sec)")
		list    = flag.Bool("list", false, "list experiments and exit")
		csvDir  = flag.String("csv", "", "also write each table as CSV into this directory")
		par     = flag.Int("parallel", 1, "experiments to run concurrently (tables still print in order)")
		jobs    = flag.Int("j", opt.Concurrency,
			"simulations to run concurrently within each experiment (1 = sequential; tables are identical at any setting)")

		outDir     = flag.String("out", "", "write run artifacts (manifest.json, results.json, samples.csv, trace.jsonl) into this directory")
		sampleTick = flag.Duration("sample-tick", 0, "per-port queue/utilization sampling tick, e.g. 100us (0 = off; series lands in -out samples.csv)")
		traceFlow  = flag.Uint64("trace-flow", 0, "JSONL packet trace for this flow ID (0 = off; trace lands in -out trace.jsonl)")

		faultSpec = flag.String("fault", "",
			`fault schedule injected into every run, e.g. "flap@10ms:link=64,down=1ms,period=4ms,count=3" (see internal/faults)`)
		healDelay  = flag.Duration("heal-delay", 0, "control-plane healing delay after each -fault topology change (0 = healing off)")
		runTimeout = flag.Duration("run-timeout", 0, "wall-clock budget per simulation run; an over-budget run fails its row (0 = unlimited)")
		shards     = flag.Int("shards", 0, "shard every simulation across this many topology domains on separate cores, probes included (tables are deterministic per shard count, same offered workload at any; <=1 = serial engine)")

		debugAddr = flag.String("debug-addr", "", "serve the introspection plane on this address, e.g. localhost:9464 (/metrics, /statusz, /healthz, /debug/pprof)")
		rawSeries = flag.String("raw-series", "auto", "raw FCT/QCT series retention: auto (drop past 200k flows/run), keep, drop (histograms still carry the distributions)")
		flightLen = flag.Int("flight", opt.FlightLen, "crash flight recorder ring size per run; a crashed or watchdog-killed run dumps it to -out flight.jsonl (0 = off)")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		traceFile  = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			e, _ := exp.ByID(id)
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}

	sc, err := exp.ScaleByName(*scale)
	if err != nil {
		return err
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return err
		}
		defer trace.Stop()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vertigo-exp: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "vertigo-exp: memprofile:", err)
			}
		}()
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: vertigo-exp [-scale S] [-j N] [-parallel N] [-csv DIR] [-out DIR] [-v] <experiment>... | all | -list")
		os.Exit(2)
	}
	var ids []string
	if len(args) == 1 && args[0] == "all" {
		ids = exp.IDs()
	} else {
		ids = args
	}

	fmt.Printf("scale=%s (%d hosts leaf-spine, fat-tree k=%d, %v simulated)\n\n",
		sc.Name, sc.Hosts(), sc.FatTreeK, sc.SimTime)

	// Resolve everything up front so typos fail before hours of simulation.
	exps := make([]*exp.Experiment, len(ids))
	for i, id := range ids {
		e, err := exp.ByID(strings.ToLower(id))
		if err != nil {
			return err
		}
		exps[i] = e
		ids[i] = e.ID
	}

	// One Options for the whole invocation: every experiment gets this
	// pointer, so -parallel runs serialise Progress and OnRun on its lock.
	opt.Concurrency = max(1, *jobs)
	opt.RunTimeout = *runTimeout
	opt.FlightLen = *flightLen
	opt.SampleTick = units.FromDuration(*sampleTick)
	opt.TraceFlow = *traceFlow
	if *faultSpec != "" {
		if opt.FaultSchedule, err = faults.Parse(*faultSpec); err != nil {
			return err
		}
	}
	opt.HealDelay = units.FromDuration(*healDelay)
	if opt.RawMode, err = metrics.ParseRawMode(*rawSeries); err != nil {
		return err
	}
	opt.Shards = *shards
	if *verbose {
		opt.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	var rec *exp.Recorder
	if *outDir != "" {
		rec = exp.NewRecorder()
		opt.OnRun = rec.Record
	}
	start := time.Now()

	if *debugAddr != "" {
		status := func() any {
			return map[string]any{
				"experiments": ids,
				"scale":       sc.Name,
				"concurrency": opt.Concurrency,
				"start_time":  start.UTC().Format(time.RFC3339),
			}
		}
		// The returned closer is deliberately unused: the -debug-addr plane
		// runs until process exit so the last scrape still sees final counts.
		addr, _, err := obs.Serve(*debugAddr, obs.Default, status)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		fmt.Fprintf(os.Stderr, "introspection plane on http://%s/ (metrics, statusz, healthz, pprof)\n", addr)
	}

	// Experiments are independent deterministic simulations: run up to
	// -parallel of them concurrently, but print results in request order.
	type outcome struct {
		tables []*exp.Table
		err    error
	}
	results := make([]outcome, len(exps))
	sem := make(chan struct{}, max(1, *par))
	var wg sync.WaitGroup
	for i, e := range exps {
		i, e := i, e
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			tables, err := e.Run(sc, opt)
			results[i] = outcome{tables, err}
		}()
	}
	wg.Wait()

	// Failures no longer void an invocation: each experiment's surviving
	// tables still print and land in the artifacts, and the errors come back
	// aggregated at the end.
	var allTables []*exp.Table
	var runErrs []error
	for i, r := range results {
		if r.err != nil {
			runErrs = append(runErrs, fmt.Errorf("%s: %w", exps[i].ID, r.err))
		}
		tables := r.tables
		allTables = append(allTables, tables...)
		for i, t := range tables {
			t.Fprint(os.Stdout)
			fmt.Println()
			if *csvDir != "" {
				name := fmt.Sprintf("%s-%d.csv", t.ID, i)
				if len(tables) == 1 {
					name = t.ID + ".csv"
				}
				f, err := os.Create(filepath.Join(*csvDir, name))
				if err != nil {
					return err
				}
				if err := t.WriteCSV(f); err != nil {
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
		}
	}

	if rec != nil {
		m := exp.BuildManifest(ids, sc, opt.Concurrency, rec, start, time.Since(start))
		if err := exp.WriteArtifacts(*outDir, m, allTables, rec); err != nil {
			return fmt.Errorf("writing artifacts: %w", err)
		}
		fmt.Printf("artifacts: %s (%d runs, %d failed, %.2fs wall, %.2fM events/s)\n",
			*outDir, m.Runs, m.FailedRuns, m.WallSeconds, m.EventsPerSec/1e6)
	}
	return errors.Join(runErrs...)
}
