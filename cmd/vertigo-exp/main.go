// Command vertigo-exp regenerates the paper's tables and figures.
//
// Usage:
//
//	vertigo-exp [-scale tiny|small|medium|paper|huge] [-seed N] [-sim-time D] [-v] [-out DIR] <experiment>...
//	vertigo-exp -list
//	vertigo-exp all
//
// Experiments map one-to-one to the paper's evaluation artifacts: fig1,
// fig5–fig13, table2, table3, sec2, plus the extra "defset" ablation.
// Absolute numbers depend on the scale; the orderings and trends are the
// reproduction targets (see EXPERIMENTS.md).
//
// The sweep flags (-scale, -seed, -sim-time, -j, -fault, -heal-delay,
// -run-timeout, -max-events, -sample-tick, -trace-flow,
// -chaos-panic-at) are the fields of exp.Spec — the same spec,
// under the same names with underscores, that a vertigo-serve job submits
// as JSON. Every spec is resolved, and rejected if invalid, before anything
// prints or runs.
//
// With -out, every invocation writes a self-describing artifact directory:
// manifest.json (the normalized spec, toolchain, throughput), results.json
// (tables plus every run's summary and engine/pool counters), and — when
// -sample-tick or -trace-flow are set — samples.csv and trace.jsonl.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"sync"
	"time"

	"vertigo/internal/exp"
	"vertigo/internal/obs"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil || errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "vertigo-exp:", err)
		os.Exit(1)
	}
}

// errUsage reports a command line that names no experiment or does not
// parse; the usage has been printed already.
var errUsage = errors.New("usage")

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vertigo-exp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := exp.NewOptions().Spec // a worker per CPU unless -j says otherwise
	spec.RegisterFlags(fs)
	var (
		verbose = fs.Bool("v", false, "print one progress line per simulation run (label, metrics, wall time, events/sec)")
		list    = fs.Bool("list", false, "list experiments and exit")
		csvDir  = fs.String("csv", "", "also write each table as CSV into this directory")
		par     = fs.Int("parallel", 1, "experiments to run concurrently (tables still print in order)")
		outDir  = fs.String("out", "", "write run artifacts (manifest.json, results.json, samples.csv, trace.jsonl) into this directory")

		debugAddr = fs.String("debug-addr", "", "serve the introspection plane on this address, e.g. localhost:9464 (/metrics, /statusz, /healthz, /debug/pprof)")
		flightLen = fs.Int("flight", exp.DefaultFlightLen, "crash flight recorder ring size per run; a crashed or watchdog-killed run dumps it to -out flight.jsonl (0 = off)")

		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
		traceFile  = fs.String("trace", "", "write a runtime execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	if *list {
		for _, id := range exp.IDs() {
			e, _ := exp.ByID(id)
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}

	// Resolve everything up front so a bad spec or a typo fails before
	// hours of simulation, and before anything prints.
	sc, opt, err := spec.Resolve()
	if err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fmt.Fprintln(stderr, "usage: vertigo-exp [-scale S] [-j N] [-parallel N] [-csv DIR] [-out DIR] [-v] <experiment>... | all | -list")
		return errUsage
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = exp.IDs()
	}
	exps := make([]*exp.Experiment, len(ids))
	for i, id := range ids {
		e, err := exp.ByID(strings.ToLower(id))
		if err != nil {
			return err
		}
		exps[i] = e
		ids[i] = e.ID
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
				fmt.Fprintln(stderr, "vertigo-exp: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "vertigo-exp: memprofile:", err)
			}
		}()
	}

	fmt.Fprintf(stdout, "scale=%s (%d hosts leaf-spine, fat-tree k=%d, %v simulated)\n\n",
		sc.Name, sc.Hosts(), sc.FatTreeK, sc.SimTime)

	// One Options for the whole invocation: every experiment gets this
	// pointer, so -parallel runs serialise Progress and OnRun on its lock.
	opt.FlightLen = *flightLen
	if *verbose {
		opt.Progress = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
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
				"spec":        opt.Spec,
				"start_time":  start.UTC().Format(time.RFC3339),
			}
		}
		// The returned closer is deliberately unused: the -debug-addr plane
		// runs until process exit so the last scrape still sees final counts.
		addr, _, err := obs.Serve(*debugAddr, obs.Default, status)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		fmt.Fprintf(stderr, "introspection plane on http://%s/ (metrics, statusz, healthz, pprof)\n", addr)
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

	// Failures do not void an invocation: each experiment's surviving
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
			t.Fprint(stdout)
			fmt.Fprintln(stdout)
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
		m := exp.BuildManifest(ids, sc, opt.Spec, rec, start, time.Since(start))
		if err := exp.WriteArtifacts(*outDir, m, allTables, rec); err != nil {
			return fmt.Errorf("writing artifacts: %w", err)
		}
		fmt.Fprintf(stdout, "artifacts: %s (%d runs, %d failed, %.2fs wall, %.2fM events/s)\n",
			*outDir, m.Runs, m.FailedRuns, m.WallSeconds, m.EventsPerSec/1e6)
	}
	return errors.Join(runErrs...)
}
