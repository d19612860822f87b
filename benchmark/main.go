// Command benchmark is this repository's benchmark of record: four frozen
// workloads, end-to-end metrics with regression bounds, and per-layer
// metrics measured from outside the simulator. README.md in this directory
// says what is measured and why; BENCHMARK.json at the repository root names
// every workload and metric.
//
//	go run ./benchmark                        everything, as one JSON document
//	go run ./benchmark -workload leafspine_bulk
//	go run ./benchmark -compare A.json B.json
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"text/tabwriter"
)

func main() {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

func parentMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 1, "simulation seed, passed through core.Config.Seed")
	reps := fs.Int("reps", 5, "timed runs per workload, when -seconds is not given")
	seconds := fs.Float64("seconds", 0, "measure each workload for about this long, in at least 3 timed runs")
	trace := fs.String("trace", "", "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics, as one result line")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for result.json, trace.jsonl and CPU profiles")
	compare := fs.Bool("compare", false, "compare two result.json files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	r := &runner{exe: exe, spec: spec, seed: *seed, out: *out, log: stderr}
	more := func(n int, measured float64) bool { return n < *reps }
	if *seconds > 0 {
		// Stop at the run count that lands closest to the asked-for time.
		more = func(n int, measured float64) bool { return n < 3 || measured+measured/float64(n)/2 < *seconds }
	}
	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if *trace != "" {
		if len(names) != 1 || *trace != "0" && *trace != "1" {
			return fail(fmt.Errorf("-trace takes 0 or 1 and needs -workload"))
		}
		line, err := r.resultLine(names[0], *trace == "1", more)
		if err != nil {
			return fail(err)
		}
		return emit(stdout, line, fail)
	}
	doc, err := r.everything(names, more)
	if err != nil {
		return fail(err)
	}
	doc.print(stderr, spec)
	enc, err := json.Marshal(doc)
	if err == nil {
		err = os.WriteFile(filepath.Join(r.out, "result.json"), append(enc, '\n'), 0o644)
	}
	if err != nil {
		return fail(err)
	}
	return emit(stdout, doc, fail)
}

func emit(w io.Writer, v any, fail func(error) int) int {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return fail(err)
	}
	return 0
}

// runner makes the measurements, each in a child process of its own, one
// child alive at a time.
type runner struct {
	exe  string
	spec *benchSpec
	seed int64
	out  string
	log  io.Writer
	// Tests shorten every run: scale multiplies simulated time, quick cuts
	// the set-up, probe and shard repetitions to the minimum.
	scale float64
	quick bool
}

// stat is one end-to-end metric over the timed runs of a workload (over the
// set-up child's samples for setup_s).
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func newStat(unit string, v []float64) stat {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return stat{Unit: unit, Median: quartile(s, 2), Min: s[0], Max: s[len(s)-1], Q1: quartile(s, 1), Q3: quartile(s, 3), N: len(s)}
}

func median(v []float64) float64 { return newStat("", v).Median }

// quartile is the i-th quartile of sorted s as Python's
// statistics.quantiles(s, n=4) computes it, which is how the pipeline that
// gates on this benchmark measures spread; the second is the median.
func quartile(s []float64, i int) float64 {
	m := len(s)
	if m < 2 {
		return s[0]
	}
	j := min(max(i*(m+1)/4, 1), m-1)
	delta := float64(i*(m+1) - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Name      string   `json:"name"`
	SimDigest string   `json:"sim_digest"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FailRate  float64  `json:"fail_rate"`
	Failures  []string `json:"failures,omitempty"`
	// WallS is the median wall time of the timed core.Run calls.
	WallS    float64            `json:"wall_s"`
	EndToEnd map[string]stat    `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer"`

	ok []runResult // the timed runs that did not fail
}

// document is what one full invocation prints and writes to result.json.
type document struct {
	GoVersion string           `json:"go_version"`
	NProc     int              `json:"nproc"`
	Seed      int64            `json:"seed"`
	Workloads []workloadResult `json:"workloads"`
	// Probes and Cross do not belong to a workload: the op-replay probes,
	// and the cross-run ratios with the train-identity check.
	Probes   map[string]float64 `json:"probes,omitempty"`
	Cross    map[string]float64 `json:"cross,omitempty"`
	Warnings []string           `json:"warnings,omitempty"`
}

func (r *runner) logf(format string, a ...any) { fmt.Fprintf(r.log, format+"\n", a...) }

func (r *runner) req(mode, workload string) childReq {
	return childReq{Mode: mode, Workload: workload, Seed: r.seed, Scale: r.scale, Quick: r.quick, Out: r.out}
}

// timedPass measures a workload with nothing attached: one child for
// set-up time, then one child per timed core.Run while more says so.
func (r *runner) timedPass(name string, more func(n int, measured float64) bool) (*workloadResult, error) {
	var setup setupResult
	if err := spawn(r.exe, r.req("setup", name), r.log, &setup); err != nil {
		return nil, err
	}
	w := &workloadResult{Name: name}
	var measured float64
	for n := 0; more(n, measured); n++ {
		var run runResult
		if err := spawn(r.exe, r.req("run", name), r.log, &run); err != nil {
			return nil, err
		}
		measured += run.WallS
		w.Attempted++
		switch {
		case run.Fail == "" && w.SimDigest == "":
			w.SimDigest = run.Digest
		case run.Fail == "" && run.Digest != w.SimDigest:
			run.Fail = "sim_digest " + run.Digest + " differs from an earlier run's " + w.SimDigest
		}
		if run.Fail != "" {
			w.Failed++
			w.Failures = append(w.Failures, run.Fail)
			r.logf("%s: run %d FAILED: %s", name, n+1, run.Fail)
			continue
		}
		w.ok = append(w.ok, run)
		r.logf("%s: run %d: %.2f s, %.0f pkts/s", name, n+1, run.WallS, float64(run.Packets)/run.WallS)
	}
	w.FailRate = float64(w.Failed) / float64(w.Attempted)
	if len(w.ok) == 0 {
		return w, fmt.Errorf("%s: every timed run failed: %v", name, w.Failures)
	}

	col := func(f func(runResult) float64) []float64 {
		v := make([]float64, len(w.ok))
		for i, run := range w.ok {
			v[i] = f(run)
		}
		return v
	}
	w.WallS = median(col(func(x runResult) float64 { return x.WallS }))
	values := map[string][]float64{
		"pkts_per_s":     col(func(x runResult) float64 { return float64(x.Packets) / x.WallS }),
		"peak_rss_mb":    col(func(x runResult) float64 { return x.PeakRSSMB }),
		"allocs_per_pkt": col(func(x runResult) float64 { return x.AllocsPerPkt }),
		"setup_s":        setup.Samples,
	}
	w.EndToEnd = map[string]stat{}
	for _, m := range r.spec.EndToEnd {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s lists end-to-end metric %q, which the benchmark does not measure", specFile, m.Name)
		}
		w.EndToEnd[m.Name] = newStat(m.Unit, v)
	}
	// The counters are exact for a seed, so their median is their value;
	// the few host-time figures among them get a real median.
	w.PerLayer = map[string]float64{}
	for name := range w.ok[0].Layer {
		w.PerLayer[name] = median(col(func(x runResult) float64 { return x.Layer[name] }))
	}
	return w, nil
}

// tracedPass runs the workload once more, assembled by trace.go under spans
// and a CPU profile, and adds what that shows to w.PerLayer.
func (r *runner) tracedPass(w *workloadResult) error {
	var tr layerResult
	if err := spawn(r.exe, r.req("trace", w.Name), r.log, &tr); err != nil {
		return err
	}
	if tr.Digest != w.SimDigest {
		return fmt.Errorf("%s: the traced assembly's sim_digest %s is not core.Run's %s: trace.go no longer mirrors core.Run",
			w.Name, tr.Digest, w.SimDigest)
	}
	for name, v := range tr.Layer {
		w.PerLayer[name] = v
	}
	w.PerLayer["trace.overhead_pct"] = 100 * (tr.WallS - w.WallS) / w.WallS
	return nil
}

// crossPass measures the variants that are not workloads, against serial
// timed runs of fattree16_churn.
func (r *runner) crossPass(serial *workloadResult) (map[string]float64, error) {
	run := func(edit func(*childReq)) (runResult, error) {
		req := r.req("run", serial.Name)
		edit(&req)
		var res runResult
		if err := spawn(r.exe, req, r.log, &res); err != nil {
			return res, err
		}
		if res.Fail != "" {
			return res, fmt.Errorf("%s variant %+v: %s", serial.Name, req, res.Fail)
		}
		return res, nil
	}
	// The same load per host on an eighth of the hosts for ten times as long.
	k8, err := run(func(q *childReq) {
		q.FatTreeK = 8
		q.Scale = 10
		if r.scale > 0 {
			q.Scale *= r.scale
		}
	})
	if err != nil {
		return nil, err
	}
	nsPerEvent := func(x runResult) float64 { return x.WallS * 1e9 / x.Layer["sim.events"] }
	var gap []float64
	for _, x := range serial.ok {
		gap = append(gap, nsPerEvent(x)/nsPerEvent(k8))
	}

	shardReps := 3
	if r.quick {
		shardReps = 1
	}
	var wall, rss, cpu []float64
	for i := 0; i < shardReps; i++ {
		s, err := run(func(q *childReq) { q.Shards = 2 })
		if err != nil {
			return nil, err
		}
		wall = append(wall, s.WallS)
		rss = append(rss, s.PeakRSSMB)
		cpu = append(cpu, s.Layer["runtime.cpu_per_wall"])
	}
	return map[string]float64{
		"core.scale_gap_ns_per_event": median(gap),
		"core.shards2_speedup":        serial.WallS / median(wall),
		"core.shards2_rss_ratio":      median(rss) / serial.EndToEnd["peak_rss_mb"].Median,
		"core.shards2_cpu_per_wall":   median(cpu),
	}, nil
}

// global runs the passes that do not belong to a workload: the probes, the
// cross-run ratios and the train-identity check, whose metrics join the
// cross-run ones.
func (r *runner) global(serial *workloadResult) (probes, cross map[string]float64, warnings []string, err error) {
	var p, check layerResult
	r.logf("probes")
	if err = spawn(r.exe, r.req("probes", ""), r.log, &p); err != nil {
		return
	}
	r.logf("cross-run ratios")
	if cross, err = r.crossPass(serial); err != nil {
		return
	}
	r.logf("train identity")
	if err = spawn(r.exe, r.req("check", ""), r.log, &check); err != nil {
		return
	}
	for name, v := range check.Layer {
		cross[name] = v
	}
	if check.Warn != "" {
		r.logf("%s", check.Warn)
		warnings = append(warnings, check.Warn)
	}
	return p.Layer, cross, warnings, nil
}

const crossWorkload = "fattree16_churn"

func (r *runner) prepareOut() error {
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	// The trace children append to one file.
	return os.WriteFile(filepath.Join(r.out, "trace.jsonl"), nil, 0o644)
}

// everything is a full invocation: the timed pass and the traced pass on
// each named workload, then the passes that belong to none.
func (r *runner) everything(names []string, more func(int, float64) bool) (*document, error) {
	if err := r.prepareOut(); err != nil {
		return nil, err
	}
	doc := &document{GoVersion: runtime.Version(), NProc: runtime.NumCPU(), Seed: r.seed}
	var serial *workloadResult
	for _, name := range names {
		w, err := r.timedPass(name, more)
		if err != nil {
			return nil, err
		}
		r.logf("%s: traced run", name)
		if err := r.tracedPass(w); err != nil {
			return nil, err
		}
		doc.Workloads = append(doc.Workloads, *w)
		if name == crossWorkload {
			serial = w
		}
	}
	if serial == nil {
		return doc, nil // the cross-run ratios need fattree16_churn's timed runs
	}
	var err error
	doc.Probes, doc.Cross, doc.Warnings, err = r.global(serial)
	return doc, err
}

// resultLine is one run for the pipeline that gates changes on this
// benchmark: a single workload, and either the end-to-end metrics from a
// timed pass alone or every per-layer metric.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runner) resultLine(name string, traced bool, more func(int, float64) bool) (*resultLine, error) {
	if !traced {
		w, err := r.timedPass(name, more)
		if err != nil {
			return nil, err
		}
		line := &resultLine{Correct: w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]metricValue{}}
		for _, m := range r.spec.EndToEnd {
			line.Metrics[m.Name] = metricValue{w.EndToEnd[m.Name].Median, m.Unit}
		}
		return line, nil
	}

	// The per-layer numbers need one timed run to read the counters from
	// and to compare the traced run with, not a steady median.
	if err := r.prepareOut(); err != nil {
		return nil, err
	}
	once := func(n int, _ float64) bool { return n < 1 }
	w, err := r.timedPass(name, once)
	if err != nil {
		return nil, err
	}
	if err := r.tracedPass(w); err != nil {
		return nil, err
	}
	serial := w
	if name != crossWorkload {
		if serial, err = r.timedPass(crossWorkload, once); err != nil {
			return nil, err
		}
	}
	probes, cross, _, err := r.global(serial)
	if err != nil {
		return nil, err
	}
	all := map[string]float64{}
	for _, m := range []map[string]float64{w.PerLayer, probes, cross} {
		for name, v := range m {
			all[name] = v
		}
	}
	if err := checkNames(r.spec.PerLayer, all); err != nil {
		return nil, err
	}
	// The traced assembly counts as an operation: it has just been checked
	// against core.Run's digest.
	line := &resultLine{Correct: w.Failed == 0, Attempted: w.Attempted + 1, Failed: w.Failed, Metrics: map[string]metricValue{}}
	for _, m := range r.spec.PerLayer {
		line.Metrics[m.Name] = metricValue{all[m.Name], m.Unit}
	}
	return line, nil
}

// print writes the human-readable tables.
func (d *document) print(w io.Writer, spec *benchSpec) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "\n%s, %d CPUs, seed %d\n", d.GoVersion, d.NProc, d.Seed)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tmin\tmax\tn\tunit")
	for _, wl := range d.Workloads {
		for _, m := range spec.EndToEnd {
			s := wl.EndToEnd[m.Name]
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%s\n", wl.Name, m.Name, s.Median, s.Min, s.Max, s.N, s.Unit)
		}
		fmt.Fprintf(tw, "%s\tfail_rate\t%g\t\t\t%d\t\n", wl.Name, wl.FailRate, wl.Attempted)
		fmt.Fprintf(tw, "%s\tsim_digest\t%s\n", wl.Name, wl.SimDigest)
	}
	tw.Flush()

	unit := map[string]string{}
	for _, m := range spec.PerLayer {
		unit[m.Name] = m.Unit
	}
	block := func(title string, m map[string]float64) {
		if len(m) == 0 {
			return
		}
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(tw, "\n%s\n", title)
		for _, name := range names {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", name, m[name], unit[name])
		}
		tw.Flush()
	}
	for _, wl := range d.Workloads {
		block("per layer: "+wl.Name, wl.PerLayer)
	}
	block("probes", d.Probes)
	block("cross-run", d.Cross)
	for _, warn := range d.Warnings {
		fmt.Fprintln(w, warn)
	}
}
