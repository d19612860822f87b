// Package exp defines the reproduction experiments: one driver per table
// and figure in the paper's evaluation (§2 and §4). Each driver runs the
// required simulation sweep and renders the same rows/series the paper
// reports, at a configurable scale.
package exp

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"vertigo/internal/core"
	"vertigo/internal/fabric"
	"vertigo/internal/metrics"
	"vertigo/internal/obs"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/telemetry"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// Scale sizes an experiment run. The paper's full scale (320 hosts, 5 s) is
// hours of CPU per sweep. The presets are different networks, not one network
// scaled: every scale runs the hosts at 10 Gb/s and the fabric at 40 Gb/s,
// so the leaf-spine's oversubscription, as vertigo-topo prints it, is 0.50:1
// at tiny, small and medium and 2.50:1 at paper.
type Scale struct {
	Name         string
	Spines       int
	Leaves       int
	HostsPerLeaf int
	FatTreeK     int
	SimTime      units.Time
	IncastScale  int // servers per query
	IncastFlowKB int
	Seed         int64
}

// Predefined scales.
var (
	// Tiny is for unit tests and testing.B benchmarks.
	Tiny = Scale{
		Name: "tiny", Spines: 2, Leaves: 4, HostsPerLeaf: 4, FatTreeK: 4,
		SimTime: 30 * units.Millisecond, IncastScale: 8, IncastFlowKB: 20, Seed: 1,
	}
	// Small is the default for the CLI: minutes per sweep.
	Small = Scale{
		Name: "small", Spines: 2, Leaves: 4, HostsPerLeaf: 4, FatTreeK: 4,
		SimTime: 80 * units.Millisecond, IncastScale: 8, IncastFlowKB: 40, Seed: 1,
	}
	// Medium is 64 hosts on the paper's 4 spines and 8 leaves, at an
	// oversubscription of 0.50:1 (the paper's is 2.50:1).
	Medium = Scale{
		Name: "medium", Spines: 4, Leaves: 8, HostsPerLeaf: 8, FatTreeK: 6,
		SimTime: 200 * units.Millisecond, IncastScale: 24, IncastFlowKB: 40, Seed: 1,
	}
	// Paper is the paper's full parameterization (320 hosts, 5 s): use for
	// overnight runs only.
	Paper = Scale{
		Name: "paper", Spines: 4, Leaves: 8, HostsPerLeaf: 40, FatTreeK: 8,
		SimTime: 5 * units.Second, IncastScale: 100, IncastFlowKB: 40, Seed: 1,
	}
	// Huge is the million-flow scale exercise: 1024 hosts (k=16 fat-tree /
	// 16x64 leaf-spine) under an incast-dominated mix of small flows, so ten
	// simulated milliseconds start over a million flows while keeping byte
	// volume CI-sized. It stresses slab recycling, the streaming metrics
	// store and topology build cost rather than per-flow dynamics. The
	// benchmark of record's fattree16_churn workload is this scenario cut to
	// 0.6 simulated ms; TestScaleSublinearRSS runs it whole.
	Huge = Scale{
		Name: "huge", Spines: 8, Leaves: 16, HostsPerLeaf: 64, FatTreeK: 16,
		SimTime: 10 * units.Millisecond, IncastScale: 32, IncastFlowKB: 4, Seed: 1,
	}
)

// ScaleByName resolves a scale preset.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return Tiny, nil
	case "small", "":
		return Small, nil
	case "medium":
		return Medium, nil
	case "paper":
		return Paper, nil
	case "huge":
		return Huge, nil
	}
	return Scale{}, fmt.Errorf("exp: unknown scale %q (tiny|small|medium|paper|huge)", name)
}

// Hosts returns the host count of the leaf-spine variant of the scale.
func (sc Scale) Hosts() int { return sc.Leaves * sc.HostsPerLeaf }

// Table is a rendered experiment result.
type Table struct {
	ID      string     `json:"id"` // e.g. "fig5"
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// Add appends a row; cells are stringified with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case units.Time:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteCSV renders the table as CSV (columns header plus rows).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// Process-global sweep metrics: scrape-visible run progress.
var (
	obsRunsStarted   = obs.NewCounter("vertigo_exp_runs_started_total", "experiment runs started")
	obsRunsCompleted = obs.NewCounter("vertigo_exp_runs_completed_total", "experiment runs completed")
	obsRunsFailed    = obs.NewCounter("vertigo_exp_runs_failed_total", "experiment runs failed (error or panic)")
)

// RunInfo is the per-run instrumentation handed to OnRun. A failed run
// (error or panic) delivers only Label and Err; everything else is zero.
type RunInfo struct {
	Label   string
	Summary *metrics.Summary
	Engine  sim.EngineStats
	Pool    packet.PoolStats
	Sampler *telemetry.Sampler // nil unless SampleTick > 0
	Trace   []byte             // JSONL packet trace; empty unless TraceFlow > 0
	Wall    time.Duration
	Err     string // non-empty when the run failed
	// Flight is the crash flight recorder's JSONL dump: what the run was
	// doing when it died. Only failed runs carry one.
	Flight []byte
}

// EventsPerSec is the run's simulation throughput in events per wall second.
func (ri *RunInfo) EventsPerSec() float64 {
	if ri.Wall <= 0 {
		return 0
	}
	return float64(ri.Engine.Events) / ri.Wall.Seconds()
}

// Experiment is a named table/figure driver. Run executes the sweep under
// opt; a nil opt means NewOptions' defaults.
type Experiment struct {
	ID    string
	Title string
	Run   func(sc Scale, opt *Options) ([]*Table, error)
}

// registry holds all experiments, keyed by ID.
var registry = map[string]*Experiment{}

func register(e *Experiment) { registry[e.ID] = e }

// ByID returns the experiment with the given ID.
func ByID(id string) (*Experiment, error) {
	if e, ok := registry[id]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("exp: unknown experiment %q (try: %s)", id, strings.Join(IDs(), " "))
}

// IDs lists all experiment IDs in stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// baseConfig builds the scenario shared by most experiments: the scale's
// leaf-spine fabric, the given scheme/transport, and the scale's incast
// parameters.
func baseConfig(sc Scale, policy fabric.Policy, proto transport.Protocol) core.Config {
	cfg := core.DefaultConfig(policy, proto)
	cfg.Seed = sc.Seed
	cfg.SimTime = sc.SimTime
	cfg.Kind = core.LeafSpine
	cfg.LeafSpineCfg = topo.LeafSpineConfig{
		Spines:       sc.Spines,
		Leaves:       sc.Leaves,
		HostsPerLeaf: sc.HostsPerLeaf,
		HostRate:     10 * units.Gbps,
		FabricRate:   40 * units.Gbps,
		LinkDelay:    500 * units.Nanosecond,
	}
	cfg.IncastScale = sc.IncastScale
	cfg.IncastFlowSize = int64(sc.IncastFlowKB) * 1000
	return cfg
}

// fatTreeConfig is baseConfig on the scale's fat-tree.
func fatTreeConfig(sc Scale, policy fabric.Policy, proto transport.Protocol) core.Config {
	cfg := baseConfig(sc, policy, proto)
	cfg.Kind = core.FatTree
	cfg.FatTreeCfg = topo.FatTreeConfig{
		K:         sc.FatTreeK,
		Rate:      10 * units.Gbps,
		LinkDelay: 500 * units.Nanosecond,
	}
	return cfg
}

// withLoads sets background load and tops up with incast to reach total.
func withLoads(cfg core.Config, bg, total float64) core.Config {
	cfg.BGLoad = bg
	if total > bg {
		cfg.SetIncastLoad(total - bg)
	} else {
		cfg.IncastQPS = 0
	}
	return cfg
}

// reportFailure emits a failed run's progress line and OnRun record — with
// the flight recorder's dump attached — under the same lock as successful
// runs so lines never interleave.
func (o *Options) reportFailure(label string, err error, fr *obs.FlightRecorder) {
	obsRunsFailed.Inc()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.Progress != nil {
		o.Progress("%-40s FAILED: %s", label, firstLine(err.Error()))
	}
	if o.OnRun != nil {
		o.OnRun(RunInfo{Label: label, Err: err.Error(), Flight: flightDump(fr)})
	}
}

// flightDump renders a flight recorder's ring as JSONL, or nil when nothing
// was recorded (runs that die before their first event still carry the
// watchdog or panic context their recorder captured).
func flightDump(fr *obs.FlightRecorder) []byte {
	if fr == nil || fr.Len() == 0 {
		return nil
	}
	var b bytes.Buffer
	_ = fr.DumpJSONL(&b) // bytes.Buffer writes cannot fail
	return b.Bytes()
}

// run executes one scenario, reporting progress and instrumentation.
func (o *Options) run(label string, cfg core.Config) (*metrics.Summary, *metrics.Collector, error) {
	cfg = o.applyTo(cfg)
	if cfg.Flight == nil && o.FlightLen > 0 {
		// safeRun normally pre-attaches the recorder (so panics can dump
		// it); this covers direct callers, where only the error path needs
		// one.
		cfg.Flight = obs.NewFlightRecorder(o.FlightLen)
	}
	var traceBuf *bytes.Buffer
	if cfg.PacketTraceFlow > 0 && cfg.PacketTrace == nil {
		traceBuf = &bytes.Buffer{}
		cfg.PacketTrace = traceBuf
	}
	obsRunsStarted.Inc()
	start := time.Now()
	res, err := core.Run(cfg)
	if err != nil {
		err = fmt.Errorf("exp: %s: %w", label, err)
		o.reportFailure(label, err, cfg.Flight)
		return nil, nil, err
	}
	obsRunsCompleted.Inc()
	info := RunInfo{
		Label:   label,
		Summary: res.Summary,
		Engine:  res.Engine,
		Pool:    res.Pool,
		Sampler: res.Sampler,
		Wall:    time.Since(start),
	}
	if traceBuf != nil {
		info.Trace = traceBuf.Bytes()
	}
	// One critical section for both hooks, so a run's progress line and its
	// OnRun record can never interleave with another worker's.
	o.mu.Lock()
	if o.Progress != nil {
		o.Progress("%-40s q=%4d/%4d QCT=%-10v FCT=%-10v drops=%d wall=%.2fs ev/s=%.2fM",
			label, res.Summary.QueriesCompleted, res.Summary.QueriesStarted,
			res.Summary.MeanQCT, res.Summary.MeanFCT, res.Summary.Drops,
			info.Wall.Seconds(), info.EventsPerSec()/1e6)
	}
	if o.OnRun != nil {
		o.OnRun(info)
	}
	o.mu.Unlock()
	return res.Summary, res.Collector, nil
}

// pct renders a percentage cell.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// schemeName renders the "system" cell used across tables.
func schemeName(p fabric.Policy, t transport.Protocol) string {
	return p.String() + "+" + t.String()
}
