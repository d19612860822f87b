package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"vertigo/internal/core"
	"vertigo/internal/metrics"
	"vertigo/internal/units"
)

// childEnv carries a JSON childReq to a re-executed copy of this program.
// Every measurement runs in such a child, one at a time, so that peak RSS
// and GC state belong to that measurement alone.
const childEnv = "VERTIGO_BENCH_CHILD"

type childReq struct {
	Mode     string `json:"mode"` // setup | run | trace | probes | check
	Workload string `json:"workload,omitempty"`
	Seed     int64  `json:"seed"`
	// Scale multiplies the workload's frozen simulated time. Only the tests
	// and the train-identity check set it.
	Scale float64 `json:"scale,omitempty"`
	// Variants that are deliberately not workloads (see README.md).
	Shards   int    `json:"shards,omitempty"`
	FatTreeK int    `json:"fat_tree_k,omitempty"`
	Quick    bool   `json:"quick,omitempty"` // tests: shortest probes and set-up loops
	Out      string `json:"out,omitempty"`
}

// runResult is what one timed core.Run reports.
type runResult struct {
	WallS        float64 `json:"wall_s"`
	Packets      int64   `json:"packets"`
	Digest       string  `json:"sim_digest"`
	Fail         string  `json:"fail,omitempty"`
	PeakRSSMB    float64 `json:"peak_rss_mb"`
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
	// Layer holds the per-layer metrics a timed run can give, named as in
	// BENCHMARK.json.
	Layer map[string]float64 `json:"layer"`
}

type setupResult struct {
	Samples []float64 `json:"samples_s"`
}

// layerResult is what the trace, probes and check children report: metrics
// by name, plus the digest of the run they made, if any.
type layerResult struct {
	WallS  float64            `json:"wall_s,omitempty"`
	Digest string             `json:"sim_digest,omitempty"`
	Warn   string             `json:"warn,omitempty"`
	Layer  map[string]float64 `json:"layer"`
}

// spawn re-executes exe with req and decodes the JSON on the last line of
// its standard output into res.
func spawn(exe string, req childReq, stderr io.Writer, res any) error {
	enc, err := json.Marshal(req)
	if err != nil {
		return err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(enc))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %s %s: %w", req.Mode, req.Workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return fmt.Errorf("child %s %s: parsing result: %w", req.Mode, req.Workload, err)
	}
	return nil
}

// childMain serves one request and returns the process exit code.
func childMain(enc string) int {
	var req childReq
	if err := json.Unmarshal([]byte(enc), &req); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child: bad request:", err)
		return 2
	}
	var (
		res any
		err error
	)
	switch req.Mode {
	case "setup":
		res, err = childSetup(req)
	case "run":
		res, err = childRun(req)
	case "trace":
		res, err = childTrace(req)
	case "probes":
		res, err = childProbes(req)
	case "check":
		res, err = childCheck(req)
	default:
		err = fmt.Errorf("unknown mode %q", req.Mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

// config resolves the request to the scenario it runs.
func (req childReq) config() (workloadSpec, core.Config, error) {
	w, err := workloadByName(req.Workload)
	if err != nil {
		return w, core.Config{}, err
	}
	simTime := w.simTime
	if req.Scale > 0 {
		simTime = units.Time(float64(simTime) * req.Scale)
	}
	cfg := w.build(req.Seed, simTime)
	if req.FatTreeK > 0 {
		cfg = fatTreeChurn(req.FatTreeK)(req.Seed, simTime)
	}
	cfg.Shards = req.Shards
	return w, cfg, nil
}

// frozen reports whether the request runs the workload exactly as
// BENCHMARK.json names it, so that its completion floor applies.
func (req childReq) frozen() bool {
	return req.Scale == 0 && req.Shards == 0 && req.FatTreeK == 0
}

// Set-up is repeated at least setupReps times and for at least setupFor,
// after one discarded warm-up: the leaf-spine scenarios set up in a
// millisecond or two, and nine samples of that do not make a steady median.
// Each repeat starts from a collected heap, as a fresh process would; without
// that, whether a collection lands inside a repeat splits the samples into
// two modes and the median hops between them.
const (
	setupReps    = 9
	setupMaxReps = 200
	setupFor     = 300 * time.Millisecond
)

// childSetup times core.Run with one simulated nanosecond: topology, FIB,
// fabric, hosts, pools and armed generators, and an empty summary.
func childSetup(req childReq) (*setupResult, error) {
	_, cfg, err := req.config()
	if err != nil {
		return nil, err
	}
	cfg.SimTime = 1
	reps, atLeast := setupReps, setupFor
	if req.Quick {
		reps, atLeast = 2, 0
	}
	res := &setupResult{}
	begin := time.Now()
	for i := 0; i <= setupMaxReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := core.Run(cfg); err != nil {
			return nil, err
		}
		if i > 0 {
			res.Samples = append(res.Samples, time.Since(t0).Seconds())
		}
		if len(res.Samples) >= reps && time.Since(begin) >= atLeast {
			break
		}
	}
	return res, nil
}

// childRun calls core.Run exactly once with nothing attached that the
// workload did not ask for.
func childRun(req childReq) (*runResult, error) {
	w, cfg, err := req.config()
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	res, err := core.Run(cfg)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return &runResult{WallS: wall, Fail: err.Error()}, nil
	}
	s := res.Summary
	pkts := float64(s.PacketsSent)
	out := &runResult{
		WallS:        wall,
		Packets:      s.PacketsSent,
		Digest:       simDigest(s),
		Fail:         ledgerFault(s),
		PeakRSSMB:    peakRSSMB(),
		AllocsPerPkt: float64(m1.Mallocs-m0.Mallocs) / pkts,
		Layer:        countMetrics(res, wall),
	}
	if out.Fail == "" && req.frozen() && s.FlowCompletionP < w.minCompletion {
		out.Fail = fmt.Sprintf("flow completion %.1f%% under the floor of %.0f%%", s.FlowCompletionP, w.minCompletion)
	}
	out.Layer["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	out.Layer["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	out.Layer["runtime.alloc_bytes_per_pkt"] = float64(m1.TotalAlloc-m0.TotalAlloc) / pkts
	out.Layer["runtime.cpu_per_wall"] = cpu / wall
	return out, nil
}

// ledgerFault names the first way a summary cannot be right, or "".
func ledgerFault(s *metrics.Summary) string {
	switch {
	case s.FlowsStarted == 0 || s.PacketsSent == 0:
		return "no flows started"
	case s.PacketsRecv > s.PacketsSent:
		return fmt.Sprintf("received %d packets, sent %d", s.PacketsRecv, s.PacketsSent)
	case s.FlowsCompleted > s.FlowsStarted:
		return fmt.Sprintf("completed %d flows, started %d", s.FlowsCompleted, s.FlowsStarted)
	}
	return ""
}

// simDigest is the SHA-256 of the run's compact summary: everything the
// simulation computed and nothing about the host it ran on.
func simDigest(s *metrics.Summary) string {
	h := sha256.New()
	if err := s.Compact().Encode(h); err != nil {
		panic(err) // a Summary always encodes; hashing cannot fail
	}
	return hex.EncodeToString(h.Sum(nil))
}

// countMetrics reads the per-layer counters a run leaves in core.Result.
// All but sim.events_per_s are exact for a seed.
func countMetrics(res *core.Result, wall float64) map[string]float64 {
	s, eng, pool, tr := res.Summary, res.Engine, res.Pool, res.Trains
	pkts := float64(s.PacketsSent)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{
		"sim.events":                     float64(eng.Events),
		"sim.events_per_pkt":             float64(eng.Events) / pkts,
		"sim.events_per_s":               float64(eng.Events) / wall,
		"sim.scheduled":                  float64(eng.Scheduled),
		"sim.free_list_hit_rate":         eng.FreeListHitRate(),
		"sim.tombstoned_pops":            float64(eng.TombstonedPops),
		"sim.peak_pending":               float64(eng.PeakPending),
		"fabric.trains":                  float64(tr.Trains),
		"fabric.segs_per_train":          ratio(float64(tr.Segments), float64(tr.Trains)),
		"fabric.train_invalidated_ratio": ratio(float64(tr.Invalidated), float64(tr.Trains)),
		"fabric.deflections_per_pkt":     float64(s.Deflections) / pkts,
		"fabric.drops_per_pkt":           float64(s.Drops) / pkts,
		"fabric.ecn_marks_per_pkt":       float64(s.ECNMarks) / pkts,
		"fabric.mean_hops":               s.MeanHops,
		"transport.pkts_per_flow":        pkts / float64(s.FlowsStarted),
		"transport.retransmits_per_pkt":  float64(s.Retransmits) / pkts,
		"transport.rtos":                 float64(s.RTOs),
		"transport.fast_retx":            float64(s.FastRetx),
		"host.reorder_rate":              s.ReorderRate,
		"packet.pool_gets":               float64(pool.Gets),
		"packet.pool_recycle_rate":       pool.RecycleRate(),
		"packet.pool_slabs":              float64(pool.Slabs),
		"metrics.flows_started":          float64(s.FlowsStarted),
		"metrics.flow_completion_pct":    s.FlowCompletionP,
		"metrics.queries_started":        float64(s.QueriesStarted),
		"metrics.mean_fct_us":            float64(s.MeanFCT) / float64(units.Microsecond),
		"metrics.p99_qct_us":             float64(s.P99QCT) / float64(units.Microsecond),
		"telemetry.sampler_rows":         0,
	}
	if res.Sampler != nil {
		m["telemetry.sampler_rows"] = float64(len(res.Sampler.Samples()))
	}
	return m
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail on Linux
	}
	return ru
}

// cpuSeconds is the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is this process's high-water resident set in MiB; Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }
