package exp

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/telemetry"
)

// Manifest records one sweep invocation: what ran, the toolchain that
// produced it, and how much work it took. Written to manifest.json so every
// artifact directory is self-describing.
type Manifest struct {
	Experiments []string `json:"experiments"`
	// Spec is the normalized spec the sweep ran: decoding it and calling
	// Resolve gives back the same Scale and Options settings.
	Spec     Spec `json:"spec"`
	Hosts    int  `json:"hosts"`
	FatTreeK int  `json:"fattree_k"`

	GoVersion string `json:"go_version"`
	GitRev    string `json:"git_rev"`

	StartTime    string  `json:"start_time"`
	WallSeconds  float64 `json:"wall_seconds"`
	Runs         int     `json:"runs"`
	FailedRuns   int     `json:"failed_runs,omitempty"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// RunRecord is one simulation run's entry in results.json: the compacted
// metrics summary plus the runtime self-instrumentation. A failed run
// carries only its label and error.
type RunRecord struct {
	Label        string           `json:"label"`
	WallSeconds  float64          `json:"wall_seconds"`
	EventsPerSec float64          `json:"events_per_sec"`
	Engine       sim.EngineStats  `json:"engine"`
	Pool         packet.PoolStats `json:"pool"`
	Summary      *metrics.Summary `json:"summary,omitempty"`
	Error        string           `json:"error,omitempty"`
}

// results is the results.json document: the rendered tables, every
// successful run sorted by label, and a separate section naming the
// failures, so partial sweeps still produce a well-formed artifact.
type results struct {
	Tables []*Table    `json:"tables"`
	Runs   []RunRecord `json:"runs"`
	Errors []RunRecord `json:"errors,omitempty"`
}

// Recorder accumulates per-run artifacts. Install its Record method as
// OnRun; OnRun calls are already serialized, so Recorder needs no lock of
// its own.
type Recorder struct {
	runs    []RunRecord
	failed  []RunRecord
	samples []labeledBytes
	trace   []labeledBytes
	flight  []labeledBytes
}

// labeledBytes is one run's slice of a shared artifact file. Runs complete
// in worker order, so artifact sections are keyed by label and reassembled
// sorted — samples.csv and trace.jsonl come out byte-identical at any -j.
type labeledBytes struct {
	label string
	data  []byte
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record folds one run's instrumentation into the recorder. A Summary holds
// histograms, not per-flow series, so results.json stays proportional to
// the number of runs, not the number of flows. Failed runs (info.Err
// non-empty) are collected into the errors section.
func (r *Recorder) Record(info RunInfo) {
	if info.Err != "" {
		r.failed = append(r.failed, RunRecord{Label: info.Label, Error: info.Err})
		if len(info.Flight) > 0 {
			var b bytes.Buffer
			fmt.Fprintf(&b, "{\"run_start\":%q}\n", info.Label)
			b.Write(info.Flight)
			r.flight = append(r.flight, labeledBytes{info.Label, b.Bytes()})
		}
		return
	}
	r.runs = append(r.runs, RunRecord{
		Label:        info.Label,
		WallSeconds:  info.Wall.Seconds(),
		EventsPerSec: info.EventsPerSec(),
		Engine:       info.Engine,
		Pool:         info.Pool,
		Summary:      info.Summary,
	})
	if info.Sampler != nil && len(info.Sampler.Samples()) > 0 {
		var b bytes.Buffer
		// bytes.Buffer writes never fail, so the CSV render cannot either.
		_ = info.Sampler.WriteCSV(&b, info.Label, false)
		r.samples = append(r.samples, labeledBytes{info.Label, b.Bytes()})
	}
	if len(info.Trace) > 0 {
		var b bytes.Buffer
		fmt.Fprintf(&b, "{\"run_start\":%q}\n", info.Label)
		b.Write(info.Trace)
		r.trace = append(r.trace, labeledBytes{info.Label, b.Bytes()})
	}
}

// SamplesCSV assembles the samples.csv artifact: one header line, then every
// run's series in label order. Empty when no run sampled.
func (r *Recorder) SamplesCSV() []byte {
	if len(r.samples) == 0 {
		return nil
	}
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	_ = cw.Write(telemetry.SamplesCSVHeader())
	cw.Flush()
	for _, s := range sortedSections(r.samples) {
		b.Write(s.data)
	}
	return b.Bytes()
}

// TraceJSONL assembles the trace.jsonl artifact: each run's packet trace
// behind its run_start boundary line, in label order. Empty when no run
// traced.
func (r *Recorder) TraceJSONL() []byte {
	if len(r.trace) == 0 {
		return nil
	}
	var b bytes.Buffer
	for _, s := range sortedSections(r.trace) {
		b.Write(s.data)
	}
	return b.Bytes()
}

// FlightJSONL assembles the flight.jsonl artifact: each failed run's crash
// flight-recorder dump behind its run_start boundary line, in label order.
// Empty when every run succeeded (or the recorder was disabled).
func (r *Recorder) FlightJSONL() []byte {
	if len(r.flight) == 0 {
		return nil
	}
	var b bytes.Buffer
	for _, s := range sortedSections(r.flight) {
		b.Write(s.data)
	}
	return b.Bytes()
}

func sortedSections(in []labeledBytes) []labeledBytes {
	out := make([]labeledBytes, len(in))
	copy(out, in)
	sort.SliceStable(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// Runs returns the recorded runs sorted by label, so results.json is
// deterministic regardless of worker completion order.
func (r *Recorder) Runs() []RunRecord {
	return sortedByLabel(r.runs)
}

// Failed returns the failed runs sorted by label.
func (r *Recorder) Failed() []RunRecord {
	return sortedByLabel(r.failed)
}

func sortedByLabel(recs []RunRecord) []RunRecord {
	out := make([]RunRecord, len(recs))
	copy(out, recs)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// BuildManifest assembles the invocation manifest from the requested
// experiments, the scale and normalized spec they ran at, and the recorded
// runs.
func BuildManifest(ids []string, sc Scale, spec Spec, rec *Recorder, start time.Time, wall time.Duration) Manifest {
	m := Manifest{
		Experiments: ids,
		Spec:        spec,
		Hosts:       sc.Hosts(),
		FatTreeK:    sc.FatTreeK,
		GoVersion:   runtime.Version(),
		GitRev:      gitRev(),
		StartTime:   start.UTC().Format(time.RFC3339),
		WallSeconds: wall.Seconds(),
		Runs:        len(rec.runs),
		FailedRuns:  len(rec.failed),
	}
	for _, r := range rec.runs {
		m.Events += r.Engine.Events
	}
	if s := wall.Seconds(); s > 0 {
		m.EventsPerSec = float64(m.Events) / s
	}
	return m
}

// gitRev reports the VCS revision stamped into the binary by the go tool,
// or "unknown" for non-VCS builds (go test, detached source trees).
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// WriteArtifacts writes the run artifact directory: manifest.json and
// results.json always, samples.csv and trace.jsonl only when the recorder
// captured any.
func WriteArtifacts(dir string, m Manifest, tables []*Table, rec *Recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "manifest.json"), m); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "results.json"), results{
		Tables: tables,
		Runs:   rec.Runs(),
		Errors: rec.Failed(),
	}); err != nil {
		return err
	}
	if s := rec.SamplesCSV(); len(s) > 0 {
		if err := os.WriteFile(filepath.Join(dir, "samples.csv"), s, 0o644); err != nil {
			return err
		}
	}
	if tr := rec.TraceJSONL(); len(tr) > 0 {
		if err := os.WriteFile(filepath.Join(dir, "trace.jsonl"), tr, 0o644); err != nil {
			return err
		}
	}
	if fl := rec.FlightJSONL(); len(fl) > 0 {
		if err := os.WriteFile(filepath.Join(dir, "flight.jsonl"), fl, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("encoding %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}
