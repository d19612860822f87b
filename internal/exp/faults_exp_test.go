package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vertigo/internal/core"
	"vertigo/internal/fabric"
	"vertigo/internal/metrics"
	"vertigo/internal/transport"
)

// TestFaultSweepDeterminism pins the acceptance criterion for the fault
// subsystem: a fault schedule produces byte-identical tables at any -j,
// because injection is driven entirely by engine events.
func TestFaultSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, id := range []string{"failheal", "flapstorm"} {
		seq := renderAll(t, id, workers(1))
		par := renderAll(t, id, workers(8))
		if !bytes.Equal(seq, par) {
			t.Errorf("%s: parallel render differs from sequential:\n--- j=1 ---\n%s\n--- j=8 ---\n%s",
				id, seq, par)
		}
	}
}

// TestSweepSurvivesPanic pins the crash-safety guarantee: a panicking run
// fails its own row while the rest of the sweep completes and renders.
func TestSweepSurvivesPanic(t *testing.T) {
	defer func(old func(*Options, string, core.Config) (*metrics.Summary, *metrics.Collector, error)) {
		runFn = old
	}(runFn)
	runFn = func(o *Options, label string, cfg core.Config) (*metrics.Summary, *metrics.Collector, error) {
		if strings.Contains(label, "boom") {
			panic("synthetic crash")
		}
		return &metrics.Summary{}, metrics.NewCollector(), nil
	}

	for _, conc := range []int{1, 4} {
		var rendered []string
		sw := newSweep(workers(conc))
		for _, label := range []string{"a", "boom", "c"} {
			label := label
			sw.add(label, core.Config{}, func(*metrics.Summary, *metrics.Collector) {
				rendered = append(rendered, label)
			})
		}
		err := sw.run()
		var serr *SweepError
		if !errors.As(err, &serr) {
			t.Fatalf("conc=%d: sweep error = %v, want *SweepError", conc, err)
		}
		if len(serr.Failed) != 1 || serr.Failed[0].Label != "boom" || serr.Total != 3 {
			t.Fatalf("conc=%d: SweepError = %+v", conc, serr)
		}
		if !strings.Contains(serr.Failed[0].Err.Error(), "synthetic crash") {
			t.Errorf("conc=%d: panic message lost: %v", conc, serr.Failed[0].Err)
		}
		if len(rendered) != 2 || rendered[0] != "a" || rendered[1] != "c" {
			t.Fatalf("conc=%d: rendered %v, want surviving rows [a c] in order", conc, rendered)
		}
	}
}

// TestSweepCollectsAllErrors pins the batch bugfix: failures no longer abort
// the sweep, and every failure is reported, not just the first.
func TestSweepCollectsAllErrors(t *testing.T) {
	defer func(old func(*Options, string, core.Config) (*metrics.Summary, *metrics.Collector, error)) {
		runFn = old
	}(runFn)
	runFn = func(o *Options, label string, cfg core.Config) (*metrics.Summary, *metrics.Collector, error) {
		if strings.HasPrefix(label, "bad") {
			return nil, nil, errors.New(label + " failed")
		}
		return &metrics.Summary{}, metrics.NewCollector(), nil
	}
	var rendered int
	sw := newSweep(workers(1))
	for _, label := range []string{"bad1", "ok1", "bad2", "ok2"} {
		sw.add(label, core.Config{}, func(*metrics.Summary, *metrics.Collector) { rendered++ })
	}
	err := sw.run()
	var serr *SweepError
	if !errors.As(err, &serr) {
		t.Fatalf("sweep error = %v, want *SweepError", err)
	}
	if len(serr.Failed) != 2 {
		t.Fatalf("collected %d failures, want 2: %+v", len(serr.Failed), serr.Failed)
	}
	if serr.Failed[0].Label != "bad1" || serr.Failed[1].Label != "bad2" {
		t.Errorf("failures out of submission order: %+v", serr.Failed)
	}
	if rendered != 2 {
		t.Errorf("rendered %d successful rows, want 2", rendered)
	}
}

// TestPartialArtifactsOnFailure pins that a sweep with failures still writes
// a well-formed results.json with the failures in the errors section.
func TestPartialArtifactsOnFailure(t *testing.T) {
	defer func(old func(*Options, string, core.Config) (*metrics.Summary, *metrics.Collector, error)) {
		runFn = old
	}(runFn)
	runFn = func(o *Options, label string, cfg core.Config) (*metrics.Summary, *metrics.Collector, error) {
		if label == "doomed" {
			panic("artifact test crash")
		}
		return o.run(label, cfg)
	}
	opt := workers(2)
	rec := NewRecorder()
	opt.OnRun = rec.Record

	sw := newSweep(opt)
	tbl := &Table{ID: "x", Title: "partial", Columns: []string{"label"}}
	good := baseConfig(Tiny, fabric.ECMP, transport.DCTCP)
	good.SimTime = Tiny.SimTime / 8
	good = withLoads(good, 0.1, 0.1)
	sw.add("survivor", good, func(*metrics.Summary, *metrics.Collector) { tbl.Add("survivor") })
	sw.add("doomed", good, nil)
	if err := sw.run(); err == nil {
		t.Fatal("sweep with a panicking run returned nil error")
	}

	dir := t.TempDir()
	m := BuildManifest([]string{"x"}, Tiny, opt.Spec, rec, time.Now(), time.Second)
	if m.Runs != 1 || m.FailedRuns != 1 {
		t.Fatalf("manifest runs=%d failed=%d, want 1/1", m.Runs, m.FailedRuns)
	}
	if err := WriteArtifacts(dir, m, []*Table{tbl}, rec); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Tables []*Table    `json:"tables"`
		Runs   []RunRecord `json:"runs"`
		Errors []RunRecord `json:"errors"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("results.json is not valid JSON: %v", err)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].Label != "survivor" {
		t.Fatalf("runs = %+v, want the one survivor", doc.Runs)
	}
	if len(doc.Errors) != 1 || doc.Errors[0].Label != "doomed" ||
		!strings.Contains(doc.Errors[0].Error, "artifact test crash") {
		t.Fatalf("errors section = %+v", doc.Errors)
	}
	if len(doc.Tables) != 1 || len(doc.Tables[0].Rows) != 1 {
		t.Fatalf("partial table missing: %+v", doc.Tables)
	}
}
