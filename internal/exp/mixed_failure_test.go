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

// TestMixedFailureSweep pins the whole failure-aggregation surface at once:
// a single -j8 sweep mixing a deliberate panic, a wall-clock watchdog kill,
// and healthy runs must (1) render every healthy row, (2) aggregate both
// failures into one SweepError whose Unwrap tree classifies each with
// errors.Is, and (3) dump a non-empty flight recording for each failed run.
func TestMixedFailureSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	opt := workers(8)
	opt.FlightLen = 1024
	opt.Spec.RunTimeout = Duration(time.Minute)
	rec := NewRecorder()
	opt.OnRun = rec.Record

	short := func() core.Config {
		cfg := baseConfig(Tiny, fabric.Vertigo, transport.DCTCP)
		cfg.SimTime = Tiny.SimTime / 8
		return cfg
	}

	var rendered []string
	tbl := &Table{ID: "mixed", Title: "mixed", Columns: []string{"label"}}
	sw := newSweep(opt)
	for _, label := range []string{"healthy-a", "healthy-b", "healthy-c"} {
		label := label
		sw.add(label, short(), func(*metrics.Summary, *metrics.Collector) {
			rendered = append(rendered, label)
			tbl.Add(label)
		})
	}
	panicky := short()
	panicky.ChaosPanicAt = panicky.SimTime / 4
	sw.add("panics", panicky, nil)
	wedged := short()
	wedged.WallTimeout = time.Nanosecond
	sw.add("timesout", wedged, nil)

	err := sw.run()
	var serr *SweepError
	if !errors.As(err, &serr) {
		t.Fatalf("sweep error = %v, want *SweepError", err)
	}
	if serr.Total != 5 || len(serr.Failed) != 2 {
		t.Fatalf("SweepError total=%d failed=%d, want 5 and 2", serr.Total, len(serr.Failed))
	}
	if len(rendered) != 3 {
		t.Fatalf("rendered %v, want all three healthy rows", rendered)
	}

	// The multi-error Unwrap tree classifies each failure without string
	// matching: the whole aggregate contains both classes...
	if !errors.Is(err, ErrPanic) || !errors.Is(err, core.ErrWallBudget) {
		t.Fatalf("aggregate error misses a class: Is(ErrPanic)=%v Is(ErrWallBudget)=%v",
			errors.Is(err, ErrPanic), errors.Is(err, core.ErrWallBudget))
	}
	// ...and each RunError carries exactly its own.
	for i := range serr.Failed {
		re := &serr.Failed[i]
		switch re.Label {
		case "panics":
			if !errors.Is(re, ErrPanic) || errors.Is(re, core.ErrWallBudget) {
				t.Errorf("panics: wrong class: %v", re)
			}
			if !strings.Contains(re.Err.Error(), "chaos panic") {
				t.Errorf("panics: message lost the panic value: %v", re.Err)
			}
		case "timesout":
			if !errors.Is(re, core.ErrWallBudget) || errors.Is(re, ErrPanic) {
				t.Errorf("timesout: wrong class: %v", re)
			}
		default:
			t.Errorf("unexpected failed label %q", re.Label)
		}
	}

	// Partial artifacts: healthy rows in the table, both failures in the
	// errors section, and a flight dump for each failed run.
	dir := t.TempDir()
	m := BuildManifest([]string{"mixed"}, Tiny, opt.Spec, rec, time.Now(), time.Second)
	if m.Runs != 3 || m.FailedRuns != 2 {
		t.Fatalf("manifest runs=%d failed=%d, want 3/2", m.Runs, m.FailedRuns)
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
		Errors []RunRecord `json:"errors"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Tables) != 1 || len(doc.Tables[0].Rows) != 3 {
		t.Fatalf("partial table = %+v, want the three healthy rows", doc.Tables)
	}
	if len(doc.Errors) != 2 {
		t.Fatalf("errors section = %+v, want both failures", doc.Errors)
	}
	fl, err := os.ReadFile(filepath.Join(dir, "flight.jsonl"))
	if err != nil {
		t.Fatalf("flight.jsonl missing: %v", err)
	}
	for _, label := range []string{"panics", "timesout"} {
		if !bytes.Contains(fl, []byte(label)) {
			t.Errorf("flight.jsonl has no section for %q", label)
		}
	}
	if lines := bytes.Count(bytes.TrimSpace(fl), []byte("\n")); lines < 2 {
		t.Errorf("flight.jsonl suspiciously short (%d lines)", lines+1)
	}
}
