package exp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vertigo/internal/fabric"
	"vertigo/internal/metrics"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// TestArtifactPipeline drives the real path end to end: a tiny simulation
// through run() with the instrumentation knobs on, the Recorder installed as
// OnRun, and WriteArtifacts producing the directory the CLI would.
func TestArtifactPipeline(t *testing.T) {
	opt := NewOptions()
	opt.Spec.SampleTick = Duration(100 * units.Microsecond)
	opt.Spec.TraceFlow = 1
	rec := NewRecorder()
	opt.OnRun = rec.Record

	cfg := withLoads(baseConfig(Tiny, fabric.Vertigo, transport.DCTCP), 0.2, 0.5)
	cfg.SimTime = 5 * units.Millisecond
	if _, _, err := opt.run("figX/vertigo", cfg); err != nil {
		t.Fatal(err)
	}
	cfg2 := withLoads(baseConfig(Tiny, fabric.ECMP, transport.DCTCP), 0.2, 0.5)
	cfg2.SimTime = 5 * units.Millisecond
	if _, _, err := opt.run("figX/ecmp", cfg2); err != nil {
		t.Fatal(err)
	}

	if len(rec.runs) != 2 {
		t.Fatalf("recorded %d runs, want 2", len(rec.runs))
	}
	for _, r := range rec.Runs() {
		if r.Summary == nil {
			t.Fatalf("%s: summary missing", r.Label)
		}
		if r.Engine.Events == 0 || r.WallSeconds <= 0 || r.EventsPerSec <= 0 {
			t.Fatalf("%s: instrumentation empty: %+v", r.Label, r)
		}
	}

	start := time.Now()
	m := BuildManifest([]string{"figX"}, Tiny, opt.Spec, rec, start, 3*time.Second)
	if m.Runs != 2 || m.Events == 0 || m.EventsPerSec == 0 {
		t.Fatalf("manifest totals wrong: %+v", m)
	}
	if m.GoVersion == "" || m.GitRev == "" || m.StartTime == "" {
		t.Fatalf("manifest provenance empty: %+v", m)
	}

	dir := t.TempDir()
	tables := []*Table{{ID: "figX", Title: "test", Columns: []string{"a"}, Rows: [][]string{{"1"}}}}
	if err := WriteArtifacts(dir, m, tables, rec); err != nil {
		t.Fatal(err)
	}

	// manifest.json round-trips and keeps its snake_case schema.
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m2 Manifest
	if err := json.Unmarshal(raw, &m2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m2, m) || !bytes.Contains(raw, []byte(`"events_per_sec"`)) {
		t.Fatalf("manifest round-trip mismatch:\n%s", raw)
	}

	// results.json: tables plus label-sorted runs whose summaries decode
	// through the canonical metrics.Summary schema.
	raw, err = os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res results
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 || res.Tables[0].ID != "figX" {
		t.Fatalf("tables lost: %+v", res.Tables)
	}
	if len(res.Runs) != 2 || res.Runs[0].Label != "figX/ecmp" || res.Runs[1].Label != "figX/vertigo" {
		t.Fatalf("runs not label-sorted: %v %v", res.Runs[0].Label, res.Runs[1].Label)
	}
	var probe struct {
		Runs []struct {
			Summary json.RawMessage `json:"summary"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		t.Fatal(err)
	}
	sum, err := metrics.DecodeSummary(bytes.NewReader(probe.Runs[1].Summary))
	if err != nil {
		t.Fatalf("results.json summary does not decode via metrics.DecodeSummary: %v", err)
	}
	if sum.PacketsSent == 0 {
		t.Fatal("decoded summary empty")
	}

	// samples.csv: single header, every row attributed to a run label.
	raw, err = os.ReadFile(filepath.Join(dir, "samples.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if !strings.HasPrefix(lines[0], "run,time_ns,") {
		t.Fatalf("samples.csv header %q", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "figX/") {
			t.Fatalf("sample row missing run label: %q", l)
		}
	}

	// trace.jsonl: run_start boundary lines, every line valid JSON.
	f, err := os.Open(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	starts, events := 0, 0
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("invalid trace line %q: %v", sc.Text(), err)
		}
		if _, ok := obj["run_start"]; ok {
			starts++
		} else {
			events++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if starts != 2 || events == 0 {
		t.Fatalf("trace.jsonl has %d run_start lines and %d events, want 2 and >0", starts, events)
	}
}

func TestRecorderEmptyWritesNoOptionalFiles(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder()
	if err := WriteArtifacts(dir, Manifest{}, nil, rec); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"samples.csv", "trace.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s written despite no data", name)
		}
	}
	for _, name := range []string{"manifest.json", "results.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s missing: %v", name, err)
		}
	}
}
