package exp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vertigo/internal/core"
	"vertigo/internal/fabric"
	"vertigo/internal/metrics"
	"vertigo/internal/obs"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// scrapePause spaces a scraper's requests, so that it shares the box with
// the sweep it watches instead of taking a core from it.
const scrapePause = 5 * time.Millisecond

// TestScrapeDoesNotPerturb pins the introspection plane's core guarantee: a
// live /metrics and /statusz scraper reading the registry while a sweep runs
// never changes a single artifact byte. Registry reads are snapshots, never
// drains — nothing flows back into the model. The scraped sweep must match
// the reference of the same observation, and a scrape must have completed
// while its runs were in flight.
func TestScrapeDoesNotPerturb(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	want := reference(t, "fig1", observed)

	srv := httptest.NewServer(obs.Handler(obs.Default, func() any { return "scrape-test" }))
	defer srv.Close()
	var mu sync.Mutex
	var scraped []time.Time // when each request completed
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			for _, path := range []string{"/metrics", "/statusz"} {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				scraped = append(scraped, time.Now())
				mu.Unlock()
			}
			select {
			case <-stop:
				return
			case <-time.After(scrapePause):
			}
		}
	}()

	// OnRun calls are serialized, and each knows its run's wall time.
	var firstStart, lastEnd time.Time
	opt := NewOptions()
	opt.OnRun = func(ri RunInfo) {
		end := time.Now()
		if start := end.Add(-ri.Wall); firstStart.IsZero() || start.Before(firstStart) {
			firstStart = start
		}
		lastEnd = end
	}
	got := render(t, "fig1", observed, opt)
	close(stop)
	<-done

	if !bytes.Equal(got.tables, want.tables) {
		t.Errorf("tables perturbed by live scraping:\n--- quiet ---\n%s\n--- scraped ---\n%s", want.tables, got.tables)
	}
	if !bytes.Equal(got.rec.SamplesCSV(), want.rec.SamplesCSV()) {
		t.Error("samples.csv perturbed by live scraping")
	}
	if !bytes.Equal(got.rec.TraceJSONL(), want.rec.TraceJSONL()) {
		t.Error("trace.jsonl perturbed by live scraping")
	}
	during := 0
	for _, at := range scraped {
		if at.After(firstStart) && at.Before(lastEnd) {
			during++
		}
	}
	if during == 0 {
		t.Errorf("none of %d scrapes completed between the first run's start and the last run's end; the test proved nothing", len(scraped))
	}

	// And the scrape itself must be well-formed while the registry is hot.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if errs := obs.LintProm(resp.Body); len(errs) != 0 {
		t.Errorf("live /metrics fails lint: %v", errs)
	}
}

// TestWatchdogKillDumpsFlight: a sweep whose every run is killed by the
// wall-clock watchdog still fails cleanly AND leaves a non-empty
// flight.jsonl naming what each run was doing when it died.
func TestWatchdogKillDumpsFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	opt := workers(2)
	opt.Spec.RunTimeout = Duration(time.Nanosecond) // no run can finish: first watchdog check kills it
	rec := NewRecorder()
	opt.OnRun = rec.Record

	e, err := ByID("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(Tiny, opt); err == nil {
		t.Fatal("1ns wall budget should fail every run")
	}
	if len(rec.Failed()) == 0 {
		t.Fatal("no failures recorded")
	}

	fl := rec.FlightJSONL()
	if len(fl) == 0 {
		t.Fatal("watchdog-killed sweep left an empty flight recorder")
	}
	sc := bufio.NewScanner(bytes.NewReader(fl))
	starts, watchdogs := 0, 0
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("invalid flight line %q: %v", sc.Text(), err)
		}
		if _, ok := obj["run_start"]; ok {
			starts++
		}
		if obj["kind"] == "watchdog" {
			watchdogs++
		}
	}
	if starts != len(rec.Failed()) {
		t.Errorf("%d run_start boundaries for %d failed runs", starts, len(rec.Failed()))
	}
	if watchdogs == 0 {
		t.Error("no watchdog record in flight dump")
	}

	dir := t.TempDir()
	if err := WriteArtifacts(dir, Manifest{}, nil, rec); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, "flight.jsonl"))
	if err != nil || st.Size() == 0 {
		t.Fatalf("flight.jsonl missing or empty: %v", err)
	}
	// results.json still names every failure.
	raw, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "wall-clock") && !strings.Contains(string(raw), "deadline") {
		t.Errorf("results.json errors do not mention the watchdog:\n%s", raw)
	}
}

// TestHistogramQuantilesMatchRawFig1 is the grid's contract on real
// workloads, fig1's leaf-spine mix and a fat-tree k=4 cell: every percentile
// a Summary reports lies in [exact, exact·65/64], where exact is the
// nearest-rank percentile of the completion times the run's own records
// hold (RawKeep's completed flows, every query), and the counts agree.
func TestHistogramQuantilesMatchRawFig1(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	within := func(what string, exact, grid units.Time) {
		if grid < exact || grid > exact*65/64 {
			t.Errorf("%s: grid %v outside [%v, %v]", what, grid, exact, exact*65/64)
		}
	}
	for _, cell := range []struct {
		name string
		cfg  core.Config
	}{
		{"fig1", withLoads(baseConfig(Tiny, fabric.Vertigo, transport.DCTCP), 0.2, 0.5)},
		{"fattree-k4", withLoads(fatTreeConfig(Tiny, fabric.Vertigo, transport.DCTCP), 0.2, 0.5)},
	} {
		cfg := cell.cfg
		cfg.RawSeries = metrics.RawKeep
		sum, met, err := NewOptions().run("quantile-fidelity/"+cell.name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var fcts, qcts []units.Time
		met.RangeFlows(func(f *metrics.FlowRecord) bool {
			if f.Completed {
				fcts = append(fcts, f.FCT())
			}
			return true
		})
		for _, q := range met.Queries {
			if q.Completed {
				qcts = append(qcts, q.QCT())
			}
		}
		if len(fcts) == 0 || len(qcts) == 0 || sum.FCTHist.Count() != uint64(len(fcts)) || sum.QCTHist.Count() != uint64(len(qcts)) {
			t.Fatalf("%s: %d completed records and %d queries, histograms count %d and %d",
				cell.name, len(fcts), len(qcts), sum.FCTHist.Count(), sum.QCTHist.Count())
		}
		for _, p := range []float64{10, 50, 90, 99, 99.9} {
			within(fmt.Sprintf("%s FCT p%g", cell.name, p), metrics.Percentile(fcts, p), sum.FCTPercentile(p))
		}
		for _, p := range []float64{50, 99} {
			within(fmt.Sprintf("%s QCT p%g", cell.name, p), metrics.Percentile(qcts, p), sum.QCTPercentile(p))
		}
		if sum.P99FCT != sum.FCTPercentile(99) || sum.P99QCT != sum.QCTPercentile(99) {
			t.Errorf("%s: P99FCT %v and P99QCT %v are not the grid's p99", cell.name, sum.P99FCT, sum.P99QCT)
		}
	}
}
