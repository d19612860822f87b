package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vertigo/internal/exp"
)

// TestChaosBurst is the acceptance drill: 50 concurrent submissions where
// ~20% panic deliberately mid-simulation and ~20% die to the wall-clock
// watchdog, against a deliberately small queue. The daemon must complete
// every healthy job with artifacts byte-identical to direct batch runs,
// reject overload with 429 + Retry-After, keep /healthz serving throughout,
// and never crash.
func TestChaosBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~50 real simulations")
	}
	cfg := Config{
		DataDir:           t.TempDir(),
		Workers:           4,
		QueueDepth:        10, // << 50 submissions: forces 429s
		TenantMax:         100,
		MaxRetries:        1, // bounds watchdog-job attempts to 2
		RetryBase:         20 * time.Millisecond,
		RetryMax:          100 * time.Millisecond,
		DefaultRunTimeout: time.Minute,
	}
	s := newTestServer(t, cfg, nil) // real execution
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const total = 50
	healthySeeds := []int64{101, 102, 103}
	spec := func(i int) Spec {
		tenant := fmt.Sprintf("t%d", i%4)
		switch i % 5 {
		case 0: // ~20%: deliberate panic inside the event loop
			s := tiny(int64(200+i), tenant)
			s.SimTime, s.ChaosPanicAt = ms(4), ms(1)
			return s
		case 1: // ~20%: wall-clock watchdog kill (transient class)
			s := tiny(int64(300+i), tenant)
			s.RunTimeout = ms(1)
			return s
		default: // 60%: healthy short-sim jobs over three distinct specs
			s := tiny(healthySeeds[i%len(healthySeeds)], tenant)
			s.SimTime = ms(4)
			return s
		}
	}

	// Fire all 50 concurrently; clients back off briefly on 429 and
	// resubmit, counting every rejection they absorb.
	var rejected429, healthzFails atomic.Int32
	ids := make([]string, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(spec(i))
			for try := 0; try < 500; try++ {
				resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					rejected429.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("submit %d: 429 without Retry-After", i)
					}
					resp.Body.Close()
					time.Sleep(25 * time.Millisecond)
					continue
				}
				var v JobView
				err = json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted || err != nil || v.ID == "" {
					t.Errorf("submit %d: status %d err %v", i, resp.StatusCode, err)
					return
				}
				ids[i] = v.ID
				return
			}
			t.Errorf("submit %d: never accepted", i)
		}(i)
	}
	// Liveness probe riding along with the burst.
	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		for j := 0; j < 20; j++ {
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil || resp.StatusCode != http.StatusOK {
				healthzFails.Add(1)
			}
			if resp != nil {
				resp.Body.Close()
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-probeDone
	if t.Failed() {
		t.FailNow()
	}
	if rejected429.Load() == 0 {
		t.Error("50 submissions against a queue of 10 produced zero 429s")
	}
	if healthzFails.Load() != 0 {
		t.Errorf("healthz failed %d times during the burst", healthzFails.Load())
	}

	views := make([]JobView, total)
	for i, id := range ids {
		views[i] = waitState(t, s, id)
	}

	// Reference tables: the same three healthy specs run directly through
	// the batch API. Daemon jobs must match them byte-for-byte.
	ref := make(map[int64][]byte, len(healthySeeds))
	for _, seed := range healthySeeds {
		sp := tiny(seed)
		sp.SimTime = ms(4)
		res, err := sp.resolve(cfg.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		tables, err := res.exp.Run(res.scale, res.opt)
		if err != nil {
			t.Fatalf("reference run seed %d: %v", seed, err)
		}
		raw, err := json.Marshal(tables)
		if err != nil {
			t.Fatal(err)
		}
		ref[seed] = canonical(t, raw)
	}

	for i, v := range views {
		sp := spec(i)
		switch i % 5 {
		case 0: // panic jobs: permanent after exactly one retry, flight dumped
			if v.State != StateFailed || v.Attempt != 2 {
				t.Errorf("panic job %s = %+v, want failed after 2 attempts", v.ID, v)
				continue
			}
			if !strings.Contains(v.Error, "chaos panic") {
				t.Errorf("panic job %s error %q lost the panic", v.ID, v.Error)
			}
			checkFlightDump(t, v)
		case 1: // watchdog jobs: transient, retried to budget, flight dumped
			if v.State != StateFailed || v.Attempt != 2 {
				t.Errorf("watchdog job %s = %+v, want failed after 1+1 attempts", v.ID, v)
				continue
			}
			if !strings.Contains(v.Error, "wall-clock") {
				t.Errorf("watchdog job %s error %q lost the watchdog", v.ID, v.Error)
			}
			checkFlightDump(t, v)
		default: // healthy jobs: completed, byte-identical to the batch run
			if v.State != StateCompleted || v.Attempt != 1 {
				t.Errorf("healthy job %s = %+v, want completed first try", v.ID, v)
				continue
			}
			raw, err := os.ReadFile(filepath.Join(v.ArtifactDir, "results.json"))
			if err != nil {
				t.Errorf("healthy job %s: %v", v.ID, err)
				continue
			}
			var doc struct {
				Tables json.RawMessage `json:"tables"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Errorf("healthy job %s: results.json: %v", v.ID, err)
				continue
			}
			if got := canonical(t, doc.Tables); !bytes.Equal(got, ref[sp.Seed]) {
				t.Errorf("healthy job %s (seed %d): tables differ from batch run:\ndaemon: %s\nbatch:  %s",
					v.ID, sp.Seed, got, ref[sp.Seed])
			}
		}
	}
}

// ms is n milliseconds as a spec duration.
func ms(n int) exp.Duration { return exp.Duration(time.Duration(n) * time.Millisecond) }

// checkFlightDump asserts a failed job wrote a non-empty flight.jsonl.
func checkFlightDump(t *testing.T, v JobView) {
	t.Helper()
	fl, err := os.ReadFile(filepath.Join(v.ArtifactDir, "flight.jsonl"))
	if err != nil {
		t.Errorf("failed job %s has no flight dump: %v", v.ID, err)
		return
	}
	if len(bytes.TrimSpace(fl)) == 0 {
		t.Errorf("failed job %s: flight.jsonl is empty", v.ID)
	}
}

// canonical re-marshals raw JSON so formatting differences can't mask (or
// fake) a content difference.
func canonical(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("canonicalizing: %v", err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestChaosKillResume extends the drill across a process boundary: a
// server accepts a mixed burst and dies without running any of it; the
// restarted server resumes the journal and drives every job to the same
// terminal states real execution dictates.
func TestChaosKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	cfg := Config{
		DataDir:           t.TempDir(),
		Workers:           2,
		QueueDepth:        20,
		TenantMax:         20,
		MaxRetries:        1,
		RetryBase:         20 * time.Millisecond,
		RetryMax:          100 * time.Millisecond,
		DefaultRunTimeout: time.Minute,
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, seed := range []int64{11, 12, 13, 14} {
		sp := tiny(seed)
		sp.SimTime = ms(4)
		if seed == 13 {
			sp.ChaosPanicAt = ms(1)
		}
		v, err := a.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	abandon(a) // SIGKILL stand-in: accepted, journaled, never started

	b := newTestServer(t, cfg, nil) // real execution
	for i, id := range ids {
		v := waitState(t, b, id)
		if i == 2 {
			if v.State != StateFailed || !strings.Contains(v.Error, "chaos panic") {
				t.Fatalf("resumed panic job = %+v, want deterministic failure", v)
			}
			continue
		}
		if v.State != StateCompleted {
			t.Fatalf("resumed job %s = %+v, want completed", id, v)
		}
		if _, err := os.Stat(filepath.Join(v.ArtifactDir, "results.json")); err != nil {
			t.Fatalf("resumed job %s missing artifacts: %v", id, err)
		}
	}
}
