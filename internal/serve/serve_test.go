package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vertigo/internal/core"
	"vertigo/internal/exp"
)

// testConfig is a fast daemon config over a temp dir: tight backoff so
// retry tests finish in milliseconds.
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		DataDir:           t.TempDir(),
		Workers:           2,
		QueueDepth:        8,
		TenantMax:         4,
		MaxRetries:        3,
		RetryBase:         2 * time.Millisecond,
		RetryMax:          10 * time.Millisecond,
		DefaultRunTimeout: time.Minute,
	}
}

// newTestServer builds a started server whose job execution is the given
// stub — admission, retry and journal machinery run for real.
func newTestServer(t *testing.T, cfg Config, exec func(*Job) error) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exec != nil {
		s.execute = exec
	}
	s.Start()
	t.Cleanup(func() {
		c, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(c)
	})
	return s
}

// waitState polls until the job reaches a terminal state.
func waitState(t *testing.T, s *Server, id string) JobView {
	t.Helper()
	// Generous: real-simulation jobs under -race on a small box are slow.
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		v, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, _ := s.Job(id)
	t.Fatalf("job %s never reached a terminal state (now %s)", id, v.State)
	return JobView{}
}

// tiny is a failover job at the tiny scale for tenant (empty = anon); seed
// 0 is the scale's.
func tiny(seed int64, tenant ...string) Spec {
	s := Spec{Experiment: "failover", Spec: exp.Spec{Scale: "tiny", Seed: seed}}
	if len(tenant) > 0 {
		s.Tenant = tenant[0]
	}
	return s
}

func submitOK(t *testing.T, s *Server, spec Spec) JobView {
	t.Helper()
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit %+v: %v", spec, err)
	}
	return v
}

func TestSubmitHappyPath(t *testing.T) {
	var ran atomic.Int32
	s := newTestServer(t, testConfig(t), func(j *Job) error {
		ran.Add(1)
		return nil
	})
	v := submitOK(t, s, tiny(0))
	if v.State != StateQueued || v.ID == "" || v.Hash == "" {
		t.Fatalf("accepted view = %+v", v)
	}
	v = waitState(t, s, v.ID)
	if v.State != StateCompleted || v.Attempt != 1 {
		t.Fatalf("terminal view = %+v, want completed on first attempt", v)
	}
	if ran.Load() != 1 {
		t.Fatalf("execute ran %d times, want 1", ran.Load())
	}
}

// TestSubmitRejectsInvalid: every invalid spec is a 400 at submission —
// from the decoder (a malformed value) or from admission (a spec that
// decodes but cannot run) — before any job exists.
func TestSubmitRejectsInvalid(t *testing.T) {
	s := newTestServer(t, testConfig(t), func(*Job) error { return nil })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for name, body := range map[string]string{
		"unknown experiment": `{"experiment":"no-such-figure"}`,
		"unknown scale":      `{"experiment":"failover","scale":"galactic"}`,
		"bad fault DSL":      `{"experiment":"failover","fault":"exploding-teapot"}`,
		"bad duration":       `{"experiment":"failover","run_timeout":"five minutes"}`,
		"negative duration":  `{"experiment":"failover","sample_tick":"-1ms"}`,
		"retired shards key": `{"experiment":"failover","shards":2}`,
		"retired raw_series": `{"experiment":"failover","raw_series":"keep"}`,
		"fault past end":     `{"experiment":"failover","scale":"tiny","fault":"flap@1s:link=16,down=1ms,period=4ms,count=2"}`,
		"chaos past end":     `{"experiment":"failover","scale":"tiny","chaos_panic_at":"1h"}`,
		"negative retries":   `{"experiment":"failover","retries":-1}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("rejected specs left jobs behind: %+v", jobs)
	}
}

// TestSubmitRejectsUnboundedFlap: a fault field whose one flap item asks for
// hundreds of millions of events is a synchronous 400 from the parser — it
// used to allocate them all at admission, before any validation.
func TestSubmitRejectsUnboundedFlap(t *testing.T) {
	s := newTestServer(t, testConfig(t), func(*Job) error { return nil })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, count := range []string{"200000000", "4611686018427387904"} {
		body := `{"experiment":"failover","scale":"tiny","fault":"flap@0s:link=0,down=1ns,period=2ns,count=` + count + `"}`
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 400 || !strings.Contains(string(msg), "count="+count) {
			t.Errorf("count=%s: status %d, body %s; want a 400 naming the item", count, resp.StatusCode, msg)
		}
	}
}

// TestAdmissionQueueFull pins the bounded-queue contract: with all workers
// wedged and the queue full, the next submission is a 429 with Retry-After.
func TestAdmissionQueueFull(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 2
	cfg.TenantMax = 100
	block := make(chan struct{})
	s := newTestServer(t, cfg, func(*Job) error { <-block; return nil })
	defer close(block)

	// One running + two queued fills the queue. Wait for the worker to pop
	// the first job before filling, or it would count against the queue.
	ids := make([]string, 0, 3)
	ids = append(ids, submitOK(t, s, tiny(1)).ID)
	waitRunning(t, s, 1)
	for i := 1; i < 3; i++ {
		ids = append(ids, submitOK(t, s, tiny(int64(i+1))).ID)
	}

	_, err := s.Submit(tiny(99))
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Code != 429 || rej.Reason != "queue_full" {
		t.Fatalf("overload submit: err = %v, want 429 queue_full", err)
	}
	if rej.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want a real hint", rej.RetryAfter)
	}
	_ = ids
}

// waitRunning polls until n jobs are running.
func waitRunning(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		r := s.running
		s.mu.Unlock()
		if r >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("never saw %d running jobs", n)
}

// TestAdmissionTenantCap pins per-tenant isolation: one tenant at its cap
// gets 429s while another tenant is still admitted.
func TestAdmissionTenantCap(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.TenantMax = 2
	cfg.QueueDepth = 100
	block := make(chan struct{})
	s := newTestServer(t, cfg, func(*Job) error { <-block; return nil })
	defer close(block)

	for i := 0; i < 2; i++ {
		submitOK(t, s, tiny(int64(i+1), "greedy"))
	}
	_, err := s.Submit(tiny(3, "greedy"))
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Code != 429 || rej.Reason != "tenant_cap" {
		t.Fatalf("capped tenant: err = %v, want 429 tenant_cap", err)
	}
	if _, err := s.Submit(tiny(0, "modest")); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
}

// TestRetryTransientThenSucceed pins the backoff path: wall-budget failures
// are transient and retried until the attempt succeeds.
func TestRetryTransientThenSucceed(t *testing.T) {
	var calls atomic.Int32
	s := newTestServer(t, testConfig(t), func(j *Job) error {
		if calls.Add(1) < 3 {
			return fmt.Errorf("run wedged: %w", core.ErrWallBudget)
		}
		return nil
	})
	v := submitOK(t, s, tiny(0))
	v = waitState(t, s, v.ID)
	if v.State != StateCompleted || v.Attempt != 3 {
		t.Fatalf("job = %+v, want completed on attempt 3", v)
	}
}

// TestRetryBudgetExhausted pins that transient failures still terminate:
// the retry budget bounds the loop.
func TestRetryBudgetExhausted(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxRetries = 2
	var calls atomic.Int32
	s := newTestServer(t, cfg, func(*Job) error {
		calls.Add(1)
		return fmt.Errorf("always wedged: %w", core.ErrWallBudget)
	})
	v := submitOK(t, s, tiny(0))
	v = waitState(t, s, v.ID)
	if v.State != StateFailed || v.Attempt != 3 {
		t.Fatalf("job = %+v, want failed after 1+2 attempts", v)
	}
	if calls.Load() != 3 {
		t.Fatalf("execute ran %d times, want 3", calls.Load())
	}
}

// TestPanicRetriedOncePerHash pins the deterministic-crash rule: the first
// panic gets one retry (environmental benefit of the doubt); the same spec
// hash panicking again is permanent, regardless of remaining retry budget.
func TestPanicRetriedOncePerHash(t *testing.T) {
	var calls atomic.Int32
	s := newTestServer(t, testConfig(t), func(j *Job) error {
		calls.Add(1)
		return fmt.Errorf("serve: job %s: %w: boom", j.ID, exp.ErrPanic)
	})
	v := submitOK(t, s, tiny(0))
	v = waitState(t, s, v.ID)
	if v.State != StateFailed || v.Attempt != 2 {
		t.Fatalf("job = %+v, want failed after exactly 2 attempts", v)
	}

	// A second job with the same spec (same hash) is now known-deterministic:
	// no retry at all.
	calls.Store(0)
	v2 := submitOK(t, s, tiny(0))
	v2 = waitState(t, s, v2.ID)
	if v2.State != StateFailed || v2.Attempt != 1 {
		t.Fatalf("repeat job = %+v, want failed after 1 attempt", v2)
	}
}

// TestMaxEventsPermanent pins that event-budget kills — deterministic by
// construction — are never retried.
func TestMaxEventsPermanent(t *testing.T) {
	var calls atomic.Int32
	s := newTestServer(t, testConfig(t), func(*Job) error {
		calls.Add(1)
		return fmt.Errorf("run capped: %w", core.ErrMaxEvents)
	})
	v := submitOK(t, s, tiny(0))
	v = waitState(t, s, v.ID)
	if v.State != StateFailed || calls.Load() != 1 {
		t.Fatalf("job = %+v after %d calls, want failed after 1", v, calls.Load())
	}
}

// TestRetryableClassification pins the error-tree walk over the new
// SweepError/RunError Unwrap methods: all-transient sweeps retry, anything
// permanent in the mix pins the job down.
func TestRetryableClassification(t *testing.T) {
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.journal.Close()
	j := &Job{Hash: "h"}
	sweep := func(errs ...error) error {
		se := &exp.SweepError{Total: len(errs)}
		for i, e := range errs {
			se.Failed = append(se.Failed, exp.RunError{Label: fmt.Sprintf("r%d", i), Err: e})
		}
		return fmt.Errorf("sweep: %w", se)
	}
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"all wall-budget", sweep(fmt.Errorf("x: %w", core.ErrWallBudget), fmt.Errorf("y: %w", core.ErrWallBudget)), true},
		{"mixed wall+events", sweep(fmt.Errorf("x: %w", core.ErrWallBudget), fmt.Errorf("y: %w", core.ErrMaxEvents)), false},
		{"plain failure", sweep(errors.New("bad route")), false},
		{"bare wall-budget", fmt.Errorf("x: %w", core.ErrWallBudget), true},
		{"shed", fmt.Errorf("x: %w", errShed), true},
		{"unknown", errors.New("mystery"), false},
	}
	for _, tc := range cases {
		if got := s.retryable(j, tc.err); got != tc.want {
			t.Errorf("%s: retryable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestShedRoutesThroughRetry pins load shedding: queued jobs are shed
// newest-first into the backoff path and finish once pressure clears.
func TestShedRoutesThroughRetry(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 10
	cfg.TenantMax = 10
	block := make(chan struct{})
	var calls atomic.Int32
	s := newTestServer(t, cfg, func(*Job) error {
		calls.Add(1)
		<-block
		return nil
	})

	// One running, three queued.
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		ids = append(ids, submitOK(t, s, tiny(int64(i+1))).ID)
	}
	waitRunning(t, s, 1)
	s.shed() // sheds ceil(3/2)=2 newest queued jobs into backoff

	s.mu.Lock()
	qlen := len(s.queue)
	backoff := 0
	for _, id := range ids {
		if s.jobs[id].State == StateBackoff {
			backoff++
		}
	}
	s.mu.Unlock()
	if qlen != 1 || backoff != 2 {
		t.Fatalf("after shed: queue=%d backoff=%d, want 1 and 2", qlen, backoff)
	}

	close(block)
	for _, id := range ids {
		if v := waitState(t, s, id); v.State != StateCompleted {
			t.Fatalf("job %s = %+v, want completed after pressure cleared", id, v)
		}
	}
}

// TestMemWatchSheds pins the polling path end to end with a fake heap
// reading: pressure on → shed; pressure off → recovery.
func TestMemWatchSheds(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 10
	cfg.TenantMax = 10
	cfg.MemSoftLimit = 1 << 30
	cfg.MemCheckEvery = time.Millisecond
	var pressured atomic.Bool
	cfg.memStats = func() uint64 {
		if pressured.Load() {
			return 2 << 30
		}
		return 1 << 20
	}
	block := make(chan struct{})
	s := newTestServer(t, cfg, func(*Job) error { <-block; return nil })
	defer close(block)

	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitOK(t, s, tiny(int64(i+1))).ID)
	}
	waitRunning(t, s, 1)
	pressured.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		shed := s.jobs[ids[2]].State == StateBackoff
		s.mu.Unlock()
		if shed {
			pressured.Store(false)
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("memory watcher never shed the newest queued job")
}

// TestHTTPAPI drives the full HTTP surface: submit, list, get, SSE events,
// healthz, and the rejection mappings.
func TestHTTPAPI(t *testing.T) {
	cfg := testConfig(t)
	s := newTestServer(t, cfg, func(*Job) error { return nil })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Invalid JSON and unknown fields are 400s — "train", a field until the
	// fabric lost its packet-train knob, among them.
	for _, body := range []string{"{not json", `{"experiment":"failover","bogus_field":1}`, `{"experiment":"failover","train":0}`} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("bad body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"failover","scale":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 || v.ID == "" {
		t.Fatalf("submit: status %d view %+v, want 202 with ID", resp.StatusCode, v)
	}
	waitState(t, s, v.ID)

	// Get and list see the job.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got JobView
	_ = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.State != StateCompleted {
		t.Fatalf("GET job = %+v, want completed", got)
	}
	resp, err = http.Get(ts.URL + "/api/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("GET missing job: status %d, want 404", resp.StatusCode)
	}

	// SSE: a terminal job's stream replays its history and ends.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sse := readAll(t, resp)
	if !strings.Contains(sse, "event: state") || !strings.Contains(sse, "data: completed") {
		t.Fatalf("SSE stream missing terminal state:\n%s", sse)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestDrainRejectsNewWork pins the 503 during shutdown.
func TestDrainRejectsNewWork(t *testing.T) {
	cfg := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	c, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(c); err != nil {
		t.Fatalf("drain of idle server: %v", err)
	}
	_, err = s.Submit(tiny(0))
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Code != 503 {
		t.Fatalf("submit while draining: %v, want 503", err)
	}
}

// TestSpecHashNormalization pins hash identity: equivalent specs — defaults
// spelled out or omitted, one duration written two ways — share a hash;
// different specs don't.
func TestSpecHashNormalization(t *testing.T) {
	hash := func(body string) string {
		t.Helper()
		s, err := decodeSpec(nil, io.NopCloser(strings.NewReader(body)))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return s.Hash()
	}
	for _, same := range [][2]string{
		{`{"experiment":"failover"}`,
			`{"tenant":"anon","experiment":"failover","scale":"small","seed":1,"sim_time":"80ms","jobs":1}`},
		{`{"experiment":"failover","scale":"tiny","sim_time":"4000us"}`,
			`{"experiment":"failover","scale":"tiny","sim_time":"4ms","heal_delay":""}`},
	} {
		if a, b := hash(same[0]), hash(same[1]); a != b {
			t.Errorf("equivalent specs hash differently: %s vs %s\n%s\n%s", a, b, same[0], same[1])
		}
	}
	if hash(`{"experiment":"failover"}`) == hash(`{"experiment":"failover","seed":7}`) {
		t.Error("different specs share a hash")
	}
}
