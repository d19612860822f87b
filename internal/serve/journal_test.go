package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// abandon simulates a SIGKILL: the journal file handle is dropped without a
// drain, leaving accepted-but-unfinished records behind. (A real kill is
// exercised in CI's serve-smoke job; in-process we can't stop goroutines
// abruptly, so these tests never Start the doomed server.)
func abandon(s *Server) { _ = s.journal.Close() }

// TestJournalResume pins crash recovery: jobs accepted before a kill are
// re-enqueued on restart, complete, and the ID sequence continues.
func TestJournalResume(t *testing.T) {
	cfg := testConfig(t)

	// First process: accept three jobs, die before any work happens.
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		v, err := a.Submit(tiny(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	abandon(a)

	// Second process: the journal resurrects all three.
	var ran atomic.Int32
	b := newTestServer(t, cfg, func(*Job) error { ran.Add(1); return nil })
	for _, id := range ids {
		if v := waitState(t, b, id); v.State != StateCompleted {
			t.Fatalf("resumed job %s = %+v, want completed", id, v)
		}
	}
	if ran.Load() != 3 {
		t.Fatalf("resumed executions = %d, want 3", ran.Load())
	}
	// New submissions continue the ID sequence past the resumed ones.
	v, err := b.Submit(tiny(50))
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "j4" {
		t.Fatalf("post-resume ID = %s, want j4", v.ID)
	}
}

// TestResumeIdempotentByHash pins dedupe across restarts: an unfinished job
// whose spec hash already completed adopts the completed run's artifacts
// instead of re-executing.
func TestResumeIdempotentByHash(t *testing.T) {
	cfg := testConfig(t)
	spec := tiny(7)

	// First process: complete the spec once, then accept a duplicate and die
	// before it runs.
	a := newTestServer(t, cfg, func(*Job) error { return nil })
	v1, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, a, v1.ID)
	c, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Drain(c); err != nil {
		t.Fatal(err)
	}
	// Append the duplicate accept by hand — the drained server rejects new
	// work, which is exactly the window a crash-before-run leaves behind.
	jl, err := openJournal(cfg.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.append(journalRec{Ev: "accept", ID: "j2", Hash: spec.Hash(), Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	// Second process: the duplicate completes instantly, pointing at the
	// original artifacts, without executing anything.
	var ran atomic.Int32
	b := newTestServer(t, cfg, func(*Job) error { ran.Add(1); return nil })
	v2 := waitState(t, b, "j2")
	if v2.State != StateCompleted || v2.ArtifactDir != done.ArtifactDir {
		t.Fatalf("duplicate = %+v, want completed with artifacts %s", v2, done.ArtifactDir)
	}
	if ran.Load() != 0 {
		t.Fatalf("duplicate executed %d times, want 0", ran.Load())
	}
}

// TestRetiredKeyDedupesWithTodaysSpec: j1 was accepted with the retired
// "shards" key and completed; j2, the same spec without the key, was accepted
// but not run when the process died. Both hash as the spec they decode to,
// so j2 resumes as completed with j1's artifacts instead of running again.
func TestRetiredKeyDedupesWithTodaysSpec(t *testing.T) {
	cfg := testConfig(t)
	sp := tiny(3)
	sp.SimTime = ms(4)
	j1Dir := filepath.Join(cfg.DataDir, "jobs", "j1")
	journal := retiredKeyAccepts[0].line +
		`{"ev":"done","id":"j1","hash":"efc42d3d48c5c2aa","t":"2026-10-19T16:39:25Z","state":"completed"}` + "\n"
	j2, err := json.Marshal(journalRec{Ev: "accept", ID: "j2", Hash: sp.Hash(), Time: "2026-10-19T16:40:00Z", Spec: &sp})
	if err != nil {
		t.Fatal(err)
	}
	journal += string(j2) + "\n"
	if err := os.WriteFile(journalPath(cfg.DataDir), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	var ran atomic.Int32
	s := newTestServer(t, cfg, func(*Job) error { ran.Add(1); return nil })
	v := waitState(t, s, "j2")
	if v.State != StateCompleted || v.ArtifactDir != j1Dir {
		t.Fatalf("j2 = %+v, want completed with j1's artifacts %s", v, j1Dir)
	}
	if ran.Load() != 0 {
		t.Fatalf("j2 executed %d times, want 0", ran.Load())
	}
}

// TestResumeSkipsTerminalAndTornRecords pins replay robustness: done jobs
// are not re-run, and a torn final line (half-written during the kill) is
// skipped without poisoning the rest.
func TestResumeSkipsTerminalAndTornRecords(t *testing.T) {
	cfg := testConfig(t)
	a := newTestServer(t, cfg, func(*Job) error { return nil })
	v, err := a.Submit(tiny(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a, v.ID)
	c, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Drain(c); err != nil {
		t.Fatal(err)
	}
	// Tear the journal the way a mid-write SIGKILL would.
	f, err := os.OpenFile(journalPath(cfg.DataDir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"ev":"accept","id":"j9","ha`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var ran atomic.Int32
	b := newTestServer(t, cfg, func(*Job) error { ran.Add(1); return nil })
	got, ok := b.Job(v.ID)
	if !ok || got.State != StateCompleted {
		t.Fatalf("terminal job after replay = %+v", got)
	}
	if _, ok := b.Job("j9"); ok {
		t.Fatal("torn record resurrected a job")
	}
	if ran.Load() != 0 {
		t.Fatalf("replay re-ran %d completed jobs, want 0", ran.Load())
	}
}

// TestResumeFailsUnresolvableSpec pins that a journaled spec that no longer
// validates (say the experiment was renamed) fails cleanly on restart
// instead of crashing the resume.
func TestResumeFailsUnresolvableSpec(t *testing.T) {
	cfg := testConfig(t)
	jl, err := openJournal(cfg.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	bad := Spec{Experiment: "retired-figure"}
	if err := jl.append(journalRec{Ev: "accept", ID: "j1", Hash: bad.Hash(), Spec: &bad}); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	s := newTestServer(t, cfg, func(*Job) error { return nil })
	v, ok := s.Job("j1")
	if !ok || v.State != StateFailed || v.Error == "" {
		t.Fatalf("unresolvable resumed job = %+v, want failed with an error", v)
	}
}

// TestDrainDefersQueuedJobs pins the shutdown contract: jobs still queued
// when the drain deadline hits stay unfinished in the journal and resume on
// the next start.
func TestDrainDefersQueuedJobs(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 10
	cfg.TenantMax = 10
	block := make(chan struct{})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.execute = func(*Job) error { <-block; return nil }
	s.Start()
	var ids []string
	for i := 0; i < 3; i++ {
		v, err := s.Submit(tiny(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	waitRunning(t, s, 1)
	go func() {
		// Let the running job finish once the drain has started.
		time.Sleep(20 * time.Millisecond)
		close(block)
	}()
	c, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(c); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v, _ := s.Job(ids[0]); v.State != StateCompleted {
		t.Fatalf("running job after drain = %+v, want completed", v)
	}

	// Restart: the two never-started jobs come back and complete.
	b := newTestServer(t, cfg, func(*Job) error { return nil })
	for _, id := range ids[1:] {
		if v := waitState(t, b, id); v.State != StateCompleted {
			t.Fatalf("deferred job %s = %+v, want completed after restart", id, v)
		}
	}
}

// retiredKeyAccepts are accepts of job j1 journaled while specs still
// carried a retired key, verbatim, with the hash each spec had then: the
// "shards" key and the "raw_series" one. Without the key the spec hashes to
// something else.
var retiredKeyAccepts = []struct{ key, line, hash string }{
	{"shards", `{"ev":"accept","id":"j1","hash":"efc42d3d48c5c2aa","t":"2026-10-19T16:39:23.96305009Z",` +
		`"spec":{"tenant":"anon","experiment":"failover","scale":"tiny","seed":3,"sim_time":"4ms","jobs":1,"shards":2}}` + "\n",
		"efc42d3d48c5c2aa"},
	{"raw_series", `{"ev":"accept","id":"j1","hash":"9370427ae94df3d5","t":"2026-10-20T05:30:00.00000000Z",` +
		`"spec":{"tenant":"anon","experiment":"failover","scale":"tiny","seed":3,"sim_time":"4ms","jobs":1,"raw_series":"keep"}}` + "\n",
		"9370427ae94df3d5"},
}

// TestJournalWithRetiredKeyResumes: a journal written while specs still
// carried a retired key resumes after the key was retired. The lenient
// journal decoder drops the key, the job takes the hash of the spec it
// decodes to — the hash the same spec gets when submitted today — and it
// runs the one execution path: its tables are those of the same spec run
// directly through the batch API. (A new HTTP submission that carries the
// key is a 400 from the strict decoder; see TestSubmitRejectsInvalid.)
func TestJournalWithRetiredKeyResumes(t *testing.T) {
	sp := tiny(3)
	sp.SimTime = ms(4)
	want := sp.Hash()
	cfg := testConfig(t)
	res, err := sp.resolve(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	tables, err := res.exp.Run(res.scale, res.opt)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := json.Marshal(tables)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range retiredKeyAccepts {
		cfg := testConfig(t)
		if err := os.WriteFile(journalPath(cfg.DataDir), []byte(tc.line), 0o644); err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, cfg, nil)
		v := waitState(t, s, "j1")
		if v.State != StateCompleted || v.Hash != want || want == tc.hash {
			t.Fatalf("%s: resumed job = %+v, want completed under the decoded spec's hash %s", tc.key, v, want)
		}
		raw, err := os.ReadFile(filepath.Join(v.ArtifactDir, "results.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Tables json.RawMessage `json:"tables"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if got := canonical(t, doc.Tables); !bytes.Equal(got, canonical(t, batch)) {
			t.Errorf("%s: resumed job's tables differ from the batch run:\ndaemon: %s\nbatch:  %s", tc.key, got, canonical(t, batch))
		}
	}
}
