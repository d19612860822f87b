package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"vertigo/internal/core"
	"vertigo/internal/exp"
	"vertigo/internal/obs"
)

// Config parameterizes the daemon. Zero values select the documented
// defaults.
type Config struct {
	// DataDir roots the journal and the per-job artifact directories.
	DataDir string
	// Workers is the job worker pool size (default: GOMAXPROCS/2, min 1).
	// Each job may itself run its spec's jobs simulations concurrently.
	Workers int
	// QueueDepth bounds the number of queued-but-not-started jobs;
	// submissions past it are rejected with 429 (default 64).
	QueueDepth int
	// TenantMax caps one tenant's in-flight (queued+running+backoff) jobs;
	// submissions past it are rejected with 429 (default 8).
	TenantMax int
	// MaxRetries is the default per-job retry budget for transient
	// failures (default 3; Spec.Retries overrides per job).
	MaxRetries int
	// RetryBase and RetryMax bound the capped exponential retry backoff
	// (defaults 250ms and 15s). Each delay gets ±50% jitter.
	RetryBase time.Duration
	RetryMax  time.Duration
	// MemSoftLimit, when nonzero, arms load shedding: while the heap sits
	// above this many bytes, queued-but-not-started jobs are shed (newest
	// first) and re-admitted through the retry path once pressure clears.
	MemSoftLimit uint64
	// MemCheckEvery is the shedding poll interval (default 1s).
	MemCheckEvery time.Duration
	// DefaultRunTimeout bounds each simulation run's wall-clock time when
	// the spec doesn't set one (default 2m; 0 disables).
	DefaultRunTimeout time.Duration
	// DefaultMaxEvents bounds each run's event count when the spec doesn't
	// set one (0 disables).
	DefaultMaxEvents uint64
	// FlightLen is the per-run crash flight recorder ring size
	// (default 4096).
	FlightLen int

	// memStats reads the current heap size; tests substitute it. nil uses
	// runtime.ReadMemStats.
	memStats func() uint64
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.Workers <= 0 {
		d.Workers = max(1, runtime.GOMAXPROCS(0)/2)
	}
	if d.QueueDepth <= 0 {
		d.QueueDepth = 64
	}
	if d.TenantMax <= 0 {
		d.TenantMax = 8
	}
	if d.MaxRetries < 0 {
		d.MaxRetries = 0
	} else if d.MaxRetries == 0 {
		d.MaxRetries = 3
	}
	if d.RetryBase <= 0 {
		d.RetryBase = 250 * time.Millisecond
	}
	if d.RetryMax <= 0 {
		d.RetryMax = 15 * time.Second
	}
	if d.MemCheckEvery <= 0 {
		d.MemCheckEvery = time.Second
	}
	if d.DefaultRunTimeout == 0 {
		d.DefaultRunTimeout = 2 * time.Minute
	}
	if d.FlightLen == 0 {
		d.FlightLen = exp.DefaultFlightLen
	}
	if d.memStats == nil {
		d.memStats = heapInUse
	}
	return d
}

func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// RejectError is an admission rejection with its HTTP mapping: 400 for
// invalid specs, 429 (with a Retry-After hint) for overload, 503 while
// draining. Rejection is always explicit — the daemon never queues
// unboundedly.
type RejectError struct {
	Code       int
	RetryAfter time.Duration
	Reason     string // metrics label: invalid | queue_full | tenant_cap | draining
	Err        error
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("serve: rejected (%s): %v", e.Reason, e.Err)
}

func (e *RejectError) Unwrap() error { return e.Err }

// Server is the simulation daemon: admission control in front of a bounded
// worker pool wrapping the crash-safe sweep runner, with a journal for
// crash recovery.
type Server struct {
	cfg     Config
	journal *journal
	start   time.Time

	mu          sync.Mutex
	jobs        map[string]*Job
	order       []string // job IDs in acceptance order, for listing
	queue       []*Job   // FIFO of runnable jobs
	cond        *sync.Cond
	seq         int
	running     int
	draining    bool
	panicHashes map[string]int         // spec hash → observed panic count
	hashDone    map[string]*Job        // spec hash → completed job (idempotency)
	backoffs    map[string]*time.Timer // job ID → pending retry timer

	workersWg sync.WaitGroup
	stopMem   chan struct{}
	memOnce   sync.Once

	// execute runs one job attempt; tests substitute it. Defaults to
	// (*Server).executeJob.
	execute func(*Job) error
}

// New opens (or creates) the data dir, replays the journal, and returns a
// server with every unfinished job re-enqueued. Call Start to launch the
// worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	recs, err := replayJournal(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	jl, err := openJournal(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		journal:     jl,
		start:       time.Now(),
		jobs:        make(map[string]*Job),
		panicHashes: make(map[string]int),
		hashDone:    make(map[string]*Job),
		backoffs:    make(map[string]*time.Timer),
		stopMem:     make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.execute = s.executeJob
	s.resume(recs)
	return s, nil
}

// resume reconstructs jobs from replayed journal records: jobs with a
// terminal record are kept for listing/idempotency; accepted jobs without
// one were in flight when the process died and are re-enqueued. Recovery is
// idempotent by spec hash — an unfinished job whose hash already completed
// reuses the completed artifacts instead of re-running.
func (s *Server) resume(recs []journalRec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		switch rec.Ev {
		case "accept":
			if rec.Spec == nil || s.jobs[rec.ID] != nil {
				continue // no spec, or a second accept for one ID: the first stands
			}
			// The hash is the decoded spec's, not the journaled one: a spec
			// journaled under a key since retired hashes differently now,
			// and dedupe and the panic count must see it as the spec it is.
			j := &Job{
				ID:    rec.ID,
				Spec:  *rec.Spec,
				Hash:  rec.Spec.Hash(),
				State: StateQueued,
				Dir:   filepath.Join(s.cfg.DataDir, "jobs", rec.ID),
				hub:   newHub(),
			}
			if t, err := time.Parse(time.RFC3339Nano, rec.Time); err == nil {
				j.Accepted = t
			}
			s.jobs[j.ID] = j
			s.order = append(s.order, j.ID)
			var n int
			if _, err := fmt.Sscanf(rec.ID, "j%d", &n); err == nil && n > s.seq {
				s.seq = n
			}
		case "done":
			j := s.jobs[rec.ID]
			if j == nil || !rec.State.Terminal() {
				continue // no accept before it, or not a terminal state
			}
			j.State = rec.State
			j.Error = rec.Error
			if t, err := time.Parse(time.RFC3339Nano, rec.Time); err == nil {
				j.Finished = t
			}
			j.hub.close()
			if rec.State == StateCompleted {
				s.hashDone[j.Hash] = j
			}
		}
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State.Terminal() {
			continue
		}
		if done := s.hashDone[j.Hash]; done != nil {
			// Same spec already completed: adopt its artifacts.
			j.Dir = done.Dir
			s.finishLocked(j, StateCompleted, "")
			continue
		}
		res, err := j.Spec.resolve(s.cfg)
		if err != nil {
			s.finishLocked(j, StateFailed, err.Error())
			continue
		}
		j.res = res
		s.enqueueLocked(j, "resumed from journal")
	}
}

// Start launches the worker pool and (when configured) the memory-pressure
// shedder.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.workersWg.Add(1)
		go s.worker()
	}
	if s.cfg.MemSoftLimit > 0 {
		go s.memWatch()
	}
}

// Submit validates and admits one spec. On success the job is journaled,
// queued and its view returned; on failure the *RejectError carries the
// HTTP mapping.
func (s *Server) Submit(spec Spec) (JobView, error) {
	res, err := spec.resolve(s.cfg)
	if err != nil {
		mJobsRejected.At(rejInvalid).Inc()
		return JobView{}, &RejectError{Code: 400, Reason: "invalid", Err: err}
	}
	hash := spec.Hash()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		mJobsRejected.At(rejDraining).Inc()
		return JobView{}, &RejectError{Code: 503, Reason: "draining", Err: errors.New("server is draining")}
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		hint := s.retryAfterHint()
		s.mu.Unlock()
		mJobsRejected.At(rejQueueFull).Inc()
		return JobView{}, &RejectError{
			Code: 429, RetryAfter: hint, Reason: "queue_full",
			Err: fmt.Errorf("queue full (%d jobs)", s.cfg.QueueDepth),
		}
	}
	if n := s.tenantInFlightLocked(spec.Tenant); n >= s.cfg.TenantMax {
		hint := s.retryAfterHint()
		s.mu.Unlock()
		mJobsRejected.At(rejTenantCap).Inc()
		return JobView{}, &RejectError{
			Code: 429, RetryAfter: hint, Reason: "tenant_cap",
			Err: fmt.Errorf("tenant %q has %d jobs in flight (cap %d)", spec.Tenant, n, s.cfg.TenantMax),
		}
	}
	s.seq++
	j := &Job{
		ID:       fmt.Sprintf("j%d", s.seq),
		Spec:     spec,
		Hash:     hash,
		State:    StateQueued,
		Dir:      filepath.Join(s.cfg.DataDir, "jobs", fmt.Sprintf("j%d", s.seq)),
		Accepted: time.Now(),
		res:      res,
		hub:      newHub(),
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	if err := s.journal.append(journalRec{Ev: "accept", ID: j.ID, Hash: j.Hash, Spec: &j.Spec}); err != nil {
		// An unjournaled job would vanish on restart; refuse it instead.
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		mJobsRejected.At(rejJournal).Inc()
		return JobView{}, &RejectError{Code: 500, Reason: "journal", Err: err}
	}
	mJobsAccepted.Inc()
	s.enqueueLocked(j, "accepted")
	v := j.view()
	s.mu.Unlock()
	return v, nil
}

// retryAfterHint estimates (coarsely) when capacity frees up: one second
// per queued job ahead, per worker, clamped to [1s, 60s]. Callers hold mu.
func (s *Server) retryAfterHint() time.Duration {
	d := time.Duration(1+len(s.queue)/s.cfg.Workers) * time.Second
	return min(max(d, time.Second), time.Minute)
}

// tenantInFlightLocked counts a tenant's non-terminal jobs.
func (s *Server) tenantInFlightLocked(tenant string) int {
	n := 0
	for _, j := range s.jobs {
		if j.Spec.Tenant == tenant && !j.State.Terminal() {
			n++
		}
	}
	return n
}

// enqueueLocked appends to the run queue and wakes a worker. Callers hold
// mu and have already journaled the accept.
func (s *Server) enqueueLocked(j *Job, why string) {
	j.State = StateQueued
	s.queue = append(s.queue, j)
	mQueueDepth.Set(int64(len(s.queue)))
	j.hub.publish(Event{"state", fmt.Sprintf("queued (%s)", why)})
	s.cond.Signal()
}

// worker pulls jobs until drain.
func (s *Server) worker() {
	defer s.workersWg.Done()
	for {
		s.mu.Lock()
		for !s.draining && len(s.queue) == 0 {
			s.cond.Wait()
		}
		if s.draining && len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		mQueueDepth.Set(int64(len(s.queue)))
		if s.draining {
			// Queued jobs are not started during a drain: they stay
			// accepted-but-unfinished in the journal for the next process.
			s.mu.Unlock()
			continue
		}
		j.State = StateRunning
		s.running++
		mJobsRunning.Set(int64(s.running))
		s.mu.Unlock()

		j.hub.publish(Event{"state", fmt.Sprintf("running (attempt %d)", j.Attempt+1)})
		err := s.execute(j)

		s.mu.Lock()
		s.running--
		mJobsRunning.Set(int64(s.running))
		j.Attempt++
		switch {
		case err == nil:
			s.finishLocked(j, StateCompleted, "")
		case s.retryable(j, err) && j.Attempt <= j.res.retries:
			if s.draining {
				// No time to back off: leave the job unfinished in the
				// journal so the next process retries it.
				j.State = StateQueued
				j.Error = err.Error()
				j.hub.publish(Event{"state", "deferred to restart (draining)"})
			} else {
				s.scheduleRetryLocked(j, err)
			}
		default:
			s.finishLocked(j, StateFailed, err.Error())
		}
		s.mu.Unlock()
	}
}

// executeJob runs one attempt of a job's sweep, isolated: a panic that
// escapes the sweep runner (driver code, render callbacks) is recovered
// here and converted into an error wrapping exp.ErrPanic, so no job can
// take the daemon down. Artifacts — including partial tables and the
// failed runs' flight dumps — are written even when the attempt fails.
func (s *Server) executeJob(j *Job) error {
	rec := exp.NewRecorder()
	opt := *j.res.opt
	opt.Progress = func(format string, args ...any) {
		j.hub.publish(Event{"progress", fmt.Sprintf(format, args...)})
	}
	opt.OnRun = rec.Record
	start := time.Now()
	tables, err := func() (tables []*exp.Table, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("serve: job %s: %w: %v\n%s", j.ID, exp.ErrPanic, r, debug.Stack())
			}
		}()
		return j.res.exp.Run(j.res.scale, &opt)
	}()
	// The manifest records the job's own spec, not the daemon's budgets.
	m := exp.BuildManifest([]string{j.res.exp.ID}, j.res.scale, j.Spec.Spec, rec, start, time.Since(start))
	if werr := exp.WriteArtifacts(j.Dir, m, tables, rec); werr != nil && err == nil {
		err = fmt.Errorf("serve: job %s: writing artifacts: %w", j.ID, werr)
	}
	return err
}

// retryable classifies a failed attempt. Transient — watchdog kills under
// load, shed jobs — is retried with backoff; permanent — invalid configs,
// deterministic event-budget kills, and panics that repeat for the same
// spec hash — is not.
func (s *Server) retryable(j *Job, err error) bool {
	if errors.Is(err, exp.ErrPanic) {
		// A panic is deterministic for a deterministic scenario, but give
		// one retry to rule out environmental flukes: the same spec hash
		// panicking twice is permanent.
		s.panicHashes[j.Hash]++
		return s.panicHashes[j.Hash] < 2
	}
	if errors.Is(err, errShed) {
		return true
	}
	var serr *exp.SweepError
	if errors.As(err, &serr) {
		// Retry only when every failed run died of wall-clock pressure.
		for i := range serr.Failed {
			if !errors.Is(&serr.Failed[i], core.ErrWallBudget) {
				return false
			}
		}
		return true
	}
	return errors.Is(err, core.ErrWallBudget)
}

// scheduleRetryLocked parks a job in backoff: capped exponential delay with
// ±50% jitter, then back onto the queue. Callers hold mu.
func (s *Server) scheduleRetryLocked(j *Job, err error) {
	mJobsRetried.Inc()
	j.State = StateBackoff
	j.Error = err.Error()
	delay := s.backoffDelay(j.Attempt)
	j.hub.publish(Event{"state", fmt.Sprintf("backoff %v (attempt %d failed: %s)",
		delay.Round(time.Millisecond), j.Attempt, firstLine(err.Error()))})
	s.backoffs[j.ID] = time.AfterFunc(delay, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		delete(s.backoffs, j.ID)
		if s.draining || j.State != StateBackoff {
			return
		}
		s.enqueueLocked(j, fmt.Sprintf("retry %d", j.Attempt))
	})
}

// backoffDelay is the capped exponential schedule: base<<attempt with ±50%
// jitter, clamped to RetryMax.
func (s *Server) backoffDelay(attempt int) time.Duration {
	d := s.cfg.RetryBase << min(uint(attempt), 16)
	if d > s.cfg.RetryMax || d <= 0 {
		d = s.cfg.RetryMax
	}
	// Jitter in [0.5d, 1.5d) desynchronizes retry herds after a shed burst.
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// finishLocked records a job's terminal state: journal, metrics, SSE.
// Callers hold mu.
func (s *Server) finishLocked(j *Job, st State, errMsg string) {
	j.State = st
	j.Error = errMsg
	j.Finished = time.Now()
	if st == StateCompleted {
		mJobsCompleted.Inc()
		s.hashDone[j.Hash] = j
	} else {
		mJobsFailed.Inc()
	}
	if !j.Accepted.IsZero() {
		mJobLatency.Observe(int64(j.Finished.Sub(j.Accepted)))
	}
	_ = s.journal.append(journalRec{Ev: "done", ID: j.ID, Hash: j.Hash, State: st, Error: errMsg})
	j.hub.publish(Event{"state", string(st)})
	j.hub.close()
}

// errShed marks a queued job removed by the memory-pressure shedder; it is
// transient — the job re-enters through the retry path.
var errShed = errors.New("serve: shed under memory pressure")

// memWatch polls the heap and sheds while above the soft limit.
func (s *Server) memWatch() {
	t := time.NewTicker(s.cfg.MemCheckEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopMem:
			return
		case <-t.C:
			if s.cfg.memStats() > s.cfg.MemSoftLimit {
				s.shed()
			}
		}
	}
}

// shed removes the newest half of the queued-but-not-started jobs (at
// least one) and routes them through the transient-failure retry path, so
// a memory spike degrades to added latency instead of an OOM kill. Running
// jobs are never interrupted.
func (s *Server) shed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := (len(s.queue) + 1) / 2
	for i := 0; i < n; i++ {
		j := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		mJobsShed.Inc()
		j.Attempt++
		if j.Attempt <= j.res.retries {
			s.scheduleRetryLocked(j, errShed)
		} else {
			s.finishLocked(j, StateFailed, errShed.Error())
		}
	}
	mQueueDepth.Set(int64(len(s.queue)))
}

// Job returns a job's view by ID.
func (s *Server) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Jobs lists every job in acceptance order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].view())
	}
	return out
}

// Subscribe returns a job's event history and live stream (nil channel when
// the job is already terminal).
func (s *Server) Subscribe(id string) ([]Event, chan Event, func(), bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, nil, false
	}
	hist, ch, cancel := j.hub.subscribe()
	return hist, ch, cancel, true
}

// Status summarizes the daemon for /statusz.
func (s *Server) Status() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	byState := map[State]int{}
	for _, j := range s.jobs {
		byState[j.State]++
	}
	return map[string]any{
		"workers":     s.cfg.Workers,
		"queue_depth": len(s.queue),
		"queue_cap":   s.cfg.QueueDepth,
		"running":     s.running,
		"draining":    s.draining,
		"jobs":        byState,
		"uptime":      time.Since(s.start).Round(time.Millisecond).String(),
	}
}

// Drain stops admission and new job starts, lets running jobs finish until
// ctx expires, cancels pending backoff timers (their jobs stay journaled as
// unfinished, so a restart resumes them), and closes the journal. It
// returns nil when every worker drained in time, or the context error when
// the deadline passed with jobs still running — the caller exits anyway and
// the journal replay recovers the stragglers.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for id, t := range s.backoffs {
		t.Stop()
		delete(s.backoffs, id)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.memOnce.Do(func() { close(s.stopMem) })

	done := make(chan struct{})
	go func() {
		s.workersWg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	return err
}

// firstLine truncates multi-line error text for one-line SSE use.
func firstLine(str string) string {
	for i := 0; i < len(str); i++ {
		if str[i] == '\n' {
			return str[:i] + " [...]"
		}
	}
	return str
}

// Process-global daemon metrics (the issue's serve_jobs_* family).
const (
	rejInvalid = iota
	rejQueueFull
	rejTenantCap
	rejDraining
	rejJournal
)

var (
	mJobsAccepted = obs.NewCounter("vertigo_serve_jobs_accepted_total",
		"jobs admitted past validation and admission control")
	mJobsRejected = obs.NewCounterVec("vertigo_serve_jobs_rejected_total",
		"jobs rejected at admission", "reason",
		"invalid", "queue_full", "tenant_cap", "draining", "journal")
	mJobsRetried = obs.NewCounter("vertigo_serve_jobs_retried_total",
		"transient job failures scheduled for a backoff retry")
	mJobsFailed = obs.NewCounter("vertigo_serve_jobs_failed_total",
		"jobs that reached the failed state")
	mJobsCompleted = obs.NewCounter("vertigo_serve_jobs_completed_total",
		"jobs that completed successfully")
	mJobsShed = obs.NewCounter("vertigo_serve_jobs_shed_total",
		"queued jobs shed under memory pressure")
	mQueueDepth = obs.NewGauge("vertigo_serve_queue_depth",
		"jobs queued but not started")
	mJobsRunning = obs.NewGauge("vertigo_serve_jobs_running",
		"jobs currently executing")
	mJobLatency = obs.NewHistogram("vertigo_serve_job_latency_ns",
		"accept-to-terminal job latency in nanoseconds")
)
