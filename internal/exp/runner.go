package exp

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"vertigo/internal/core"
	"vertigo/internal/faults"
	"vertigo/internal/metrics"
	"vertigo/internal/obs"
)

// ErrPanic marks a run that died by panicking (as opposed to returning an
// error). Crash-safe sweeps wrap the recovered panic into an error chain
// containing this sentinel, so callers classify with errors.Is instead of
// string-matching stack traces. A panic is deterministic for a deterministic
// scenario: the same config panics the same way on every machine.
var ErrPanic = errors.New("run panicked")

// Options is what one sweep invocation runs under: its Spec and the forms
// Resolve derives from it, plus what no spec carries — the crash flight
// recorder's size and the progress and per-run hooks. Concurrent sweeps
// never share state unless they share an Options, in which case they also
// share its progress lock.
type Options struct {
	// Spec holds the sweep's settings (see Spec). Resolve stores the
	// normalized spec here together with its parsed fault schedule; set
	// Fault through Resolve, not here.
	Spec Spec
	// faults is Spec.Fault parsed, nil when it is empty.
	faults *faults.Schedule
	// FlightLen is the per-run crash flight recorder's ring size; failed
	// runs dump it to flight.jsonl. 0 disables the recorder.
	FlightLen int
	// Progress, when non-nil, receives one line per completed run. Calls
	// are serialized under the Options' progress lock, so the function
	// need not be thread-safe itself.
	Progress func(format string, args ...any)
	// OnRun, when non-nil, receives every completed run's instrumentation,
	// serialized under the same lock as Progress; runs arrive in
	// completion order (use RunInfo.Label to regroup).
	OnRun func(RunInfo)

	// mu serializes Progress and OnRun across every sweep run under this
	// Options or a copy of it: vertigo-exp -parallel runs several
	// experiments at once against one Recorder.
	mu *sync.Mutex
}

// DefaultFlightLen is the crash flight recorder's default ring size.
const DefaultFlightLen = 4096

// NewOptions returns the defaults of a process nobody configured — a worker
// per CPU, a DefaultFlightLen flight ring, nothing else attached or bounded
// — with a progress lock of its own. Experiment.Run(sc, nil) means these;
// Resolve starts from them.
func NewOptions() *Options {
	return &Options{Spec: Spec{Jobs: runtime.GOMAXPROCS(0)}, FlightLen: DefaultFlightLen, mu: new(sync.Mutex)}
}

// runFn is the scenario executor used by sweeps; a package variable so the
// crash-recovery tests can substitute a misbehaving implementation.
var runFn = (*Options).run

// sweepJob is one scenario of a sweep: a label and config submitted up
// front, the simulation outcome filled in by a worker, and a render callback
// that folds the outcome into the driver's tables.
type sweepJob struct {
	label  string
	cfg    core.Config
	render func(s *metrics.Summary, col *metrics.Collector)
	sum    *metrics.Summary
	col    *metrics.Collector
	err    error
}

// sweep collects scenarios and runs them on a worker pool. Drivers enqueue
// every point first (add), then execute (run): workers complete jobs in
// whatever order the scheduler picks, but render callbacks fire in
// submission order after all simulations finish, so rendered tables are
// byte-identical to a sequential run regardless of concurrency.
type sweep struct {
	opt  *Options
	jobs []*sweepJob
}

// newSweep returns an empty sweep running under opt; nil opt means
// NewOptions' defaults.
func newSweep(opt *Options) *sweep {
	if opt == nil {
		opt = NewOptions()
	}
	return &sweep{opt: opt}
}

// add enqueues one scenario. render (optional) is invoked with the
// simulation outcome during run, in submission order.
func (sw *sweep) add(label string, cfg core.Config, render func(*metrics.Summary, *metrics.Collector)) {
	sw.jobs = append(sw.jobs, &sweepJob{label: label, cfg: cfg, render: render})
}

// safeRun executes one scenario, converting a panic into an ordinary error
// (wrapping ErrPanic) so a crashing run fails its own row instead of killing
// the worker pool (or, sequentially, the whole batch). It pre-attaches the
// crash flight recorder: created here, outside the run, so its ring survives
// the panic unwinding out of core.Run and the failure report can dump what
// the dying run was doing.
func (o *Options) safeRun(label string, cfg core.Config) (sum *metrics.Summary, col *metrics.Collector, err error) {
	if cfg.Flight == nil && o.FlightLen > 0 {
		cfg.Flight = obs.NewFlightRecorder(o.FlightLen)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("exp: %s: %w: %v\n%s", label, ErrPanic, r, debug.Stack())
			o.reportFailure(label, err, cfg.Flight)
		}
	}()
	return runFn(o, label, cfg)
}

// run executes all enqueued jobs and fires the render callbacks of the
// successful ones in submission order. Failures — errors and panics alike —
// do not stop the sweep: the remaining jobs still run, partial tables still
// render, and the failures come back aggregated in a *SweepError.
func (sw *sweep) run() error {
	o := sw.opt
	workers := min(o.Spec.Jobs, len(sw.jobs))
	if workers <= 1 {
		for _, j := range sw.jobs {
			j.sum, j.col, j.err = o.safeRun(j.label, j.cfg)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(sw.jobs) {
						return
					}
					j := sw.jobs[i]
					j.sum, j.col, j.err = o.safeRun(j.label, j.cfg)
				}
			}()
		}
		wg.Wait()
	}
	var failed []RunError
	for _, j := range sw.jobs {
		if j.err != nil {
			failed = append(failed, RunError{Label: j.label, Err: j.err})
			continue
		}
		if j.render != nil {
			j.render(j.sum, j.col)
		}
	}
	if len(failed) > 0 {
		return &SweepError{Failed: failed, Total: len(sw.jobs)}
	}
	return nil
}

// RunError is one failed run of a sweep.
type RunError struct {
	Label string
	Err   error
}

func (e *RunError) Error() string {
	return fmt.Sprintf("exp: run %s failed: %s", e.Label, e.Err)
}

// Unwrap exposes the underlying failure so callers can classify it with
// errors.Is/errors.As (core.ErrWallBudget, core.ErrMaxEvents, ErrPanic)
// instead of string matching.
func (e *RunError) Unwrap() error { return e.Err }

// SweepError aggregates every failure of a sweep whose surviving runs still
// rendered. Drivers return it alongside their partial tables.
type SweepError struct {
	Failed []RunError
	Total  int
}

func (e *SweepError) Error() string {
	first := fmt.Sprintf("%s: %s", e.Failed[0].Label, firstLine(e.Failed[0].Err.Error()))
	if len(e.Failed) == 1 {
		return fmt.Sprintf("exp: 1 of %d runs failed: %s", e.Total, first)
	}
	return fmt.Sprintf("exp: %d of %d runs failed; first: %s", len(e.Failed), e.Total, first)
}

// Unwrap exposes every failed run as an error, so errors.Is/errors.As walk
// into a sweep's failures (each RunError unwraps further to its cause).
func (e *SweepError) Unwrap() []error {
	errs := make([]error, len(e.Failed))
	for i := range e.Failed {
		errs[i] = &e.Failed[i]
	}
	return errs
}

// firstLine truncates multi-line error text (panic stacks) for one-line use.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " [...]"
	}
	return s
}
