// Package serve is the vertigo-serve daemon: a crash-isolated,
// admission-controlled simulation service. Tenants submit experiment specs
// over HTTP/JSON; the daemon validates them up front, runs them on a
// bounded worker pool wrapping the crash-safe sweep runner (internal/exp),
// streams progress over SSE, persists per-job artifact directories, and
// journals every accepted job so a restart resumes unfinished work. A
// panicking or watchdog-killed job fails alone — dumping its flight
// recorder into the job's artifacts — instead of taking the process down.
package serve

import (
	"fmt"

	"vertigo/internal/exp"
)

// Spec is one tenant's experiment submission: which experiment, under which
// sweep settings — the exp.Spec that vertigo-exp reads from its flags, under
// the same JSON keys — plus who submits it and how often to retry it.
type Spec struct {
	// Tenant names the submitting tenant; admission control caps each
	// tenant's in-flight jobs independently. Empty = "anon".
	Tenant string `json:"tenant,omitempty"`
	// Experiment is the experiment ID to run (see vertigo-exp -list).
	Experiment string `json:"experiment"`
	// Spec is the sweep: scale, seed, faults, budgets, probes. The daemon's
	// own budgets (Config.DefaultRunTimeout, DefaultMaxEvents) bound a job
	// whose spec leaves run_timeout or max_events at 0.
	exp.Spec
	// Retries overrides the daemon's per-job retry budget (nil = default).
	Retries *int `json:"retries,omitempty"`
}

// Normalize fills defaulted fields in place (see exp.Spec.Normalize) so
// equivalent submissions hash identically.
func (s *Spec) Normalize() {
	if s.Tenant == "" {
		s.Tenant = "anon"
	}
	s.Spec.Normalize()
}

// Hash returns the spec's identity: a hex digest of the normalized
// submission. The journal dedupes and resumes by this hash, and the retry
// classifier uses it to recognize "the same spec panicked before" —
// deterministic crashes are not retried twice.
func (s *Spec) Hash() string {
	n := *s
	n.Normalize()
	return exp.HashJSON(&n)
}

// resolved is a validated, executable spec: the experiment driver, scale
// and per-sweep options it denotes.
type resolved struct {
	exp     *exp.Experiment
	scale   exp.Scale
	opt     *exp.Options // template; per-attempt hooks are filled at run time
	retries int          // per-job retry budget
}

// resolve normalizes the spec in place and validates it against the
// experiment registry and exp.Spec.Resolve, returning the executable form.
// Every error here is a permanent, admission-time rejection (HTTP 400): the
// job never reaches a worker.
func (s *Spec) resolve(d Config) (*resolved, error) {
	s.Normalize()
	e, err := exp.ByID(s.Experiment)
	if err != nil {
		return nil, err
	}
	sc, opt, err := s.Spec.Resolve()
	if err != nil {
		return nil, err
	}
	opt.FlightLen = d.FlightLen
	if opt.Spec.RunTimeout == 0 {
		opt.Spec.RunTimeout = exp.Duration(d.DefaultRunTimeout)
	}
	if opt.Spec.MaxEvents == 0 {
		opt.Spec.MaxEvents = d.DefaultMaxEvents
	}
	retries := d.MaxRetries
	if s.Retries != nil {
		if *s.Retries < 0 {
			return nil, fmt.Errorf("serve: negative retries %d", *s.Retries)
		}
		retries = *s.Retries
	}
	return &resolved{exp: e, scale: sc, opt: opt, retries: retries}, nil
}
