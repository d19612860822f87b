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
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"vertigo/internal/exp"
	"vertigo/internal/faults"
	"vertigo/internal/metrics"
	"vertigo/internal/units"
)

// Spec is one tenant's experiment submission: which experiment at which
// scale, plus the per-job knobs the vertigo-exp CLI exposes as flags.
// Durations are strings in Go syntax ("250ms", "1h"). The zero value of
// every optional field means "daemon default".
type Spec struct {
	// Tenant names the submitting tenant; admission control caps each
	// tenant's in-flight jobs independently. Empty = "anon".
	Tenant string `json:"tenant,omitempty"`
	// Experiment is the experiment ID to run (see vertigo-exp -list).
	Experiment string `json:"experiment"`
	// Scale is the scale preset: tiny|small|medium|paper|huge (default small).
	Scale string `json:"scale,omitempty"`
	// Seed overrides the scale's RNG seed when nonzero.
	Seed int64 `json:"seed,omitempty"`
	// SimTime overrides the scale's simulated duration ("4ms"). Shorter
	// windows cost proportionally less worker time.
	SimTime string `json:"sim_time,omitempty"`
	// Jobs is the intra-sweep concurrency (default 1; tables are identical
	// at any setting).
	Jobs int `json:"jobs,omitempty"`
	// Fault is a fault schedule in the internal/faults DSL, injected into
	// every run of the sweep.
	Fault string `json:"fault,omitempty"`
	// HealDelay enables control-plane healing with this convergence delay.
	HealDelay string `json:"heal_delay,omitempty"`
	// RunTimeout bounds each run's wall-clock time; empty uses the daemon
	// default. Over-budget runs are transient failures (retried).
	RunTimeout string `json:"run_timeout,omitempty"`
	// MaxEvents bounds each run's event count; 0 uses the daemon default.
	// Capped runs are deterministic, hence permanent failures.
	MaxEvents uint64 `json:"max_events,omitempty"`
	// Shards, when > 1, runs every simulation sharded across that many
	// topology domains on separate cores, probes included. Tables are
	// deterministic per shard count, the offered workload the same at any.
	Shards int `json:"shards,omitempty"`
	// SampleTick attaches the per-port sampler with this tick.
	SampleTick string `json:"sample_tick,omitempty"`
	// TraceFlow attaches a JSONL packet trace for this flow ID.
	TraceFlow uint64 `json:"trace_flow,omitempty"`
	// RawSeries sets raw FCT/QCT retention: auto|keep|drop.
	RawSeries string `json:"raw_series,omitempty"`
	// ChaosPanicAt, when set, makes every run panic deliberately at this
	// simulated time — a crash drill proving the daemon's isolation: the
	// job fails with a flight dump, the process stays healthy.
	ChaosPanicAt string `json:"chaos_panic_at,omitempty"`
	// Retries overrides the daemon's per-job retry budget (nil = default).
	Retries *int `json:"retries,omitempty"`
}

// normalize fills defaulted fields in place so equivalent submissions hash
// identically.
func (s *Spec) normalize() {
	if s.Tenant == "" {
		s.Tenant = "anon"
	}
	if s.Scale == "" {
		s.Scale = "small"
	}
	if s.Jobs <= 0 {
		s.Jobs = 1
	}
}

// Hash returns the spec's identity: a hex digest of the normalized
// submission. The journal dedupes and resumes by this hash, and the retry
// classifier uses it to recognize "the same spec panicked before" —
// deterministic crashes are not retried twice.
func (s *Spec) Hash() string {
	n := *s
	n.normalize()
	// Field order in a struct marshal is declaration order, so the digest
	// is stable for a given binary and spec.
	b, err := json.Marshal(&n)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: marshaling spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// resolved is a validated, executable spec: the experiment driver, scale
// and per-sweep options it denotes.
type resolved struct {
	exp     *exp.Experiment
	scale   exp.Scale
	opt     *exp.Options // template; per-attempt hooks are filled at run time
	retries int          // per-job retry budget
}

// parseDur parses an optional duration field ("" = 0).
func parseDur(field, v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("serve: bad %s %q: %w", field, v, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("serve: negative %s %q", field, v)
	}
	return d, nil
}

// resolve validates the spec against the experiment registry, the scale
// presets, the fault DSL, and core.Config.Validate, returning the
// executable form. Every error here is a permanent, admission-time
// rejection (HTTP 400): the job never reaches a worker.
func (s *Spec) resolve(d Config) (*resolved, error) {
	s.normalize()
	e, err := exp.ByID(s.Experiment)
	if err != nil {
		return nil, err
	}
	sc, err := exp.ScaleByName(s.Scale)
	if err != nil {
		return nil, err
	}
	if s.Seed != 0 {
		sc.Seed = s.Seed
	}
	if st, err := parseDur("sim_time", s.SimTime); err != nil {
		return nil, err
	} else if st > 0 {
		sc.SimTime = units.FromDuration(st)
	}

	opt := exp.NewOptions()
	opt.Concurrency = s.Jobs
	opt.FlightLen = d.FlightLen
	opt.RunTimeout = d.DefaultRunTimeout
	if rt, err := parseDur("run_timeout", s.RunTimeout); err != nil {
		return nil, err
	} else if rt > 0 {
		opt.RunTimeout = rt
	}
	opt.MaxEvents = d.DefaultMaxEvents
	if s.MaxEvents > 0 {
		opt.MaxEvents = s.MaxEvents
	}
	if s.Fault != "" {
		sched, err := faults.Parse(s.Fault)
		if err != nil {
			return nil, err
		}
		opt.FaultSchedule = sched
	}
	hd, err := parseDur("heal_delay", s.HealDelay)
	if err != nil {
		return nil, err
	}
	opt.HealDelay = units.FromDuration(hd)
	st, err := parseDur("sample_tick", s.SampleTick)
	if err != nil {
		return nil, err
	}
	opt.SampleTick = units.FromDuration(st)
	opt.TraceFlow = s.TraceFlow
	if s.Shards < 0 {
		return nil, fmt.Errorf("serve: negative shards %d", s.Shards)
	}
	opt.Shards = s.Shards
	if s.RawSeries != "" {
		rm, err := metrics.ParseRawMode(s.RawSeries)
		if err != nil {
			return nil, err
		}
		opt.RawMode = rm
	}
	cp, err := parseDur("chaos_panic_at", s.ChaosPanicAt)
	if err != nil {
		return nil, err
	}
	opt.ChaosPanicAt = units.FromDuration(cp)

	// Fail bad configurations at admission, not after a worker committed:
	// fault events outside the simulated window and chaos panics past the
	// deadline all surface here.
	probe := exp.ProbeConfig(sc, opt)
	if err := probe.Validate(); err != nil {
		return nil, err
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
