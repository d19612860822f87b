package exp

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"time"

	"vertigo/internal/core"
	"vertigo/internal/fabric"
	"vertigo/internal/faults"
	"vertigo/internal/metrics"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// Spec is one sweep's settings, and the one place each of them is declared:
// the field names its JSON key, RegisterFlags its flag, and Resolve and
// applyTo what it does. vertigo-exp parses its command line into a Spec,
// every vertigo-serve job embeds one (serve.Spec), and manifest.json
// records the normalized Spec its artifacts came from. The zero value of
// every field means its default. Durations are Go duration strings ("4ms",
// "1h") in JSON and on the command line alike. A run setting (fault through
// chaos_panic_at) applies to every run of the sweep that sets none of its
// own.
type Spec struct {
	Scale        string          `json:"scale,omitempty"`          // tiny|small|medium|paper|huge (default small)
	Seed         int64           `json:"seed,omitempty"`           // RNG seed (0 = the scale's)
	SimTime      Duration        `json:"sim_time,omitempty"`       // simulated time per run (0 = the scale's)
	Jobs         int             `json:"jobs,omitempty"`           // simulations run at once (default 1); tables are identical at any
	Fault        string          `json:"fault,omitempty"`          // fault schedule (internal/faults DSL)
	HealDelay    Duration        `json:"heal_delay,omitempty"`     // control-plane healing delay (0 = off)
	RunTimeout   Duration        `json:"run_timeout,omitempty"`    // wall-clock budget per run (0 = unlimited; core.ErrWallBudget)
	MaxEvents    uint64          `json:"max_events,omitempty"`     // event budget per run (0 = unlimited; core.ErrMaxEvents)
	Shards       int             `json:"shards,omitempty"`         // topology domains per run (0 or 1 = serial; core.Config.Shards)
	SampleTick   Duration        `json:"sample_tick,omitempty"`    // per-port sampler tick (0 = off); series reach Options.OnRun
	TraceFlow    uint64          `json:"trace_flow,omitempty"`     // flow ID to trace as JSONL (0 = off)
	RawSeries    metrics.RawMode `json:"raw_series,omitempty"`     // raw FCT/QCT retention: auto|keep|drop (keep also keeps completed records)
	ChaosPanicAt Duration        `json:"chaos_panic_at,omitempty"` // crash drill: simulated time every run panics at (0 = never)
}

// Duration is a Spec duration: nanoseconds, written as a Go duration string.
type Duration time.Duration

// MarshalText renders d as time.Duration prints it, which parses back to d.
func (d Duration) MarshalText() ([]byte, error) { return []byte(time.Duration(d).String()), nil }

// UnmarshalText parses a Go duration string; the empty string is 0.
func (d *Duration) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*d = 0
		return nil
	}
	v, err := time.ParseDuration(string(b))
	if err == nil {
		*d = Duration(v)
	}
	return err
}

// RegisterFlags binds every field of s to a flag of fs, in place: a flag's
// default is the field's value when RegisterFlags is called, and parsing
// writes the field.
func (s *Spec) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Scale, "scale", s.Scale, "scale preset: tiny|small|medium|paper|huge (empty = small)")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "RNG seed of every run (0 = the scale's)")
	fs.TextVar(&s.SimTime, "sim-time", s.SimTime, "simulated time of every run, e.g. 4ms (0 = the scale's)")
	fs.IntVar(&s.Jobs, "j", s.Jobs, "simulations to run concurrently within each experiment (1 = sequential; tables are identical at any setting)")
	fs.StringVar(&s.Fault, "fault", s.Fault, `fault schedule injected into every run, e.g. "flap@10ms:link=64,down=1ms,period=4ms,count=3" (see internal/faults)`)
	fs.TextVar(&s.HealDelay, "heal-delay", s.HealDelay, "control-plane healing delay after each -fault topology change (0 = healing off)")
	fs.TextVar(&s.RunTimeout, "run-timeout", s.RunTimeout, "wall-clock budget per simulation run; an over-budget run fails its row (0 = unlimited)")
	fs.Uint64Var(&s.MaxEvents, "max-events", s.MaxEvents, "event budget per simulation run; a capped run fails its row (0 = unlimited)")
	fs.IntVar(&s.Shards, "shards", s.Shards, "shard every simulation across this many topology domains on separate cores, probes included (tables are deterministic per shard count, same offered workload at any; 0 or 1 = serial engine)")
	fs.TextVar(&s.SampleTick, "sample-tick", s.SampleTick, "per-port queue/utilization sampling tick, e.g. 100us (0 = off; series lands in -out samples.csv)")
	fs.Uint64Var(&s.TraceFlow, "trace-flow", s.TraceFlow, "JSONL packet trace for this flow ID (0 = off; trace lands in -out trace.jsonl)")
	fs.TextVar(&s.RawSeries, "raw-series", s.RawSeries, "raw FCT/QCT series retention: auto (drop past 200k flows/run), keep (also keeps completed flow records), drop (histograms still carry the distributions)")
	fs.TextVar(&s.ChaosPanicAt, "chaos-panic-at", s.ChaosPanicAt, "crash drill: every run panics at this simulated time (0 = never)")
}

// Normalize replaces every defaulted field with the value it stands for —
// the scale's name, seed and simulated time, one job — so that equivalent
// specs are equal values and hash alike. A spec naming an unknown scale
// keeps its scale fields as they are; Resolve rejects it.
func (s *Spec) Normalize() { _, _ = s.normalize() }

// normalize is Normalize returning the scale the spec denotes.
func (s *Spec) normalize() (Scale, error) {
	s.Jobs = max(s.Jobs, 1)
	sc, err := ScaleByName(s.Scale)
	if err != nil {
		return sc, err
	}
	s.Scale = sc.Name
	s.Seed = cmp.Or(s.Seed, sc.Seed)
	s.SimTime = cmp.Or(s.SimTime, Duration(sc.SimTime))
	sc.Seed, sc.SimTime = s.Seed, units.Time(s.SimTime)
	return sc, nil
}

// Hash is the spec's identity: HashJSON of the normalized spec.
func (s Spec) Hash() string {
	s.Normalize()
	return HashJSON(s)
}

// HashJSON is the identity of a plain-data value: a hex digest of its JSON.
// Field order in a struct marshal is declaration order, so equal values
// hash alike.
func HashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Callers hash plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("exp: marshaling %T: %v", v, err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Resolve is the one resolver of a spec: it validates it and returns what a
// sweep runs, the scale with the spec's seed and simulated time and Options
// holding the normalized spec and its parsed fault schedule. Everything a
// sweep would otherwise find out mid-run fails here: an unknown scale, a
// malformed fault schedule, and — by core.Config.Validate on the scenario
// every experiment includes, Vertigo+DCTCP on the scale's leaf-spine, with
// the spec applied — negative settings and fault events or a chaos panic
// outside the simulated window.
func (s Spec) Resolve() (Scale, *Options, error) {
	sc, err := s.normalize()
	if err != nil {
		return Scale{}, nil, err
	}
	opt := NewOptions()
	opt.Spec = s
	if s.Fault != "" {
		if opt.faults, err = faults.Parse(s.Fault); err != nil {
			return Scale{}, nil, err
		}
	}
	probe := opt.applyTo(baseConfig(sc, fabric.Vertigo, transport.DCTCP))
	if err := probe.Validate(); err != nil {
		return Scale{}, nil, err
	}
	return sc, opt, nil
}

// applyTo folds the spec's run settings into one run's config, each only
// where the run sets none of its own. Per-run attachments (the trace
// buffer, the flight recorder) stay in run.
func (o *Options) applyTo(cfg core.Config) core.Config {
	s := &o.Spec
	fill(&cfg.Faults, o.faults)
	fill(&cfg.HealDelay, units.Time(s.HealDelay))
	fill(&cfg.WallTimeout, time.Duration(s.RunTimeout))
	fill(&cfg.MaxEvents, s.MaxEvents)
	fill(&cfg.Shards, s.Shards)
	fill(&cfg.SampleTick, units.Time(s.SampleTick))
	if cfg.PacketTrace == nil {
		fill(&cfg.PacketTraceFlow, s.TraceFlow)
	}
	fill(&cfg.RawSeries, s.RawSeries)
	fill(&cfg.ChaosPanicAt, units.Time(s.ChaosPanicAt))
	return cfg
}

// fill sets *dst to v when *dst is its zero value.
func fill[T comparable](dst *T, v T) {
	var zero T
	if *dst == zero {
		*dst = v
	}
}
