package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"vertigo/internal/core"
	"vertigo/internal/metrics"
	"vertigo/internal/units"
)

// The identity suites read their reference sweeps through one memo: each
// reference is simulated once per test process, the first time any test asks
// for it, and every later request reads what it showed. A run under test is
// never served a reference's outcome: render bypasses the memo, so a repeat
// or -j check always compares two simulations.

// observation is one way of watching a sweep.
type observation struct {
	tick    units.Time // sampler tick, 0 = no sampler
	monitor bool       // attach the telemetry monitor
	trace   uint64     // flow to trace, 0 = no tracer
}

func (ob observation) String() string {
	return fmt.Sprintf("tick=%v monitor=%t trace=%d", ob.tick, ob.monitor, ob.trace)
}

// observed watches a sweep with every probe: a sampler, the monitor and a
// tracer. Its fig1 reference is the one that the observation, -j and scrape
// tests share.
var observed = observation{tick: 200 * units.Microsecond, monitor: true, trace: 1}

// sweepRun is what one render of an experiment shows: its tables, each run's
// Summary digest by label, and the recorder its runs reported to.
type sweepRun struct {
	tables []byte
	sums   map[string]string
	rec    *Recorder
}

// render renders experiment id at Tiny under ob, every run simulated afresh.
// opt sets the sweep's concurrency; an OnRun it carries is called after the
// recorder's.
func render(t *testing.T, id string, ob observation, opt *Options) sweepRun {
	t.Helper()
	return renderVia(t, id, ob, opt, (*Options).run)
}

// reference is experiment id's render at Tiny under ob, from the memo. The
// first request simulates the sweep's runs on every core and then replays
// them to a render on one worker, so the reference's tables and artifacts
// come in submission order, as a -j1 render's do. The memo keeps what the
// render showed — bytes and digests, not the runs, whose probes hold their
// whole simulated world. An observed reference whose probes recorded nothing
// fails the test: comparing against it would prove nothing.
func reference(t *testing.T, id string, ob observation) sweepRun {
	t.Helper()
	key := fmt.Sprintf("%s %v", id, ob)
	references.Lock()
	ref := references.sweeps[key]
	if ref == nil {
		ref = new(referenceSweep)
		references.sweeps[key] = ref
	}
	references.Unlock()
	ref.once.Do(func() {
		runs := &runMemo{runs: map[string]*memoRun{}}
		renderVia(t, id, ob, NewOptions(), runs.run)
		runs.replay = true
		ref.sweep = renderVia(t, id, ob, workers(1), runs.run)
	})
	sr := ref.sweep
	if sr.tables == nil {
		t.Fatalf("%s under %v: the reference failed to render", id, ob)
	}
	if ob.tick > 0 && len(sr.rec.SamplesCSV()) == 0 || ob.trace > 0 && len(sr.rec.TraceJSONL()) == 0 {
		t.Fatalf("%s under %v: samples=%d trace=%d bytes; the probes recorded nothing to compare",
			id, ob, len(sr.rec.SamplesCSV()), len(sr.rec.TraceJSONL()))
	}
	return sr
}

// referenceSweep is one reference as the memo keeps it.
type referenceSweep struct {
	once  sync.Once
	sweep sweepRun
}

var references = struct {
	sync.Mutex
	sweeps map[string]*referenceSweep // by experiment and observation; scale and options are fixed
}{sweeps: map[string]*referenceSweep{}}

func renderVia(t *testing.T, id string, ob observation, opt *Options,
	run func(*Options, string, core.Config) (*metrics.Summary, *metrics.Collector, error)) sweepRun {
	t.Helper()
	// No sweep option attaches the monitor; the run hook does.
	defer func(old func(*Options, string, core.Config) (*metrics.Summary, *metrics.Collector, error)) {
		runFn = old
	}(runFn)
	runFn = func(o *Options, label string, cfg core.Config) (*metrics.Summary, *metrics.Collector, error) {
		if ob.monitor {
			cfg.Telemetry = true
		}
		return run(o, label, cfg)
	}
	opt.Spec.SampleTick = Duration(ob.tick)
	opt.Spec.TraceFlow = ob.trace
	sr := sweepRun{sums: map[string]string{}, rec: NewRecorder()}
	also := opt.OnRun
	opt.OnRun = func(ri RunInfo) {
		sr.rec.Record(ri)
		if ri.Summary != nil {
			sr.sums[ri.Label] = summaryDigest(t, ri.Summary)
		}
		if also != nil {
			also(ri)
		}
	}
	sr.tables = renderAll(t, id, opt)
	return sr
}

// summaryDigest hashes everything a run's Summary says.
func summaryDigest(t *testing.T, s *metrics.Summary) string {
	t.Helper()
	h := sha256.New()
	if err := s.Encode(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runMemo carries a reference's runs from the render that simulates them to
// the one that replays them, keyed by label: both renders submit the same
// runs under the same labels, and a label names one run of a sweep.
type runMemo struct {
	sync.Mutex
	replay bool // the simulating render is over
	runs   map[string]*memoRun
}

// memoRun is one run: what a sweep's render callback and OnRun hook are
// handed.
type memoRun struct {
	sum  *metrics.Summary
	col  *metrics.Collector
	info RunInfo
	err  error
}

// run is a runFn that, in the simulating render, simulates each run and keeps
// its outcome and OnRun record, and in the replaying render hands each
// request that record. A label submitted twice in one render, or only in the
// replaying one, fails the run, and so the reference.
func (rm *runMemo) run(o *Options, label string, cfg core.Config) (*metrics.Summary, *metrics.Collector, error) {
	rm.Lock()
	m, seen := rm.runs[label]
	replay := rm.replay
	if !seen && !replay {
		m = new(memoRun)
		rm.runs[label] = m
	}
	rm.Unlock()
	switch {
	case seen && !replay:
		return nil, nil, fmt.Errorf("label %q names two runs of one sweep", label)
	case !seen && replay:
		return nil, nil, fmt.Errorf("label %q was not simulated before its replay", label)
	case !replay:
		quiet := *o
		quiet.Progress = nil
		quiet.OnRun = func(ri RunInfo) { m.info = ri }
		m.sum, m.col, m.err = quiet.run(label, cfg)
	}
	if m.err != nil {
		return nil, nil, m.err
	}
	if o.OnRun != nil {
		o.mu.Lock()
		o.OnRun(m.info)
		o.mu.Unlock()
	}
	return m.sum, m.col, nil
}
