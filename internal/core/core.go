// Package core assembles the substrates into runnable scenarios: it builds
// the topology, fabric, hosts, transports and workloads from one Config,
// runs the event loop to the simulated deadline, and returns the metrics
// digest. This is the simulator's equivalent of the paper's OMNeT++
// scenario files.
package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"vertigo/internal/fabric"
	"vertigo/internal/faults"
	"vertigo/internal/host"
	"vertigo/internal/metrics"
	"vertigo/internal/obs"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/telemetry"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
	"vertigo/internal/workload"
)

// TopoKind selects a topology family.
type TopoKind int

// Topology kinds.
const (
	LeafSpine TopoKind = iota
	FatTree
)

func (k TopoKind) String() string {
	if k == FatTree {
		return "fattree"
	}
	return "leafspine"
}

// Config describes one simulation scenario.
type Config struct {
	Seed    int64
	SimTime units.Time

	// Topology. Exactly one of LeafSpineCfg/FatTreeCfg is used per Kind.
	Kind         TopoKind
	LeafSpineCfg topo.LeafSpineConfig
	FatTreeCfg   topo.FatTreeConfig

	Fabric    fabric.Config
	Transport transport.Config

	// VertigoStack enables the host marking/ordering components. It is
	// forced on when the fabric policy is Vertigo.
	VertigoStack bool
	Marker       host.MarkerConfig
	Orderer      host.OrdererConfig

	// Background traffic.
	BGLoad float64 // fraction of aggregate host capacity
	BGDist *workload.SizeDist
	// Trace, when non-nil, replays an explicit flow schedule in addition to
	// (or instead of) the synthetic background load.
	Trace *workload.Trace

	// Incast application.
	IncastQPS      float64
	IncastScale    int
	IncastFlowSize int64
	IncastPeriodic bool // fixed-interval queries instead of Poisson (§2)
	RequestDelay   units.Time

	// Telemetry attaches a monitoring observer to the fabric (§5).
	Telemetry       bool
	TelemetryConfig telemetry.Config
	// PacketTrace, when non-nil, receives one JSON object per dataplane
	// event (fleet-wide packet capture, the trace.jsonl format; a sharded
	// run's is merged by time); PacketTraceFlow filters to one flow (0 = all
	// flows — beware volume).
	PacketTrace     io.Writer
	PacketTraceFlow uint64

	// SampleTick, when positive, attaches a telemetry.Sampler recording
	// per-port queue occupancy and utilization on that tick; the series is
	// returned in Result.Sampler.
	SampleTick units.Time

	// Faults, when non-empty, replays a fault schedule into the fabric:
	// permanent or transient link failures (an extension beyond the paper:
	// deflection-capable schemes route around carrier loss in place, while
	// ECMP/DRILL blackhole until the control plane would heal), switch
	// failures, bit-error corruption and rate brownouts (see internal/faults).
	Faults *faults.Schedule
	// HealDelay, when positive, enables control-plane healing: HealDelay
	// after each Faults topology change, freshly computed FIBs that route
	// around everything still failed are installed fabric-wide. Zero leaves
	// the static FIBs in place (dataplane-only recovery).
	HealDelay units.Time
	// WallTimeout, when positive, bounds the run's real elapsed time; a run
	// that exceeds it aborts with an error (wrapping ErrWallBudget) rather
	// than hanging its worker.
	WallTimeout time.Duration
	// MaxEvents, when positive, bounds the run's event count; a run that
	// fires this many events aborts with an error wrapping ErrMaxEvents.
	// Unlike WallTimeout the cap is deterministic — a runaway scenario
	// aborts at the same event on every machine — so callers can classify
	// a capped run as a permanent failure not worth retrying.
	MaxEvents uint64
	// ChaosPanicAt, when positive, panics deliberately once simulated time
	// reaches it — a crash-drill fixture for the crash-isolation machinery
	// (sweep recover paths, vertigo-serve job isolation, flight-recorder
	// dumps). The panic is deterministic: same config, same panic.
	ChaosPanicAt units.Time

	// Flight, when non-nil, attaches a crash flight recorder to the engine:
	// recent events, drops and fault transitions land in its ring, and the
	// crash-safe sweep runner dumps it to flight.jsonl when the run panics
	// or the watchdog kills it. The caller owns the recorder so its contents
	// survive a panic unwinding out of Run.
	Flight *obs.FlightRecorder

	// RawSeries controls whether the Summary keeps raw FCT/QCT slices next
	// to the histograms; the zero value (metrics.RawAuto) keeps them for
	// runs up to metrics.RawAutoMaxFlows started flows. Only
	// metrics.RawKeep keeps completed flows' records on Result.Collector.
	RawSeries metrics.RawMode

	// Shards, when > 1, splits the run across that many topology domains
	// executing on separate cores under a conservative window protocol
	// (see parallel.go), whatever else the config carries — every probe
	// shards. Values 0 and 1 and topologies the partition cannot cut into more
	// than one domain take the serial engine; Validate rejects negative ones. The offered workload is the
	// same at any count and results are deterministic per count, but
	// same-instant events commit in a partition-dependent order, so
	// -shards=N is statistically — not bitwise — comparable to -shards=1.
	Shards int
}

// Budget sentinels. Run wraps these into its abort errors so callers can
// classify failures with errors.Is instead of string matching: a wall-budget
// kill depends on machine load (transient, retryable), a max-events kill is
// a deterministic property of the scenario (permanent).
var (
	ErrWallBudget = errors.New("wall-clock budget exceeded")
	ErrMaxEvents  = errors.New("event budget exceeded")
)

// DefaultConfig returns the paper's Table 1 defaults on the paper's
// leaf-spine topology for the given scheme/transport combination.
func DefaultConfig(policy fabric.Policy, proto transport.Protocol) Config {
	tc := transport.DefaultConfig(proto)
	if policy == fabric.DIBS {
		// DIBS disables fast retransmit to survive deflection reordering
		// (paper §2).
		tc.FastRetransmit = false
	}
	return Config{
		Seed:           1,
		SimTime:        5 * units.Second,
		Kind:           LeafSpine,
		LeafSpineCfg:   topo.PaperLeafSpine(),
		FatTreeCfg:     topo.PaperFatTree(),
		Fabric:         fabric.DefaultConfig(policy),
		Transport:      tc,
		VertigoStack:   policy == fabric.Vertigo,
		Marker:         host.DefaultMarkerConfig(),
		Orderer:        host.DefaultOrdererConfig(),
		BGLoad:         0.5,
		BGDist:         workload.CacheFollower,
		IncastQPS:      4000,
		IncastScale:    100,
		IncastFlowSize: 40 * 1000,
		RequestDelay:   5 * units.Microsecond,
	}
}

// HostRate returns the access-link rate of the configured topology.
func (c *Config) HostRate() units.BitRate {
	if c.Kind == FatTree {
		return c.FatTreeCfg.Rate
	}
	return c.LeafSpineCfg.HostRate
}

// NumHosts returns the host count of the configured topology.
func (c *Config) NumHosts() int {
	if c.Kind == FatTree {
		k := c.FatTreeCfg.K
		return k * k * k / 4
	}
	return c.LeafSpineCfg.Leaves * c.LeafSpineCfg.HostsPerLeaf
}

// SetIncastLoad sets IncastQPS so the incast traffic offers the given load
// fraction with the current scale and flow size.
func (c *Config) SetIncastLoad(load float64) {
	c.IncastQPS = workload.QPSForLoad(load, c.NumHosts(), c.IncastScale, c.IncastFlowSize, c.HostRate())
}

// Validate rejects configurations that cannot describe a runnable scenario:
// non-positive durations, empty topologies, negative loads, and fault events
// outside the simulated window. Index bounds that need the built topology
// (link and switch numbers) are checked in Run. Run calls Validate itself;
// call it directly to fail fast before committing a worker to the run.
func (c *Config) Validate() error {
	if c.SimTime <= 0 {
		return fmt.Errorf("core: non-positive sim time %v", c.SimTime)
	}
	if n := c.NumHosts(); n <= 0 {
		return fmt.Errorf("core: topology %q has %d hosts; need at least 1", c.Kind, n)
	}
	if c.BGLoad < 0 {
		return fmt.Errorf("core: negative background load %g", c.BGLoad)
	}
	if c.IncastQPS < 0 {
		return fmt.Errorf("core: negative incast rate %g qps", c.IncastQPS)
	}
	if c.IncastScale < 0 {
		return fmt.Errorf("core: negative incast scale %d", c.IncastScale)
	}
	if c.IncastFlowSize < 0 {
		return fmt.Errorf("core: negative incast flow size %d", c.IncastFlowSize)
	}
	if c.RequestDelay < 0 {
		return fmt.Errorf("core: negative request delay %v", c.RequestDelay)
	}
	if c.HealDelay < 0 {
		return fmt.Errorf("core: negative heal delay %v", c.HealDelay)
	}
	if c.SampleTick < 0 {
		return fmt.Errorf("core: negative sample tick %v", c.SampleTick)
	}
	if c.WallTimeout < 0 {
		return fmt.Errorf("core: negative wall timeout %v", c.WallTimeout)
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: negative shard count %d", c.Shards)
	}
	if c.ChaosPanicAt < 0 || c.ChaosPanicAt > c.SimTime {
		return fmt.Errorf("core: chaos panic at %v is outside the simulated window [0, %v]", c.ChaosPanicAt, c.SimTime)
	}
	// Link/switch index ranges are re-checked against the built topology in
	// Run; here only times and parameter ranges can be validated.
	if err := c.Faults.Validate(-1, -1, c.SimTime); err != nil {
		return err
	}
	return nil
}

// Result bundles a run's summary with the raw collector for deep analysis.
type Result struct {
	Summary   *metrics.Summary
	Collector *metrics.Collector
	// Engine and Pool snapshot the runtime's self-instrumentation: how much
	// work the run did and how well the event/packet free lists recycled.
	Engine sim.EngineStats
	Pool   packet.PoolStats
	// Trains reports the fabric's replay counters (see fabric.TrainStats),
	// under the name the frozen benchmark/ package reads; the next benchmark
	// PR renames it.
	Trains fabric.TrainStats
	// Telemetry is non-nil when Config.Telemetry was set.
	Telemetry *telemetry.Monitor
	// Sampler is non-nil when Config.SampleTick was positive.
	Sampler *telemetry.Sampler
}

// Run executes the scenario and returns its results.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var (
		t   *topo.Topology
		err error
	)
	switch cfg.Kind {
	case LeafSpine:
		t, err = topo.NewLeafSpine(cfg.LeafSpineCfg)
	case FatTree:
		t, err = topo.NewFatTree(cfg.FatTreeCfg)
	default:
		err = fmt.Errorf("core: unknown topology kind %d", cfg.Kind)
	}
	if err != nil {
		return nil, err
	}

	if cfg.Shards > 1 {
		part, perr := topo.NewPartition(t, cfg.Shards)
		if perr != nil {
			return nil, perr
		}
		if part.N > 1 {
			return runSharded(cfg, t, part)
		}
	}

	w, err := newWorld(&cfg, t, nil, cfg.PacketTrace)
	if err != nil {
		return nil, err
	}
	// The serial run owns every host (nil predicate) and mints flow IDs from
	// the generator its packets share.
	err = armGenerators(&cfg, w.eng, w.met, t.NumHosts, nil, func(src, dst int, size int64, incast bool, query int) {
		spec := transport.FlowSpec{ID: w.ids.Next(), Src: src, Dst: dst, Size: size, Incast: incast, Query: query}
		w.senders.Get(w.hosts[src], w.met, w.ids, spec, nil).Start()
	})
	if err != nil {
		return nil, err
	}
	w.bound(&cfg)
	end := w.eng.Run(cfg.SimTime)
	res, err := w.finish(&cfg)
	if err != nil {
		return nil, err
	}
	res.Summary = w.met.Summarize(end)
	return res, nil
}

// armGenerators arms cfg's synthetic workload on eng — background, trace
// replay, incast, in the order that fixes each one's share of the engine's
// random stream — with start called at every flow arrival. It is the only
// way a run gets its workload: a serial run passes a nil owns; each domain of
// a sharded run arms the same generators on its own identically seeded
// engine, so all draw one schedule, and owns (the domain's hosts) confines a
// query's registration to the domain of its client.
func armGenerators(cfg *Config, eng *sim.Engine, met *metrics.Collector, hosts int, owns func(host int) bool, start workload.FlowStarter) error {
	if cfg.BGLoad > 0 {
		dist := cfg.BGDist
		if dist == nil {
			dist = workload.CacheFollower
		}
		bg := &workload.Background{
			Eng: eng, Hosts: hosts, Dist: dist,
			HostRate: cfg.HostRate(), Load: cfg.BGLoad, Start: start,
		}
		bg.Run(cfg.SimTime)
	}
	if cfg.Trace != nil {
		if err := cfg.Trace.Validate(hosts); err != nil {
			return err
		}
		cfg.Trace.Run(eng, cfg.SimTime, start)
	}
	if cfg.IncastQPS > 0 && cfg.IncastScale > 0 {
		ic := &workload.Incast{
			Eng: eng, Met: met, Hosts: hosts,
			QPS: cfg.IncastQPS, Scale: cfg.IncastScale, FlowSize: cfg.IncastFlowSize,
			Periodic: cfg.IncastPeriodic, RequestDelay: cfg.RequestDelay,
			Start: start, Owns: owns,
		}
		ic.Run(cfg.SimTime)
	}
	return nil
}

// world is one assembled simulation stack — engine, collector, fabric with
// its probes and faults, transport pools and every host — the whole of a
// serial run and one domain of a sharded one. newWorld builds it up to the
// point where the workload is armed; the caller arms it (armGenerators), then
// calls bound, runs the engine, and calls finish.
type world struct {
	eng       *sim.Engine
	met       *metrics.Collector
	net       *fabric.Network
	ids       *packet.IDGen
	senders   *transport.SenderPool
	receivers *transport.ReceiverPool
	hosts     []*host.Host
	inj       *faults.Injector // nil when nothing is scheduled to fail
	pub       published        // see publish

	// Probes attach independently; the fabric fans each event out to all.
	mon     *telemetry.Monitor
	tracer  *telemetry.Tracer
	sampler *telemetry.Sampler

	// what names the world in an error: "run", or "shard 2".
	what string
	// first is false for a sharded run's domains past 0, which leave the
	// flight recorder and the chaos panic to domain 0.
	first bool
}

// newWorld assembles cfg's stack on t, as one domain of a sharded run when sd
// is non-nil. Packet trace lines go to traceOut (nil: no tracer). The order
// of the constructor, AddObserver and scheduling calls is part of a run's
// identity — it fixes event sequence numbers and the position of random
// draws — and is the same for both callers.
func newWorld(cfg *Config, t *topo.Topology, sd *fabric.ShardCtx, traceOut io.Writer) (*world, error) {
	w := &world{what: "run", first: true}
	if sd != nil {
		w.what, w.first = fmt.Sprintf("shard %d", sd.Domain), sd.Domain == 0
	}
	eng := sim.NewEngine(cfg.Seed)
	w.eng = eng
	if w.first {
		eng.SetFlight(cfg.Flight)
	}
	w.met = metrics.NewCollector()
	w.met.RawSeries = cfg.RawSeries
	if sd != nil {
		w.net = fabric.NewSharded(eng, t, w.met, cfg.Fabric, sd)
	} else {
		w.net = fabric.New(eng, t, w.met, cfg.Fabric)
	}
	w.ids = &packet.IDGen{}
	eng.OnPublish(w.publish)

	if cfg.Telemetry {
		w.mon = telemetry.NewMonitor(eng, cfg.TelemetryConfig)
		w.net.AddObserver(w.mon)
	}
	if traceOut != nil {
		w.tracer = telemetry.NewTracer(eng, traceOut, cfg.PacketTraceFlow)
		w.net.AddObserver(w.tracer)
	}
	if cfg.SampleTick > 0 {
		w.sampler = telemetry.NewSampler(eng, telemetry.SamplerConfig{Tick: cfg.SampleTick})
		w.sampler.Start(cfg.SimTime)
		w.net.AddObserver(w.sampler)
	}
	if !cfg.Faults.Empty() {
		var err error
		if w.inj, err = faults.Apply(eng, w.net, cfg.Faults, cfg.HealDelay); err != nil {
			return nil, err
		}
	}

	vertigoStack := cfg.VertigoStack || cfg.Fabric.Policy == fabric.Vertigo
	// Keep marker and orderer disciplines/boosting consistent.
	ocfg := cfg.Orderer
	ocfg.Discipline = cfg.Marker.Discipline
	ocfg.BoostFactorLog2 = cfg.Marker.BoostFactorLog2

	// Connection state lives in slab-backed pools: sender and receiver
	// slots recycle as flows complete, so a run's transport footprint is
	// O(peak concurrent flows), not O(flows started).
	w.senders = transport.NewSenderPool(cfg.Transport)
	w.receivers = transport.NewReceiverPool(eng, w.net, w.met, w.ids)

	// A sharded run's every domain instantiates all hosts (the fabric
	// replica's NIC wiring expects them), but only owned hosts ever see
	// traffic. The others cost their structs: flow state lives in the
	// domain's one directory, whose tables grow with the flows it holds.
	w.hosts = make([]*host.Host, t.NumHosts)
	for i := range w.hosts {
		h := host.NewHost(i, eng, w.net, w.met, cfg.Marker, ocfg, vertigoStack)
		h.SetAcceptor(func(first *packet.Packet) func(*packet.Packet) {
			return w.receivers.Accept(h, first)
		})
		w.hosts[i] = h
	}
	return w, nil
}

// bound arms what can cut the run short: the chaos-drill panic, the
// wall-clock watchdog and the event cap (per domain when sharded: any single
// shard firing MaxEvents events aborts the run, which bounds a runaway
// scenario as deterministically as the serial cap does). It comes after the
// workload is armed, so the panic's sequence number follows the generators'.
func (w *world) bound(cfg *Config) {
	if w.first && cfg.ChaosPanicAt > 0 {
		at := cfg.ChaosPanicAt
		w.eng.At(at, func() {
			panic(fmt.Sprintf("core: deliberate chaos panic at t=%v (ChaosPanicAt)", at))
		})
	}
	if cfg.WallTimeout > 0 {
		w.eng.SetWallDeadline(cfg.WallTimeout)
	}
	if cfg.MaxEvents > 0 {
		w.eng.SetMaxEvents(cfg.MaxEvents)
	}
}

// overBudget reports a run the watchdog or the event cap stopped.
func (w *world) overBudget(cfg *Config) error {
	if w.eng.DeadlineExceeded() {
		return fmt.Errorf("core: %s exceeded its %v wall-clock budget at t=%v (%d events fired): %w",
			w.what, cfg.WallTimeout, w.eng.Now(), w.eng.Events(), ErrWallBudget)
	}
	if w.eng.MaxEventsExceeded() {
		return fmt.Errorf("core: %s exceeded its %d-event budget at t=%v: %w",
			w.what, cfg.MaxEvents, w.eng.Now(), ErrMaxEvents)
	}
	return nil
}

// finish closes a world whose engine has run to the horizon: it replays the
// pops due by then, so the totals do not depend on which ports happened to be
// touched last, publishes the last registry growth and withdraws the world's
// pending events from the gauge, fails an over-budget run,
// flushes the probes, and returns the world's own collector and counters,
// unmerged and without a Summary — summarizing is the caller's, over one
// collector or the merge.
func (w *world) finish(cfg *Config) (*Result, error) {
	w.net.SettleAll()
	w.publish()
	regPending.Add(int64(-w.pub.pending)) // the engine is done
	w.pub.pending = 0
	if err := w.overBudget(cfg); err != nil {
		return nil, err
	}
	if w.mon != nil {
		w.mon.Finish()
	}
	if w.tracer != nil {
		if err := w.tracer.Flush(); err != nil {
			return nil, fmt.Errorf("core: flushing %s packet trace: %w", w.what, err)
		}
	}
	return &Result{
		Collector: w.met,
		Engine:    w.eng.Stats(),
		Pool:      w.net.Pool().Stats(),
		Trains:    w.net.TrainStats(),
		Telemetry: w.mon,
		Sampler:   w.sampler,
	}, nil
}
