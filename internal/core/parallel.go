// Sharded (multi-core) execution of one scenario: the topology is cut into
// domains (topo.Partition), each domain runs the full stack — its own
// sim.Engine, calendar queue, fabric replica, packet pool and metrics
// collector — on its own goroutine, and the domains advance in conservative
// time windows bounded by the minimum cross-domain link latency (lookahead).
// Cross-domain packets are exchanged between windows in canonical
// (time, source switch, source port) order, so a run's results are
// deterministic for a given shard count regardless of -j, GOMAXPROCS or
// goroutine scheduling.
package core

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"vertigo/internal/fabric"
	"vertigo/internal/metrics"
	"vertigo/internal/sim"
	"vertigo/internal/telemetry"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// shardable reports whether the configuration can run sharded at all.
// The live Monitor and the text packet tracer are serial-only consumers
// (their output formats have no canonical merge); everything else shards.
func (c *Config) shardable() bool {
	if c.Shards <= 1 {
		return false
	}
	if c.Telemetry {
		return false
	}
	if c.PacketTrace != nil && !c.PacketTraceJSON {
		return false
	}
	return true
}

// flowOp is one pre-materialized flow arrival; rank order (the slice index)
// is the global arrival order and mints the flow's globally unique ID.
type flowOp struct {
	At       units.Time
	Src, Dst int
	Size     int64
	Incast   bool
	Query    int // rank into materialized.queries, or -1
	ID       uint64
}

// queryOp is one pre-materialized incast query. Client is -1 when none of
// the query's response flows landed inside the horizon (the query can then
// never complete, exactly as in a serial run, and is owned by domain 0).
type queryOp struct {
	At     units.Time
	Client int
	Scale  int
}

type materialized struct {
	flows   []flowOp
	queries []queryOp
}

// materializeWorkload replays the synthetic generators (Background, Trace,
// Incast) against a throwaway engine seeded identically to a serial run,
// recording every flow and query arrival instead of starting transports.
// The generators are the only workload-side consumers of the engine's
// global random stream, so the recorded schedule is a deterministic
// function of (Seed, workload config) alone — independent of shard count.
func materializeWorkload(cfg *Config, t *topo.Topology) (*materialized, error) {
	m := &materialized{}
	eng := sim.NewEngine(cfg.Seed)
	met := metrics.NewCollector()
	err := armGenerators(cfg, eng, met, t.NumHosts, func(src, dst int, size int64, incast bool, query int) {
		m.flows = append(m.flows, flowOp{
			At: eng.Now(), Src: src, Dst: dst, Size: size,
			Incast: incast, Query: query, ID: uint64(len(m.flows) + 1),
		})
	})
	if err != nil {
		return nil, err
	}
	eng.Run(cfg.SimTime)
	for _, q := range met.Queries {
		m.queries = append(m.queries, queryOp{At: q.Start, Client: -1, Scale: q.Scale})
	}
	for i := range m.flows {
		if q := m.flows[i].Query; q >= 0 && m.queries[q].Client < 0 {
			m.queries[q].Client = m.flows[i].Dst
		}
	}
	return m, nil
}

// domOp is one entry of a domain's arrival cursor: a query registration or a
// flow start owned by that domain.
type domOp struct {
	at    units.Time
	query bool
	rank  int
}

// opPump replays a domain's share of the materialized workload through one
// self-rescheduling engine event, so the window barrier always sees the next
// arrival in PeekTime.
type opPump struct {
	eng  *sim.Engine
	ops  []domOp
	i    int
	exec func(domOp)
	fire func()
}

func (pp *opPump) arm() {
	if pp.i < len(pp.ops) {
		pp.eng.At(pp.ops[pp.i].at, pp.fire)
	}
}

func (pp *opPump) init() {
	pp.fire = func() {
		now := pp.eng.Now()
		for pp.i < len(pp.ops) && pp.ops[pp.i].at == now {
			pp.exec(pp.ops[pp.i])
			pp.i++
		}
		pp.arm()
	}
	pp.arm()
}

// domain is one shard: a full simulation stack owning a slice of the
// topology.
type domain struct {
	*world
	traceBuf bytes.Buffer
	outbox   [][]fabric.CrossItem // per destination domain, drained each window
	pump     opPump

	cmd chan units.Time // window deadline; closed to stop the goroutine
	res chan any        // recovered panic value, nil on clean window
}

// runShard is the domain goroutine: advance to each commanded deadline,
// forwarding panics to the coordinator instead of crashing the process.
func (d *domain) runShard() {
	for until := range d.cmd {
		var pan any
		func() {
			defer func() { pan = recover() }()
			d.eng.Run(until)
		}()
		d.res <- pan
	}
}

// runSharded executes cfg split across part.N domains. Callers guarantee
// cfg validated, cfg.shardable() and part.N > 1.
func runSharded(cfg Config, t *topo.Topology, part *topo.Partition) (*Result, error) {
	nDom := part.N
	m, err := materializeWorkload(&cfg, t)
	if err != nil {
		return nil, err
	}

	doms := make([]*domain, nDom)
	for di := 0; di < nDom; di++ {
		d := &domain{
			outbox: make([][]fabric.CrossItem, nDom),
			cmd:    make(chan units.Time),
			res:    make(chan any),
		}
		sd := &fabric.ShardCtx{
			Domain:       di,
			SwitchDomain: part.SwitchDomain,
			HostDomain:   part.HostDomain,
			Emit: func(dst int, it fabric.CrossItem) {
				d.outbox[dst] = append(d.outbox[dst], it)
			},
		}
		// Each domain traces into a buffer of its own; the merge below
		// interleaves them into cfg.PacketTrace.
		var traceOut io.Writer
		if cfg.PacketTrace != nil {
			traceOut = &d.traceBuf
		}
		if d.world, err = newWorld(&cfg, t, sd, traceOut); err != nil {
			return nil, err
		}

		// The domain's arrival cursor: queries registered where the client
		// lives, flows registered where they complete (the destination) and
		// started where they originate. qmap carries the destination
		// domain's local query IDs.
		qmap := make([]int, len(m.queries))
		var ops []domOp
		for rank, q := range m.queries {
			qd := 0
			if q.Client >= 0 {
				qd = part.HostDomain[q.Client]
			}
			if qd == di {
				ops = append(ops, domOp{at: q.At, query: true, rank: rank})
			}
		}
		for rank, f := range m.flows {
			if part.HostDomain[f.Src] == di || part.HostDomain[f.Dst] == di {
				ops = append(ops, domOp{at: f.At, rank: rank})
			}
		}
		sort.SliceStable(ops, func(i, j int) bool {
			if ops[i].at != ops[j].at {
				return ops[i].at < ops[j].at
			}
			// Queries registered before any same-instant flow referencing
			// them; rank order breaks the remaining ties.
			if ops[i].query != ops[j].query {
				return ops[i].query
			}
			return ops[i].rank < ops[j].rank
		})
		d.pump = opPump{eng: d.eng, ops: ops}
		d.pump.exec = func(op domOp) {
			if op.query {
				q := m.queries[op.rank]
				qmap[op.rank] = d.met.StartQuery(q.Scale, q.At)
				return
			}
			f := m.flows[op.rank]
			if part.HostDomain[f.Dst] == di {
				cls := metrics.Background
				if f.Incast {
					cls = metrics.Incast
				}
				localQ := -1
				if f.Query >= 0 {
					localQ = qmap[f.Query]
				}
				d.met.StartFlow(metrics.FlowRecord{
					ID: f.ID, Class: cls, Src: f.Src, Dst: f.Dst,
					Size: f.Size, Start: f.At, Query: localQ,
				})
			}
			if part.HostDomain[f.Src] == di {
				spec := transport.FlowSpec{
					ID: f.ID, Src: f.Src, Dst: f.Dst, Size: f.Size,
					Incast: f.Incast, Query: -1, Preregistered: true,
				}
				d.senders.Get(d.hosts[f.Src], d.met, d.ids, spec, nil).Start()
			}
		}
		d.pump.init()
		d.bound(&cfg)
		doms[di] = d
	}

	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			for _, d := range doms {
				close(d.cmd)
			}
		}
	}
	defer stop()
	for _, d := range doms {
		go d.runShard()
	}

	// advance runs every domain to `until` in parallel and re-raises the
	// first (lowest-domain) panic on this goroutine, preserving the serial
	// crash-isolation contract (exp's safeRun, flight dumps).
	advance := func(until units.Time) {
		for _, d := range doms {
			d.cmd <- until
		}
		var pan any
		for _, d := range doms {
			if r := <-d.res; r != nil && pan == nil {
				pan = r
			}
		}
		if pan != nil {
			stop()
			panic(pan)
		}
	}
	checkBudgets := func() error {
		for _, d := range doms {
			if err := d.overBudget(&cfg); err != nil {
				return err
			}
		}
		return nil
	}

	// The conservative window loop. Every pending event sits at or after
	// tmin, so any packet committed during the window arrives no earlier
	// than tmin + lookahead = wEnd: running each domain to wEnd-1 inclusive
	// can never miss a cross-domain arrival.
	lookahead := part.Lookahead
	for {
		var tmin units.Time
		have := false
		for _, d := range doms {
			if at, ok := d.eng.PeekTime(); ok && (!have || at < tmin) {
				tmin, have = at, true
			}
		}
		if !have || tmin > cfg.SimTime {
			break
		}
		wEnd := tmin + lookahead
		if wEnd > cfg.SimTime+1 {
			wEnd = cfg.SimTime + 1
		}
		advance(wEnd - 1)
		if err := checkBudgets(); err != nil {
			return nil, err
		}
		// Exchange: gather each destination's arrivals across all source
		// outboxes, restore canonical order, inject.
		for dst, d := range doms {
			var batch []fabric.CrossItem
			for _, src := range doms {
				batch = append(batch, src.outbox[dst]...)
				src.outbox[dst] = src.outbox[dst][:0]
			}
			fabric.SortCross(batch)
			d.net.InjectCross(batch)
		}
	}
	// Settle every clock exactly at the horizon, as the serial engine does.
	advance(cfg.SimTime)
	stop()
	if err := checkBudgets(); err != nil {
		return nil, err
	}

	// Deterministic merge, domain 0 first.
	met := metrics.NewCollector()
	met.RawSeries = cfg.RawSeries
	res := &Result{Collector: met}
	var traces [][]byte
	var samplers []*telemetry.Sampler
	for _, d := range doms {
		r, err := d.finish(&cfg)
		if err != nil {
			return nil, err
		}
		met.Merge(r.Collector)
		res.Events += r.Events
		res.Engine.Events += r.Engine.Events
		res.Engine.Scheduled += r.Engine.Scheduled
		res.Engine.FreeListHits += r.Engine.FreeListHits
		res.Engine.TombstonedPops += r.Engine.TombstonedPops
		res.Engine.HeapSweeps += r.Engine.HeapSweeps
		if r.Engine.PeakPending > res.Engine.PeakPending {
			res.Engine.PeakPending = r.Engine.PeakPending
		}
		res.Pool.Gets += r.Pool.Gets
		res.Pool.Hits += r.Pool.Hits
		res.Pool.Puts += r.Pool.Puts
		res.Pool.Slabs += r.Pool.Slabs
		res.Trains.Trains += r.Trains.Trains
		res.Trains.Segments += r.Trains.Segments
		if d.tracer != nil {
			traces = append(traces, d.traceBuf.Bytes())
		}
		if r.Sampler != nil {
			samplers = append(samplers, r.Sampler)
		}
	}
	if cfg.PacketTrace != nil {
		if err := telemetry.MergeJSONLTraces(cfg.PacketTrace, traces); err != nil {
			return nil, fmt.Errorf("core: merging packet traces: %w", err)
		}
	}
	if len(samplers) > 0 {
		res.Sampler = telemetry.MergeSamplers(samplers)
	}
	res.Summary = met.Summarize(cfg.SimTime)
	return res, nil
}
