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

	"vertigo/internal/fabric"
	"vertigo/internal/metrics"
	"vertigo/internal/telemetry"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// domain is one shard: a full simulation stack owning a slice of the
// topology.
type domain struct {
	*world
	traceBuf bytes.Buffer
	outbox   [][]fabric.CrossItem // per destination domain, drained each window

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

// newDomain assembles domain di of part and arms its workload. Every domain
// runs every generator live: the generators are the only consumers of the
// engine's random stream in a sharded run, so the identically seeded replicas
// draw one schedule and each keeps what it owns — a flow is registered where
// it completes (the destination, which for a response is the client holding
// the query's local ID) and started where it originates. The arrival count is
// the flow's global ID, the same in every replica.
func newDomain(cfg *Config, t *topo.Topology, part *topo.Partition, di int) (*domain, error) {
	d := &domain{
		outbox: make([][]fabric.CrossItem, part.N),
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
	// Each domain traces into a buffer of its own; runSharded's merge
	// interleaves them into cfg.PacketTrace.
	var traceOut io.Writer
	if cfg.PacketTrace != nil {
		traceOut = &d.traceBuf
	}
	var err error
	if d.world, err = newWorld(cfg, t, sd, traceOut); err != nil {
		return nil, err
	}
	owns := func(h int) bool { return part.HostDomain[h] == di }
	var arrivals uint64
	err = armGenerators(cfg, d.eng, d.met, t.NumHosts, owns, func(src, dst int, size int64, incast bool, query int) {
		arrivals++
		if owns(dst) {
			cls := metrics.Background
			if incast {
				cls = metrics.Incast
			}
			d.met.StartFlow(metrics.FlowRecord{
				ID: arrivals, Class: cls, Src: src, Dst: dst,
				Size: size, Start: d.eng.Now(), Query: query,
			})
		}
		if owns(src) {
			spec := transport.FlowSpec{
				ID: arrivals, Src: src, Dst: dst, Size: size,
				Incast: incast, Query: -1, Preregistered: true,
			}
			d.senders.Get(d.hosts[src], d.met, d.ids, spec, nil).Start()
		}
	})
	if err != nil {
		return nil, err
	}
	d.bound(cfg)
	return d, nil
}

// runSharded executes cfg split across part.N domains. Callers guarantee
// cfg validated and part.N > 1.
func runSharded(cfg Config, t *topo.Topology, part *topo.Partition) (*Result, error) {
	doms := make([]*domain, part.N)
	for di := range doms {
		var err error
		if doms[di], err = newDomain(&cfg, t, part, di); err != nil {
			return nil, err
		}
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
	var monitors []*telemetry.Monitor
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
		if r.Telemetry != nil {
			monitors = append(monitors, r.Telemetry)
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
	if len(monitors) > 0 {
		res.Telemetry = telemetry.MergeMonitors(monitors)
	}
	if len(samplers) > 0 {
		res.Sampler = telemetry.MergeSamplers(samplers)
	}
	res.Summary = met.Summarize(cfg.SimTime)
	return res, nil
}
