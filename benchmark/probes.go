package main

import (
	"time"

	"vertigo/internal/buffer"
	"vertigo/internal/core"
	"vertigo/internal/exp"
	"vertigo/internal/fabric"
	"vertigo/internal/flowtab"
	"vertigo/internal/host"
	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/telemetry"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
	"vertigo/internal/workload"
)

// Op-replay probes: each drives one layer's public API alone, on state
// shaped like the workload that stresses it, so a layer's cost can be read
// without the rest of the simulator around it. A probe function builds its
// state, runs for d and returns wall nanoseconds per operation (seconds per
// operation for the *_s probes).
type probe struct {
	name string
	run  func(d time.Duration) float64
}

const (
	probeFor  = 200 * time.Millisecond
	probeReps = 5
)

var probes = []probe{
	// One pending event per 32 ns calendar bucket: the leaf-spine density.
	{"sim.probe_sched_fire_ns", func(d time.Duration) float64 { return engineSteady(d, 1024, 1024*32) }},
	// 256 pending events per bucket: fattree16_churn's density.
	{"sim.probe_dense_bucket_ns", func(d time.Duration) float64 { return engineSteady(d, 2048, 256) }},
	{"sim.probe_far_timer_ns", farTimer},
	{"buffer.probe_sorted_push_pop_ns_d16", func(d time.Duration) float64 { return queuePushPop(d, buffer.NewSorted(1<<30), 16) }},
	{"buffer.probe_sorted_push_pop_ns_d200", func(d time.Duration) float64 { return queuePushPop(d, buffer.NewSorted(1<<30), 200) }},
	{"buffer.probe_sorted_extract_tail_ns", sortedExtractTail},
	{"buffer.probe_droptail_push_pop_ns", func(d time.Duration) float64 { return queuePushPop(d, buffer.NewDropTail(1<<30), 200) }},
	{"fabric.probe_forward_ns_ecmp", func(d time.Duration) float64 { return forward(d, fabric.ECMP) }},
	{"fabric.probe_forward_ns_drill", func(d time.Duration) float64 { return forward(d, fabric.DRILL) }},
	{"fabric.probe_forward_ns_dibs", func(d time.Duration) float64 { return forward(d, fabric.DIBS) }},
	{"fabric.probe_forward_ns_vertigo", func(d time.Duration) float64 { return forward(d, fabric.Vertigo) }},
	{"fabric.probe_deflect_ns", deflect},
	{"fabric.probe_train_drain_ns", func(d time.Duration) float64 { return backlogDrain(d, 64) }},
	{"fabric.probe_perpkt_drain_ns", func(d time.Duration) float64 { return backlogDrain(d, 0) }},
	{"host.probe_mark_ns", mark},
	{"host.probe_order_inorder_ns", func(d time.Duration) float64 { return order(d, false) }},
	{"host.probe_order_reversed_ns", func(d time.Duration) float64 { return order(d, true) }},
	{"transport.probe_flow_lifecycle_ns", flowLifecycle},
	{"transport.probe_bulk_pkt_ns", bulkPacket},
	// Working set inside and outside the CPU caches.
	{"flowtab.probe_put_get_del_ns_1k", func(d time.Duration) float64 { return flowtabChurn(d, 1<<10) }},
	{"flowtab.probe_put_get_del_ns_1m", func(d time.Duration) float64 { return flowtabChurn(d, 1<<20) }},
	{"metrics.probe_flow_record_ns", flowRecord},
	{"packet.probe_pool_get_put_ns", poolGetPut},
	{"workload.probe_incast_fire_ns_h16", func(d time.Duration) float64 { return incastFire(d, 16, 8) }},
	{"workload.probe_incast_fire_ns_h1024", func(d time.Duration) float64 { return incastFire(d, 1024, 32) }},
	{"topo.probe_fattree16_build_s", fatTree16Build},
	{"topo.probe_partition_s", partition},
	{"telemetry.probe_sampler_cb_ns", samplerCallbacks},
}

// childProbes runs every probe probeReps times and reports the medians.
func childProbes(req childReq) (*layerResult, error) {
	d, reps := probeFor, probeReps
	if req.Quick {
		d, reps = time.Millisecond, 1
	}
	res := &layerResult{Layer: map[string]float64{}}
	for _, p := range probes {
		vals := make([]float64, reps)
		for i := range vals {
			vals[i] = p.run(d)
		}
		res.Layer[p.name] = median(vals)
	}
	return res, nil
}

// perOp calls op in doubling batches until d has passed and returns the
// wall nanoseconds per call.
func perOp(d time.Duration, op func()) float64 {
	n, batch := 0, 1
	t0 := time.Now()
	for {
		b0 := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		n += batch
		now := time.Now()
		if el := now.Sub(t0); el >= d {
			return float64(el.Nanoseconds()) / float64(n)
		}
		if now.Sub(b0) < time.Millisecond {
			batch *= 2
		}
	}
}

// --- sim ---------------------------------------------------------------------

// engineSteady keeps population events pending, each rescheduling itself
// period later from its own handler the way a busy port does, and returns
// the cost of one schedule-and-fire.
func engineSteady(d time.Duration, population int, period units.Time) float64 {
	eng := sim.NewEngine(1)
	var tick func()
	tick = func() { eng.Sched(eng.Now()+period, tick) }
	for i := 0; i < population; i++ {
		eng.Sched(1+units.Time(i)*period/units.Time(population), tick)
	}
	window := period * units.Time(1+10000/population)
	eng.Run(eng.Now() + window) // fill the event free list
	fired := eng.Events()
	t0 := time.Now()
	for time.Since(t0) < d {
		eng.Run(eng.Now() + window)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(eng.Events()-fired)
}

// farTimer is the retransmit-timer pattern: a deadline past the calendar
// ring's 64 µs span, cancelled and re-armed while time advances by one
// packet.
func farTimer(d time.Duration) float64 {
	eng := sim.NewEngine(1)
	fn := func() {}
	timers := make([]sim.Timer, 256)
	for i := range timers {
		timers[i] = eng.After(units.Millisecond+units.Time(i), fn)
	}
	i := 0
	return perOp(d, func() {
		f := i % len(timers)
		i++
		timers[f].Cancel()
		eng.Run(eng.Now() + 4)
		timers[f] = eng.After(units.Millisecond, fn)
	})
}

// --- buffer ------------------------------------------------------------------

// rankedPackets returns marked full-size packets with scattered ranks.
func rankedPackets(n int) []*packet.Packet {
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		pkts[i] = &packet.Packet{Marked: true, PayloadLen: packet.MSS,
			Info: packet.FlowInfo{RFS: uint32(i) * 2654435761}}
	}
	return pkts
}

func queuePushPop(d time.Duration, q buffer.Queue, depth int) float64 {
	pkts := rankedPackets(256)
	for i := 0; i < depth; i++ {
		q.Push(pkts[i])
	}
	i := depth
	return perOp(d, func() {
		q.Push(pkts[i%len(pkts)])
		i++
		q.Pop()
	})
}

func sortedExtractTail(d time.Duration) float64 {
	q := buffer.NewSorted(1 << 30)
	pkts := rankedPackets(256)
	for i := 0; i < 200; i++ {
		q.Push(pkts[i])
	}
	i := 200
	return perOp(d, func() {
		q.Push(pkts[i%len(pkts)])
		i++
		q.ExtractTail()
	})
}

// --- fabric ------------------------------------------------------------------

// sink is a host that returns every delivered packet to the pool.
type sink struct{ pool *packet.Pool }

func (s sink) Receive(p *packet.Packet) { s.pool.Put(p) }

// tinyFabric is the Tiny leaf-spine (leaves are switches 0-3, hosts 4h..4h+3
// hang off leaf h) with sinks for hosts.
func tinyFabric(cfg fabric.Config) (*fabric.Network, *sim.Engine) {
	ls := topo.PaperLeafSpine()
	ls.Spines, ls.Leaves, ls.HostsPerLeaf = exp.Tiny.Spines, exp.Tiny.Leaves, exp.Tiny.HostsPerLeaf
	t, err := topo.NewLeafSpine(ls)
	if err != nil {
		panic(err) // a fixed, valid configuration
	}
	eng := sim.NewEngine(1)
	net := fabric.New(eng, t, metrics.NewCollector(), cfg)
	for h := 0; h < t.NumHosts; h++ {
		net.RegisterHost(h, sink{net.Pool()})
	}
	return net, eng
}

// inject hands switch sw a full-size data packet for host dst.
func inject(net *fabric.Network, sw int, id uint64, dst int, rfs uint32) {
	p := net.Pool().Get()
	*p = packet.Packet{ID: id, Kind: packet.Data, Src: 0, Dst: dst, Flow: id % 8,
		PayloadLen: packet.MSS, Marked: net.Cfg.Policy == fabric.Vertigo,
		Info: packet.FlowInfo{RFS: rfs}}
	net.Switch(sw).Receive(p)
}

// drain runs the engine until done, in steps short enough that the calendar
// cursor never falls behind the clock: an engine left idle walks every
// empty bucket of the gap on its next Run, and that walk is not what the
// fabric probes are for.
func drain(eng *sim.Engine, step units.Time, done func() bool) {
	for !done() {
		eng.Run(eng.Now() + step)
	}
}

// drainAll drains until nothing is pending: every injected packet has been
// delivered or dropped.
func drainAll(eng *sim.Engine, step units.Time) {
	drain(eng, step, func() bool { return eng.Pending() == 0 })
}

// forward sends bursts of 32 packets from leaf 0 across the spines to the
// four hosts of leaf 3, so no queue is ever more than eight deep: three
// routing decisions, enqueues and transmissions per packet.
func forward(d time.Duration, policy fabric.Policy) float64 {
	net, eng := tinyFabric(fabric.DefaultConfig(policy))
	var id uint64
	const burst = 32
	return perOp(d, func() {
		for i := 0; i < burst; i++ {
			id++
			inject(net, 0, id, 12+i%4, uint32(id%1000+1))
		}
		drainAll(eng, units.Microsecond)
	}) / burst
}

// deflect times Vertigo's overflow path alone: host 15's port on leaf 3 is
// filled without running the engine, then every further arrival ranks last,
// is evicted and is deflected to a spine uplink. Filling and draining are
// not timed.
func deflect(d time.Duration) float64 {
	net, eng := tinyFabric(fabric.DefaultConfig(fabric.Vertigo))
	const fill, burst = 200, 256 // the 300 KB port holds ~200; the two uplinks absorb the burst
	var id uint64
	var timed time.Duration
	var n int64
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < fill; i++ {
			id++
			inject(net, 3, id, 15, 1000)
		}
		before := net.Met.Deflections
		b0 := time.Now()
		for i := 0; i < burst; i++ {
			id++
			inject(net, 3, id, 15, 1<<20)
		}
		timed += time.Since(b0)
		n += net.Met.Deflections - before
		drainAll(eng, 10*units.Microsecond)
	}
	return float64(timed.Nanoseconds()) / float64(n)
}

// backlogDrain queues 64 packets on host 15's port at one instant and drains
// them, under packet trains of up to trainLen segments or one event per
// packet.
func backlogDrain(d time.Duration, trainLen int) float64 {
	cfg := fabric.DefaultConfig(fabric.Vertigo)
	cfg.TrainLen = trainLen
	net, eng := tinyFabric(cfg)
	var id uint64
	const backlog = 64
	return perOp(d, func() {
		for i := 0; i < backlog; i++ {
			id++
			inject(net, 3, id, 15, uint32(i+1))
		}
		drainAll(eng, 10*units.Microsecond)
	}) / backlog
}

// --- host --------------------------------------------------------------------

const probeSegs = 1 << 12

// mark is the marker's cost per first transmission: flow-table hit,
// duplicate-filter insert and header stamp for every segment of a flow,
// plus the flow's share of registering and retiring it.
func mark(d time.Duration) float64 {
	m := host.NewMarker(host.DefaultMarkerConfig())
	p := &packet.Packet{Flow: 0, Kind: packet.Data, PayloadLen: packet.MSS}
	i := 0
	return perOp(d, func() {
		seg := i % probeSegs
		if seg == 0 {
			m.EndFlow(p.Flow)
			p.Flow++
			m.StartFlow(p.Flow, 0, probeSegs*packet.MSS)
		}
		i++
		p.Seq = int64(seg) * packet.MSS
		m.Mark(p)
	})
}

// order feeds the orderer whole flows, in order or with every 16-packet
// window inverted (what an SRPT queue does to a burst).
func order(d time.Duration, reversed bool) float64 {
	eng := sim.NewEngine(1)
	o := host.NewOrderer(eng, host.DefaultOrdererConfig(), func(*packet.Packet) {})
	const win = 16
	pkts := make([]*packet.Packet, probeSegs)
	for i := range pkts {
		pkts[i] = &packet.Packet{Kind: packet.Data, PayloadLen: packet.MSS, Marked: true,
			Info: packet.FlowInfo{RFS: uint32(probeSegs-i) * packet.MSS, First: i == 0}}
	}
	i := 0
	return perOp(d, func() {
		pos := i % probeSegs
		if pos == 0 { // the previous flow is complete: start the next
			for _, p := range pkts {
				p.Flow++
			}
		}
		if reversed {
			pos = pos/win*win + win - 1 - pos%win
		}
		i++
		o.Receive(pkts[pos])
	})
}

// --- transport ---------------------------------------------------------------

// stack is a full host stack on the Tiny leaf-spine, as core.Run builds it.
type stack struct {
	eng     *sim.Engine
	met     *metrics.Collector
	ids     *packet.IDGen
	hosts   []*host.Host
	senders *transport.SenderPool
}

func newStack(policy fabric.Policy) *stack {
	cfg := core.DefaultConfig(policy, transport.DCTCP)
	net, eng := tinyFabric(cfg.Fabric)
	s := &stack{eng: eng, met: net.Met, ids: &packet.IDGen{}, senders: transport.NewSenderPool(cfg.Transport)}
	receivers := transport.NewReceiverPool(eng, net, s.met, s.ids)
	for i := 0; i < net.Topo.NumHosts; i++ {
		h := host.NewHost(i, eng, net, s.met, cfg.Marker, cfg.Orderer, cfg.VertigoStack)
		h.SetAcceptor(func(first *packet.Packet) func(*packet.Packet) { return receivers.Accept(h, first) })
		s.hosts = append(s.hosts, h)
	}
	return s
}

// flow runs one flow from host 0 to host 15 to completion on an idle fabric.
func (s *stack) flow(size int64) {
	spec := transport.FlowSpec{ID: s.ids.Next(), Src: 0, Dst: 15, Size: size, Query: -1}
	s.senders.Get(s.hosts[0], s.met, s.ids, spec, nil).Start()
	drain(s.eng, units.Microsecond, func() bool { return s.met.FlowsCompleted() == s.met.FlowsStarted() })
}

// flowLifecycle is fattree16_churn's unit of work: a 4 KB flow through the
// Vertigo stack, from sender check-out to receiver release. The fabric is
// otherwise idle, so the figure includes the calendar walk across the
// flow's two round trips.
func flowLifecycle(d time.Duration) float64 {
	s := newStack(fabric.Vertigo)
	return perOp(d, func() { s.flow(4000) })
}

// bulkPacket is leafspine_bulk's unit of work: one packet of a long DCTCP
// flow over ECMP drop-tail queues.
func bulkPacket(d time.Duration) float64 {
	s := newStack(fabric.ECMP)
	ns := perOp(d, func() { s.flow(10_000_000) })
	return ns * float64(s.met.FlowsStarted()) / float64(s.met.PacketsSent)
}

// --- flowtab, metrics, packet ------------------------------------------------

// flowtabChurn slides a window of n live keys through a table: insert the
// newest, look up one from the middle, delete the oldest.
func flowtabChurn(d time.Duration, n uint64) float64 {
	t := flowtab.New[uint64](int(n))
	for k := uint64(1); k <= n; k++ {
		t.Put(k)
	}
	k := uint64(1)
	return perOp(d, func() {
		v, _ := t.Put(k + n)
		*v = k
		t.Get(k + n/2)
		t.Delete(k)
		k++
	})
}

func flowRecord(d time.Duration) float64 {
	c := metrics.NewCollector()
	c.RawSeries = metrics.RawDrop // as any run past 200k flows
	id := uint64(0)
	return perOp(d, func() {
		id++
		c.StartFlow(metrics.FlowRecord{ID: id, Class: metrics.Incast, Dst: 1, Size: 4000, Query: -1})
		c.EndFlow(id, units.Time(id))
	})
}

func poolGetPut(d time.Duration) float64 {
	pool := &packet.Pool{}
	return perOp(d, func() { pool.Put(pool.Get()) })
}

// --- workload, topo, telemetry -----------------------------------------------

// incastFire runs the incast generator on a bare engine with a starter that
// does nothing and returns the cost of one query: the host permutation and
// one scheduled event per responder.
func incastFire(d time.Duration, hosts, scale int) float64 {
	eng := sim.NewEngine(1)
	met := metrics.NewCollector()
	const qps = 1e6
	ic := &workload.Incast{Eng: eng, Met: met, Hosts: hosts, QPS: qps, Scale: scale, FlowSize: 4000,
		RequestDelay: 5 * units.Microsecond, Start: func(src, dst int, size int64, incast bool, query int) {}}
	ic.Run(units.Time(1) << 60)
	t0 := time.Now()
	for time.Since(t0) < d {
		eng.Run(eng.Now() + units.Millisecond)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(met.Queries))
}

var fatTree16 = topo.FatTreeConfig{K: 16, Rate: 10 * units.Gbps, LinkDelay: 500 * units.Nanosecond}

func fatTree16Build(d time.Duration) float64 {
	return perOp(d, func() {
		if _, err := topo.NewFatTree(fatTree16); err != nil {
			panic(err) // a fixed, valid configuration
		}
	}) / 1e9
}

func partition(d time.Duration) float64 {
	t, err := topo.NewFatTree(fatTree16)
	if err != nil {
		panic(err) // a fixed, valid configuration
	}
	return perOp(d, func() {
		if _, err := topo.NewPartition(t, 2); err != nil {
			panic(err) // a finalized topology always partitions
		}
	}) / 1e9
}

// samplerCallbacks is what leafspine_observed adds to every enqueue and
// transmission: the sampler's two observer callbacks, over 64 ports.
func samplerCallbacks(d time.Duration) float64 {
	s := telemetry.NewSampler(sim.NewEngine(1), telemetry.DefaultSamplerConfig())
	p := &packet.Packet{Kind: packet.Data, PayloadLen: packet.MSS}
	i := 0
	return perOp(d, func() {
		sw, port := i%8, i/8%8
		i++
		s.Enqueue(sw, port, p, 30000)
		s.Transmit(sw, port, p, 1200, 28500)
	})
}
