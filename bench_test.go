package vertigo_test

// Benchmark harness: one testing.B benchmark per table and figure in the
// paper's evaluation, plus the §4.4 host-path microbenchmarks and engine/
// substrate ablations. Simulation benches run the corresponding experiment
// at the Tiny scale (a full sweep per iteration) and report the headline
// scalar via b.ReportMetric, so `go test -bench` regenerates every artifact:
//
//	go test -bench=BenchmarkFig5 -benchmem
//
// prints the Fig. 5 table rows alongside the timing. Absolute values track
// the scaled-down fabric; see EXPERIMENTS.md for the shape comparison
// against the paper.

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"vertigo"
	"vertigo/internal/buffer"
	"vertigo/internal/exp"
	"vertigo/internal/fabric"
	"vertigo/internal/host"
	"vertigo/internal/metrics"
	"vertigo/internal/obs"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/sim/baseline"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// benchExperiment runs one experiment sweep per iteration and reports its
// tables through b.Log on the final iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	sc := exp.Tiny
	var tables []*exp.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err = e.Run(sc, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, t := range tables {
		var sb tableWriter
		t.Fprint(&sb)
		b.Log("\n" + string(sb))
	}
}

type tableWriter []byte

func (w *tableWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// One benchmark per paper artifact.

func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkSec2(b *testing.B)   { benchExperiment(b, "sec2") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11a(b *testing.B) { benchExperiment(b, "fig11a") }
func BenchmarkFig11b(b *testing.B) { benchExperiment(b, "fig11b") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkDefSet(b *testing.B) { benchExperiment(b, "defset") }

// BenchmarkNonBursty regenerates the §4.2 non-incast workload comparison.
func BenchmarkNonBursty(b *testing.B) { benchExperiment(b, "nonbursty") }

// BenchmarkHeadline runs the paper's headline comparison (85% load, all four
// schemes under DCTCP) once per iteration and reports Vertigo's mean QCT.
func BenchmarkHeadline(b *testing.B) {
	for _, scheme := range []vertigo.Scheme{
		vertigo.SchemeECMP, vertigo.SchemeDRILL, vertigo.SchemeDIBS, vertigo.SchemeVertigo,
	} {
		scheme := scheme
		b.Run(string(scheme), func(b *testing.B) {
			var rep *vertigo.Report
			for i := 0; i < b.N; i++ {
				cfg := vertigo.Defaults(scheme, vertigo.TransportDCTCP)
				cfg.Spines, cfg.Leaves, cfg.HostsPerLeaf = 2, 4, 4
				cfg.Duration = 40 * time.Millisecond
				cfg.BackgroundLoad = 0.25
				cfg.IncastScale = 8
				cfg.IncastFlowKB = 20
				cfg.IncastLoad = 0.60
				var err error
				rep, err = vertigo.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.MeanQCT.Microseconds()), "meanQCT_µs")
			b.ReportMetric(rep.QueryCompletionPct, "queryCompl_%")
			b.ReportMetric(float64(rep.Drops), "drops")
		})
	}
}

// --- §4.4 host-path microbenchmarks -----------------------------------------
//
// The paper measures the marking component's cost at two hash lookups
// (~300 ns on their Xeon) and <0.1% throughput impact. These benches measure
// the same code paths: per-segment marking (flow table + cuckoo filter +
// header encode) and per-segment ordering on in-order and reordered streams.

func BenchmarkMarkingPerPacket(b *testing.B) {
	// Mark each segment of a flow exactly once, cycling flows so the filter
	// stays at a realistic occupancy (one flow's worth of signatures).
	const segsPerFlow = 1 << 14
	m := vertigo.NewMarker(vertigo.MarkerOptions{FlowCapacity: 4 * segsPerFlow})
	const flowSize = int64(segsPerFlow) * vertigo.MSS
	key := uint64(1)
	m.StartFlow(key, flowSize)
	var hdr [vertigo.ShimHeaderLen]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := i % segsPerFlow
		if seg == 0 && i > 0 {
			m.EndFlow(key)
			key++
			m.StartFlow(key, flowSize)
		}
		off := int64(seg) * vertigo.MSS
		if _, err := m.Mark(key, off, vertigo.MSS, hdr[:], 0x0800); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarkingRetransmission(b *testing.B) {
	m := vertigo.NewMarker(vertigo.MarkerOptions{FlowCapacity: 1 << 12})
	m.StartFlow(1, 1<<20)
	var hdr [vertigo.ShimHeaderLen]byte
	m.Mark(1, 0, vertigo.MSS, hdr[:], 0x0800)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Same segment every time: exercises the duplicate-detected path.
		if _, err := m.Mark(1, 0, vertigo.MSS, hdr[:], 0x0800); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrderingInOrder(b *testing.B) {
	o := vertigo.NewOrderer(vertigo.OrdererOptions{})
	now := time.Unix(0, 0)
	const n = 1 << 14
	segs := markedSegments(b, 1, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One full flow per epoch; each epoch runs under a fresh key so the
		// completed flow's tombstone is left behind, as in steady state.
		s := segs[i%n]
		s.Key += uint64(i / n)
		o.Receive(now, s)
	}
}

func BenchmarkOrderingReversedWindows(b *testing.B) {
	// Worst realistic case: every 16-segment window arrives fully inverted
	// (the SRPT-queue pattern the ordering layer exists to absorb).
	const win = 16
	const n = 1 << 14 // multiple of win, so epochs stay window-aligned
	o := vertigo.NewOrderer(vertigo.OrdererOptions{})
	now := time.Unix(0, 0)
	segs := markedSegments(b, 1, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := i % n
		base := pos / win * win
		s := segs[base+win-1-pos%win]
		s.Key += uint64(i / n)
		o.Receive(now, s)
	}
}

func markedSegments(b *testing.B, key uint64, n int) []vertigo.Segment {
	b.Helper()
	m := vertigo.NewMarker(vertigo.MarkerOptions{FlowCapacity: 2 * n})
	size := int64(n) * vertigo.MSS
	m.StartFlow(key, size)
	segs := make([]vertigo.Segment, n)
	for i := 0; i < n; i++ {
		fi, err := m.Mark(key, int64(i)*vertigo.MSS, vertigo.MSS, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		segs[i] = vertigo.Segment{Key: key, Info: fi, Len: vertigo.MSS, Last: i == n-1}
	}
	return segs
}

func BenchmarkShimEncodeDecode(b *testing.B) {
	fi := vertigo.FlowInfo{RFS: 123456, RetCnt: 3, FlowID: 5, First: true}
	var buf [vertigo.ShimHeaderLen]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vertigo.EncodeShim(buf[:], fi, 0x0800); err != nil {
			b.Fatal(err)
		}
		if _, _, err := vertigo.DecodeShim(buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel runs the Fig. 1 sweep with the worker pool at full
// concurrency and reports the speedup against a sequential (-j 1) run of the
// same sweep. The rendered tables are byte-identical either way (see
// TestParallelSweepDeterminism); on a single-core machine the speedup
// degenerates to ~1.
func BenchmarkSweepParallel(b *testing.B) {
	e, err := exp.ByID("fig1")
	if err != nil {
		b.Fatal(err)
	}
	defer func(old int) { exp.Concurrency = old }(exp.Concurrency)

	exp.Concurrency = 1
	t0 := time.Now()
	if _, err := e.Run(exp.Tiny, nil); err != nil {
		b.Fatal(err)
	}
	seq := time.Since(t0)

	exp.Concurrency = runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(exp.Tiny, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	par := b.Elapsed() / time.Duration(b.N)
	if par > 0 {
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup_vs_j1")
	}
	b.ReportMetric(float64(exp.Concurrency), "workers")
}

// BenchmarkEngineAllocs pins the engine's event free list: steady-state
// schedule/cancel/fire cycles reuse recycled event structs, so allocs/op
// is 0 even with a tombstoned timer reaped per op — for closure events and
// for argument events, whose per-slot timers and fire-and-forget events share
// one handler.
func BenchmarkEngineAllocs(b *testing.B) {
	eng := sim.NewEngine(1)
	fn := func() {}
	var fired uint64
	afn := func(slot uint64) { fired += slot }
	for i := 0; i < 64; i++ { // warm the free list and heap backing array
		eng.After(units.Time(i), fn)
	}
	eng.Run(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := eng.After(50, fn)
		eng.After(100, fn)
		tm.Cancel()
		atm := eng.AfterArg(50, afn, uint64(i))
		eng.AfterArg(100, afn, uint64(i))
		eng.SchedArg(eng.Now()+75, afn, uint64(i))
		atm.Cancel()
		eng.Run(eng.Now() + 200)
	}
}

// BenchmarkSendPathAllocs drives a saturated DCTCP flow through the full
// host/fabric stack and reports heap allocations per transmitted data packet.
// With the packet free list and recycled timer events this sits at ~0.
func BenchmarkSendPathAllocs(b *testing.B) {
	tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
		Spines: 2, Leaves: 2, HostsPerLeaf: 2,
		HostRate: 10 * units.Gbps, FabricRate: 40 * units.Gbps,
		LinkDelay: 500 * units.Nanosecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng := sim.NewEngine(1)
	met := metrics.NewCollector()
	net := fabric.New(eng, tp, met, fabric.DefaultConfig(fabric.ECMP))
	ids := &packet.IDGen{}
	hosts := make([]*host.Host, tp.NumHosts)
	for i := range hosts {
		h := host.NewHost(i, eng, net, met,
			host.DefaultMarkerConfig(), host.DefaultOrdererConfig(), false)
		h.SetAcceptor(func(first *packet.Packet) func(*packet.Packet) {
			return transport.NewReceiver(h, met, ids, first)
		})
		hosts[i] = h
	}
	tcfg := transport.DefaultConfig(transport.DCTCP)
	spec := transport.FlowSpec{ID: ids.Next(), Src: 0, Dst: 2, Size: 1 << 40, Query: -1}
	transport.NewSender(hosts[0], met, tcfg, ids, spec, nil).Start()
	eng.Run(5 * units.Millisecond) // warm pools, queues and the event heap

	pkts0 := met.PacketsSent
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now() + units.Millisecond)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if pkts := met.PacketsSent - pkts0; pkts > 0 {
		b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(pkts), "allocs/pkt")
		b.ReportMetric(float64(pkts)/float64(b.N), "pkts/op")
	}
}

// --- substrate ablations -----------------------------------------------------

// BenchmarkEngine measures raw event throughput of the simulator core.
func BenchmarkEngine(b *testing.B) {
	eng := sim.NewEngine(1)
	var tick func()
	fired := 0
	tick = func() {
		fired++
		if fired < b.N {
			eng.After(100, tick)
		}
	}
	b.ResetTimer()
	eng.After(100, tick)
	eng.Run(units.Time(1) << 60)
}

// BenchmarkEngineChained measures the fire-and-forget fast path: a Sched
// handler rescheduling itself rides one self-rescheduling event frame, the
// pattern saturated fabric ports follow.
func BenchmarkEngineChained(b *testing.B) {
	eng := sim.NewEngine(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < b.N {
			eng.SchedAfter(100, tick)
		}
	}
	b.ResetTimer()
	eng.Sched(100, tick)
	eng.Run(units.Time(1) << 60)
	b.StopTimer()
	reportEventsPerSec(b, eng)
}

// cancelChurnFlows and friends model TCP Reno's retransmit-timer churn: many
// flows each hold a long-deadline RTO timer that is cancelled and re-armed on
// every ACK, while simulated time crawls forward packet by packet. The RTO is
// three orders of magnitude longer than the inter-ACK gap, so under lazy
// cancellation nearly every cancelled frame must be reclaimed by the
// amortized sweep rather than by reaching its deadline.
const (
	cancelChurnFlows = 256
	cancelChurnRTO   = 4096
	cancelChurnStep  = 4
)

// BenchmarkEngineCancelChurn is the Cancel-heavy regression benchmark for
// the 4-ary lazy-cancellation heap.
func BenchmarkEngineCancelChurn(b *testing.B) {
	eng := sim.NewEngine(1)
	fn := func() {}
	timers := make([]sim.Timer, cancelChurnFlows)
	for i := range timers {
		timers[i] = eng.After(units.Time(cancelChurnRTO+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := i % cancelChurnFlows
		timers[f].Cancel()
		eng.Run(eng.Now() + cancelChurnStep)
		timers[f] = eng.After(cancelChurnRTO, fn)
	}
	b.StopTimer()
	st := eng.Stats()
	b.ReportMetric(float64(st.TombstonedPops)/float64(b.N), "tombstones/op")
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(st.Scheduled)/b.Elapsed().Seconds(), "events/s")
	}
}

// BenchmarkEngineCancelChurnBaseline runs the identical churn script on the
// frozen pre-rewrite engine (container/heap, eager heap.Remove cancel) so
// BENCH_core.json records the rewrite's delta in the same process.
func BenchmarkEngineCancelChurnBaseline(b *testing.B) {
	eng := baseline.NewEngine()
	fn := func() {}
	timers := make([]baseline.Timer, cancelChurnFlows)
	for i := range timers {
		timers[i] = eng.After(units.Time(cancelChurnRTO+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := i % cancelChurnFlows
		timers[f].Cancel()
		eng.Run(eng.Now() + cancelChurnStep)
		timers[f] = eng.After(cancelChurnRTO, fn)
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	}
}

// BenchmarkEngineFanout stresses heap depth: a wide population of pending
// events (deep-buffer sweeps hold tens of thousands) with steady push/pop.
func BenchmarkEngineFanout(b *testing.B) {
	eng := sim.NewEngine(1)
	fn := func() {}
	const pendingEvents = 1 << 14
	for i := 0; i < pendingEvents; i++ {
		eng.After(units.Time(1000+i*7%8999), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(10000, fn) // lands deep in the pending population
		eng.Run(eng.Now() + 1)
	}
	b.StopTimer()
	reportEventsPerSec(b, eng)
}

// BenchmarkRegistryHotPath pins the introspection plane's hot-path cost:
// counter, gauge, histogram and labeled-counter bumps must stay at 0
// allocs/op (gated by cmd/benchgate) so instrumentation can ride per-packet
// paths without perturbing the simulator's zero-alloc guarantees.
func BenchmarkRegistryHotPath(b *testing.B) {
	r := obs.NewRegistry()
	c := r.Counter("bench_events_total", "")
	g := r.Gauge("bench_pending", "")
	h := r.Histogram("bench_fct_ns", "")
	v := r.CounterVec("bench_drops_total", "", "reason", "overflow", "fault")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Add(1)
		h.Observe(int64(i)<<7 + 3)
		v.At(i & 1).Inc()
	}
}

func reportEventsPerSec(b *testing.B, eng *sim.Engine) {
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(eng.Events())/b.Elapsed().Seconds(), "events/s")
	}
}

// BenchmarkQueueImpl compares the rank-sorted queue against the FIFO at
// switch-realistic occupancy (~200 packets).
func BenchmarkQueueImpl(b *testing.B) {
	for _, kind := range []string{"fifo", "sorted"} {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			benchQueue(b, kind)
		})
	}
}

func benchQueue(b *testing.B, kind string) {
	mk := func(p *packet.Packet, r uint32) *packet.Packet {
		p.Marked = true
		p.Info.RFS = r
		p.PayloadLen = packet.MSS
		return p
	}
	pkts := make([]*packet.Packet, 256)
	for i := range pkts {
		pkts[i] = mk(&packet.Packet{}, uint32(i*2654435761))
	}
	var q buffer.Queue
	if kind == "fifo" {
		q = buffer.NewDropTail(1 << 30)
	} else {
		q = buffer.NewSorted(1 << 30)
	}
	// Prefill to steady-state occupancy.
	for i := 0; i < 200; i++ {
		q.Push(pkts[i%len(pkts)])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(pkts[i%len(pkts)])
		q.Pop()
	}
}

func BenchmarkSimulationThroughput(b *testing.B) {
	// Events per second of a full 16-host simulation at 50% load: the gauge
	// for how much simulated traffic a wall-clock second buys.
	for i := 0; i < b.N; i++ {
		cfg := vertigo.Defaults(vertigo.SchemeVertigo, vertigo.TransportDCTCP)
		cfg.Spines, cfg.Leaves, cfg.HostsPerLeaf = 2, 4, 4
		cfg.Duration = 20 * time.Millisecond
		cfg.BackgroundLoad = 0.25
		cfg.IncastScale = 8
		cfg.IncastFlowKB = 20
		cfg.IncastLoad = 0.25
		rep, err := vertigo.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Events), "events/run")
	}
}

// BenchmarkSeeds verifies run-to-run variance across seeds stays sane while
// doubling as a determinism smoke check (same seed twice).
func BenchmarkSeeds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var prev *vertigo.Report
		for _, seed := range []int64{1, 1, 2} {
			cfg := vertigo.Defaults(vertigo.SchemeVertigo, vertigo.TransportDCTCP)
			cfg.Seed = seed
			cfg.Spines, cfg.Leaves, cfg.HostsPerLeaf = 2, 4, 4
			cfg.Duration = 10 * time.Millisecond
			cfg.BackgroundLoad = 0.3
			cfg.IncastScale = 8
			cfg.IncastFlowKB = 20
			cfg.IncastLoad = 0.2
			rep, err := vertigo.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if seed == 1 && prev != nil && rep.Events != prev.Events {
				b.Fatal("determinism violated: same seed, different event count " +
					strconv.FormatUint(rep.Events, 10) + " vs " + strconv.FormatUint(prev.Events, 10))
			}
			if seed == 1 {
				prev = rep
			}
		}
	}
}
