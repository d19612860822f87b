package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"vertigo/internal/core"
	"vertigo/internal/fabric"
	"vertigo/internal/host"
	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/telemetry"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/workload"
)

// span is one timed call into a layer. Spans nest strictly because the
// simulator is single-threaded, so a stack of open spans gives each its
// parent.
type span struct {
	name       string
	parent     int32 // index into spanLog.spans, -1 for a root
	start, end int64 // ns since spanLog.t0
}

// spanLog keeps spans in memory; nothing is written until the run is over.
// A nil *spanLog records nothing, which is how the tests run the mirror
// assembly bare.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int32
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string) {
	if l == nil {
		return
	}
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.open = append(l.open, int32(len(l.spans)))
	l.spans = append(l.spans, span{name: name, parent: parent, start: int64(time.Since(l.t0))})
}

func (l *spanLog) end() {
	if l == nil {
		return
	}
	n := len(l.open) - 1
	l.spans[l.open[n]].end = int64(time.Since(l.t0))
	l.open = l.open[:n]
}

// totals sums span durations by name, in seconds, and counts them.
func (l *spanLog) totals() (dur map[string]float64, count map[string]int) {
	dur, count = map[string]float64{}, map[string]int{}
	for _, s := range l.spans {
		dur[s.name] += float64(s.end-s.start) / 1e9
		count[s.name]++
	}
	return dur, count
}

// selfSeconds is the named spans' time minus what their direct children
// cover.
func (l *spanLog) selfSeconds(name string) float64 {
	var self int64
	for _, s := range l.spans {
		switch {
		case s.name == name:
			self += s.end - s.start
		case s.parent >= 0 && l.spans[s.parent].name == name:
			self -= s.end - s.start
		}
	}
	return float64(self) / 1e9
}

// appendTo writes one JSON line per span to path.
func (l *spanLog) appendTo(path, workload string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i, s := range l.spans {
		fmt.Fprintf(w, `{"workload":%q,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			workload, i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mirrorRun assembles and runs cfg from the layers' public constructors the
// way core.Run's serial path does, with a span around every call it owns.
// It covers what the workloads use — either topology, background and incast
// generators, the monitor and the sampler — and nothing else of core.Config.
// The caller compares the digest with core.Run's, so a core.Run that drifts
// away from this copy fails the traced pass instead of skewing it.
func mirrorRun(cfg core.Config, l *spanLog) (*metrics.Summary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l.begin("topo.build")
	var t *topo.Topology
	var err error
	if cfg.Kind == core.FatTree {
		t, err = topo.NewFatTree(cfg.FatTreeCfg)
	} else {
		t, err = topo.NewLeafSpine(cfg.LeafSpineCfg)
	}
	l.end()
	if err != nil {
		return nil, err
	}

	eng := sim.NewEngine(cfg.Seed)
	met := metrics.NewCollector()
	met.RawSeries = cfg.RawSeries
	l.begin("fabric.new")
	net := fabric.New(eng, t, met, cfg.Fabric)
	l.end()
	ids := &packet.IDGen{}

	var mon *telemetry.Monitor
	if cfg.Telemetry {
		mon = telemetry.NewMonitor(eng, cfg.TelemetryConfig)
		net.AddObserver(mon)
	}
	if cfg.SampleTick > 0 {
		sampler := telemetry.NewSampler(eng, telemetry.SamplerConfig{Tick: cfg.SampleTick})
		sampler.Start(cfg.SimTime)
		net.AddObserver(sampler)
	}

	ocfg := cfg.Orderer
	ocfg.Discipline = cfg.Marker.Discipline
	ocfg.BoostFactorLog2 = cfg.Marker.BoostFactorLog2
	senders := transport.NewSenderPool(cfg.Transport)
	receivers := transport.NewReceiverPool(eng, net, met, ids)

	l.begin("host.new")
	vertigoStack := cfg.VertigoStack || cfg.Fabric.Policy == fabric.Vertigo
	hosts := make([]*host.Host, t.NumHosts)
	for i := range hosts {
		h := host.NewHost(i, eng, net, met, cfg.Marker, ocfg, vertigoStack)
		h.SetAcceptor(func(first *packet.Packet) func(*packet.Packet) {
			l.begin("transport.accept")
			fn := receivers.Accept(h, first)
			l.end()
			return fn
		})
		hosts[i] = h
	}
	l.end()

	starter := func(src, dst int, size int64, incast bool, query int) {
		spec := transport.FlowSpec{ID: ids.Next(), Src: src, Dst: dst, Size: size, Incast: incast, Query: query}
		l.begin("transport.flow_start")
		senders.Get(hosts[src], met, ids, spec, nil).Start()
		l.end()
	}

	l.begin("workload.arm")
	if cfg.BGLoad > 0 {
		bg := &workload.Background{
			Eng: eng, Hosts: t.NumHosts, Dist: cfg.BGDist,
			HostRate: cfg.HostRate(), Load: cfg.BGLoad, Start: starter,
		}
		bg.Run(cfg.SimTime)
	}
	if cfg.IncastQPS > 0 && cfg.IncastScale > 0 {
		ic := &workload.Incast{
			Eng: eng, Met: met, Hosts: t.NumHosts,
			QPS: cfg.IncastQPS, Scale: cfg.IncastScale, FlowSize: cfg.IncastFlowSize,
			Periodic: cfg.IncastPeriodic, RequestDelay: cfg.RequestDelay, Start: starter,
		}
		ic.Run(cfg.SimTime)
	}
	l.end()

	l.begin("sim.run")
	end := eng.Run(cfg.SimTime)
	l.end()
	if mon != nil {
		mon.Finish()
	}
	l.begin("metrics.summarize")
	s := met.Summarize(end)
	l.end()
	return s, nil
}

// childTrace is the traced pass for one workload: the mirror assembly under
// spans and a CPU profile, both taken by this file and written out only
// after the run.
func childTrace(req childReq) (*layerResult, error) {
	_, cfg, err := req.config()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(req.Out, 0o755); err != nil {
		return nil, err
	}
	prof := filepath.Join(req.Out, "cpu."+req.Workload+".pprof")
	pf, err := os.Create(prof)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	l := newSpanLog()
	t0 := time.Now()
	s, err := mirrorRun(cfg, l)
	wall := time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	dur, count := l.totals()
	res := &layerResult{WallS: wall, Digest: simDigest(s), Layer: map[string]float64{
		"topo.build_s":               dur["topo.build"],
		"fabric.new_s":               dur["fabric.new"],
		"host.new_s":                 dur["host.new"],
		"workload.arm_s":             dur["workload.arm"],
		"sim.run_s":                  dur["sim.run"],
		"sim.run_self_s":             l.selfSeconds("sim.run"),
		"transport.flow_start_s":     dur["transport.flow_start"],
		"transport.flow_start_count": float64(count["transport.flow_start"]),
		"transport.accept_s":         dur["transport.accept"],
		"metrics.summarize_s":        dur["metrics.summarize"],
	}}
	if err := l.appendTo(filepath.Join(req.Out, "trace.jsonl"), req.Workload); err != nil {
		return nil, err
	}
	top, err := pprofTop(prof)
	if err != nil {
		return nil, err
	}
	shares, err := foldProfile(top)
	if err != nil {
		return nil, err
	}
	for name, v := range shares {
		res.Layer[name] = v
	}
	return res, nil
}
