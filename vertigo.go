// Package vertigo is a reproduction of "Burst-tolerant Datacenter Networks
// with Vertigo" (Abdous, Sharafzadeh, Ghorbani — CoNEXT 2021).
//
// It provides two things:
//
//   - A deterministic packet-level datacenter simulator (Run) covering the
//     paper's full evaluation space: leaf-spine and fat-tree fabrics; ECMP,
//     DRILL, DIBS and Vertigo forwarding; TCP Reno, DCTCP and Swift
//     transports; background workloads drawn from published flow-size
//     distributions; and the incast query application that generates
//     microbursts.
//
//   - The deployable Vertigo end-host components (Marker, Orderer): the
//     TX-path remaining-flow-size marking component with retransmission
//     boosting, the RX-path re-sequencing component, and the wire encodings
//     of the flowinfo header (paper Fig. 3).
//
// A minimal simulation:
//
//	cfg := vertigo.Defaults(vertigo.SchemeVertigo, vertigo.TransportDCTCP)
//	cfg.Duration = 100 * time.Millisecond
//	rep, err := vertigo.Run(cfg)
package vertigo

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"strings"
	"time"

	"vertigo/internal/core"
	"vertigo/internal/fabric"
	"vertigo/internal/host"
	"vertigo/internal/metrics"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
	"vertigo/internal/workload"
)

// Scheme selects the in-network forwarding scheme.
type Scheme string

// Forwarding schemes (paper §4.1 "Alternative approaches").
const (
	SchemeECMP    Scheme = "ecmp"
	SchemeDRILL   Scheme = "drill"
	SchemeDIBS    Scheme = "dibs"
	SchemeVertigo Scheme = "vertigo"
)

// Transport selects the congestion control protocol.
type Transport string

// Transports (paper §4.1).
const (
	TransportTCP   Transport = "tcp"
	TransportDCTCP Transport = "dctcp"
	TransportSwift Transport = "swift"
)

// Topology selects the fabric shape.
type Topology string

// Topologies (paper §4.1).
const (
	TopologyLeafSpine Topology = "leafspine"
	TopologyFatTree   Topology = "fattree"
)

// Config describes one simulation. The zero value is not runnable; start
// from Defaults and override, in code or with flags (RegisterFlags).
type Config struct {
	Seed     int64
	Duration time.Duration // simulated time (also the completion deadline)

	Scheme    Scheme
	Transport Transport

	// Topology. LeafSpine fields apply to TopologyLeafSpine; FatTreeK to
	// TopologyFatTree.
	Topology     Topology
	Spines       int
	Leaves       int
	HostsPerLeaf int
	FatTreeK     int
	HostGbps     int // access link rate
	FabricGbps   int // switch-switch rate (leaf-spine only)

	// Fabric parameters (paper Table 1 / §4.1).
	BufferKB       int           // per-port buffer
	ECNThresholdPk int           // DCTCP marking threshold in packets
	FwdChoices     int           // Vertigo power-of-n forwarding (Fig. 12)
	DeflChoices    int           // Vertigo power-of-n deflection (Fig. 12)
	MaxDeflections int           // per-packet deflection budget (0 = policy default)
	DisableSched   bool          // Fig. 11a "No Scheduling"
	DisableDeflect bool          // Fig. 11a "No Deflection"
	DisableOrder   bool          // Fig. 11a "No Ordering"
	BoostFactor    int           // power of two; paper default 2; 1 = no boosting (Fig. 11b)
	OrderTimeout   time.Duration // τ; paper default 360µs
	LAS            bool          // flow-aging marking instead of SRPT (Table 3)

	// Background workload.
	BackgroundLoad     float64 // fraction of aggregate host capacity
	BackgroundWorkload string  // cachefollower | datamining | websearch
	// TracePath, when set, replays a CSV flow trace (start_us,src,dst,bytes
	// per line) in addition to the synthetic workloads.
	TracePath string

	// Incast application (paper Table 1).
	IncastQPS    float64
	IncastScale  int
	IncastFlowKB int
	// IncastLoad, when positive, overrides IncastQPS so incast traffic
	// offers this load fraction.
	IncastLoad float64

	// Telemetry enables the per-port monitoring report (§5): utilization,
	// queue high-water marks, congestion episodes and microburst counts,
	// and the deflections-per-packet histogram.
	Telemetry bool

	// PacketTracePath, when set, writes one JSON object a line per dataplane
	// event of the traced flow to this file (PacketTraceFlow; 0 = all flows).
	PacketTracePath string
	PacketTraceFlow uint64

	// Shards, when > 1, partitions the fabric into that many topology
	// domains and runs them on separate cores under a conservative
	// time-window protocol, probes included (Telemetry and the packet trace
	// merge across domains). The seed fixes the offered workload at any
	// count; a sharded run is deterministic for a given count but
	// statistically — not bitwise — comparable to a serial run.
	Shards int
}

// Defaults returns the paper's default settings (Table 1, §4.1) for a
// scheme/transport pair on the paper's 320-host leaf-spine fabric.
func Defaults(s Scheme, tp Transport) Config {
	return Config{
		Seed:               1,
		Duration:           5 * time.Second,
		Scheme:             s,
		Transport:          tp,
		Topology:           TopologyLeafSpine,
		Spines:             4,
		Leaves:             8,
		HostsPerLeaf:       40,
		FatTreeK:           8,
		HostGbps:           10,
		FabricGbps:         40,
		BufferKB:           300,
		ECNThresholdPk:     65,
		FwdChoices:         2,
		DeflChoices:        2,
		BoostFactor:        2,
		OrderTimeout:       360 * time.Microsecond,
		BackgroundLoad:     0.5,
		BackgroundWorkload: "cachefollower",
		IncastQPS:          4000,
		IncastScale:        100,
		IncastFlowKB:       40,
	}
}

// RegisterFlags binds every field of c to a flag of fs, in place: a flag's
// default is the field's value when RegisterFlags is called, and parsing
// writes the field.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.Int64Var(&c.Seed, "seed", c.Seed, "simulation seed (same seed => identical run)")
	fs.DurationVar(&c.Duration, "duration", c.Duration, "simulated time (also the completion deadline)")
	fs.StringVar((*string)(&c.Scheme), "scheme", string(c.Scheme), "forwarding scheme: ecmp|drill|dibs|vertigo")
	fs.StringVar((*string)(&c.Transport), "transport", string(c.Transport), "congestion control: tcp|dctcp|swift")
	fs.StringVar((*string)(&c.Topology), "topology", string(c.Topology), "fabric: leafspine|fattree")
	fs.IntVar(&c.Spines, "spines", c.Spines, "leaf-spine: spine switches")
	fs.IntVar(&c.Leaves, "leaves", c.Leaves, "leaf-spine: leaf (ToR) switches")
	fs.IntVar(&c.HostsPerLeaf, "hosts-per-leaf", c.HostsPerLeaf, "leaf-spine: hosts per leaf")
	fs.IntVar(&c.FatTreeK, "fattree-k", c.FatTreeK, "fat-tree: k (even)")
	fs.IntVar(&c.HostGbps, "host-gbps", c.HostGbps, "access link rate in Gb/s")
	fs.IntVar(&c.FabricGbps, "fabric-gbps", c.FabricGbps, "leaf-spine: switch-to-switch link rate in Gb/s")
	fs.IntVar(&c.BufferKB, "buffer-kb", c.BufferKB, "per-port buffer in KB")
	fs.IntVar(&c.ECNThresholdPk, "ecn-threshold", c.ECNThresholdPk, "DCTCP marking threshold in packets")
	fs.IntVar(&c.FwdChoices, "fwd-choices", c.FwdChoices, "Vertigo power-of-n forwarding choices (Fig. 12)")
	fs.IntVar(&c.DeflChoices, "defl-choices", c.DeflChoices, "Vertigo power-of-n deflection choices (Fig. 12)")
	fs.IntVar(&c.MaxDeflections, "max-deflections", c.MaxDeflections, "per-packet deflection budget (0 = the policy's default)")
	fs.BoolVar(&c.DisableSched, "disable-sched", c.DisableSched, `FIFO instead of RFS-sorted queues (Fig. 11a "No Scheduling")`)
	fs.BoolVar(&c.DisableDeflect, "disable-deflect", c.DisableDeflect, `drop instead of deflecting (Fig. 11a "No Deflection")`)
	fs.BoolVar(&c.DisableOrder, "disable-order", c.DisableOrder, `release reordered packets at once (Fig. 11a "No Ordering")`)
	fs.IntVar(&c.BoostFactor, "boost-factor", c.BoostFactor, "Vertigo boosting factor (power of two; 1 disables)")
	fs.DurationVar(&c.OrderTimeout, "ordering-timeout", c.OrderTimeout, "Vertigo ordering timeout τ")
	fs.BoolVar(&c.LAS, "las", c.LAS, "use flow-aging (LAS) marking instead of SRPT")
	fs.Float64Var(&c.BackgroundLoad, "bg-load", c.BackgroundLoad, "background load fraction of host capacity")
	fs.StringVar(&c.BackgroundWorkload, "bg-workload", c.BackgroundWorkload, "cachefollower|datamining|websearch")
	fs.StringVar(&c.TracePath, "trace", c.TracePath, "CSV flow trace to replay (start_us,src,dst,bytes)")
	fs.Float64Var(&c.IncastQPS, "incast-qps", c.IncastQPS, "incast queries per second (used when -incast-load is 0)")
	fs.IntVar(&c.IncastScale, "incast-scale", c.IncastScale, "servers per incast query")
	fs.IntVar(&c.IncastFlowKB, "incast-flow-kb", c.IncastFlowKB, "incast response size in KB")
	fs.Float64Var(&c.IncastLoad, "incast-load", c.IncastLoad, "incast offered load fraction (overrides -incast-qps)")
	fs.BoolVar(&c.Telemetry, "telemetry", c.Telemetry, "print the per-port monitoring report (§5)")
	fs.StringVar(&c.PacketTracePath, "packet-trace", c.PacketTracePath, "write a per-event dataplane trace (JSONL, one object per event) to this file")
	fs.Uint64Var(&c.PacketTraceFlow, "packet-trace-flow", c.PacketTraceFlow, "flow ID to trace (0 = all flows)")
	fs.IntVar(&c.Shards, "shards", c.Shards, "shard the run across this many topology domains on separate cores, probes included (deterministic per shard count, same offered workload at any; 0 or 1 = serial engine)")
}

// Report is the digest of one run.
type Report struct {
	// Flows.
	FlowsStarted, FlowsCompleted int
	FlowCompletionPct            float64
	MeanFCT, P99FCT              time.Duration
	MeanMiceFCT                  time.Duration

	// Incast queries.
	QueriesStarted, QueriesCompleted int
	QueryCompletionPct               float64
	MeanQCT, P99QCT                  time.Duration

	// Network.
	PacketsSent, PacketsDelivered int64
	Drops                         int64
	DropRatePct                   float64
	Deflections                   int64
	MeanHops                      float64
	Retransmits, RTOs, FastRetx   int64
	ReorderedPackets              int64
	OverallGoodputGbps            float64
	ElephantGoodputMbps           float64

	// Raw series for CDF plots.
	FCTs, QCTs []time.Duration

	// Events is the number of simulator events executed (throughput gauge).
	Events uint64

	// TelemetryText is the rendered monitoring report (empty unless
	// Config.Telemetry was set).
	TelemetryText string

	// Microbursts counts sub-millisecond congestion episodes observed by
	// the monitor (0 unless Config.Telemetry was set).
	Microbursts int
}

// Run executes the scenario described by cfg.
func Run(cfg Config) (rep *Report, err error) {
	cc, err := cfg.lower()
	if err != nil {
		return nil, err
	}
	if cfg.PacketTracePath != "" {
		trace, oerr := os.Create(cfg.PacketTracePath)
		if oerr != nil {
			return nil, oerr
		}
		// Closed on every path out; a clean run reports the close's error.
		defer func() {
			if cerr := trace.Close(); cerr != nil && err == nil {
				rep, err = nil, cerr
			}
		}()
		cc.PacketTrace, cc.PacketTraceFlow = trace, cfg.PacketTraceFlow
	}
	res, err := core.Run(cc)
	if err != nil {
		return nil, err
	}
	rep = report(res)
	if res.Telemetry != nil {
		var sb strings.Builder
		res.Telemetry.WriteReport(&sb, res.Summary.Duration, 10)
		rep.TelemetryText = sb.String()
		rep.Microbursts = len(res.Telemetry.Microbursts())
	}
	return rep, nil
}

// lower translates the public Config into the internal scenario config.
func (cfg Config) lower() (core.Config, error) {
	var policy fabric.Policy
	switch cfg.Scheme {
	case SchemeECMP:
		policy = fabric.ECMP
	case SchemeDRILL:
		policy = fabric.DRILL
	case SchemeDIBS:
		policy = fabric.DIBS
	case SchemeVertigo, "":
		policy = fabric.Vertigo
	default:
		return core.Config{}, fmt.Errorf("vertigo: unknown scheme %q", cfg.Scheme)
	}
	var proto transport.Protocol
	switch cfg.Transport {
	case TransportTCP:
		proto = transport.Reno
	case TransportDCTCP, "":
		proto = transport.DCTCP
	case TransportSwift:
		proto = transport.Swift
	default:
		return core.Config{}, fmt.Errorf("vertigo: unknown transport %q", cfg.Transport)
	}

	cc := core.DefaultConfig(policy, proto)
	cc.Seed = cfg.Seed
	cc.SimTime = units.FromDuration(cfg.Duration)

	switch cfg.Topology {
	case TopologyLeafSpine, "":
		cc.Kind = core.LeafSpine
		cc.LeafSpineCfg = topo.LeafSpineConfig{
			Spines:       cfg.Spines,
			Leaves:       cfg.Leaves,
			HostsPerLeaf: cfg.HostsPerLeaf,
			HostRate:     units.BitRate(cfg.HostGbps) * units.Gbps,
			FabricRate:   units.BitRate(cfg.FabricGbps) * units.Gbps,
			LinkDelay:    500 * units.Nanosecond,
		}
	case TopologyFatTree:
		cc.Kind = core.FatTree
		cc.FatTreeCfg = topo.FatTreeConfig{
			K:         cfg.FatTreeK,
			Rate:      units.BitRate(cfg.HostGbps) * units.Gbps,
			LinkDelay: 500 * units.Nanosecond,
		}
	default:
		return core.Config{}, fmt.Errorf("vertigo: unknown topology %q", cfg.Topology)
	}

	cc.Fabric.BufferBytes = units.ByteSize(cfg.BufferKB) * units.KB
	cc.Fabric.ECNThreshold = cfg.ECNThresholdPk
	cc.Fabric.FwdChoices = cfg.FwdChoices
	cc.Fabric.DeflChoices = cfg.DeflChoices
	cc.Fabric.MaxDeflections = cfg.MaxDeflections
	cc.Fabric.Scheduling = !cfg.DisableSched
	cc.Fabric.Deflection = !cfg.DisableDeflect

	log2, err := boostLog2(cfg.BoostFactor)
	if err != nil {
		return core.Config{}, err
	}
	cc.Marker.BoostFactorLog2, cc.Marker.Boosting = log2, log2 > 0
	if cfg.LAS {
		cc.Marker.Discipline = host.LAS
	}
	if cfg.OrderTimeout > 0 {
		cc.Orderer.Timeout = units.FromDuration(cfg.OrderTimeout)
	}
	if cfg.DisableOrder {
		// An effectively-zero hold: packets flush immediately, exposing raw
		// reordering to the transport (Fig. 11a "No Ordering").
		cc.Orderer.Timeout = 1
	}

	cc.BGLoad = cfg.BackgroundLoad
	if cfg.BackgroundWorkload != "" {
		dist, err := workload.DistByName(cfg.BackgroundWorkload)
		if err != nil {
			return core.Config{}, err
		}
		cc.BGDist = dist
	}
	if cfg.TracePath != "" {
		f, err := os.Open(cfg.TracePath)
		if err != nil {
			return core.Config{}, err
		}
		defer f.Close()
		tr, err := workload.ParseTrace(f)
		if err != nil {
			return core.Config{}, err
		}
		cc.Trace = tr
	}
	cc.IncastQPS = cfg.IncastQPS
	cc.IncastScale = cfg.IncastScale
	cc.IncastFlowSize = int64(cfg.IncastFlowKB) * 1000
	if cfg.IncastLoad > 0 {
		cc.SetIncastLoad(cfg.IncastLoad)
	}
	cc.Telemetry = cfg.Telemetry
	cc.Shards = cfg.Shards
	return cc, nil
}

// boostLog2 returns log2 of a boost factor: 1, 2, 4, 8, … give 0, 1, 2,
// 3, …, and 0 selects the paper's 2. Any other factor is an error, which
// the Marker and Orderer constructors panic with.
func boostLog2(factor int) (uint, error) {
	if factor == 0 {
		return 1, nil
	}
	if factor < 0 || factor&(factor-1) != 0 {
		return 0, fmt.Errorf("vertigo: boost factor %d is not a power of two", factor)
	}
	return uint(bits.TrailingZeros(uint(factor))), nil
}

func report(res *core.Result) *Report {
	s := res.Summary
	r := &Report{
		FlowsStarted:        s.FlowsStarted,
		FlowsCompleted:      s.FlowsCompleted,
		FlowCompletionPct:   s.FlowCompletionP,
		MeanFCT:             s.MeanFCT.Duration(),
		P99FCT:              s.P99FCT.Duration(),
		MeanMiceFCT:         s.MeanMiceFCT.Duration(),
		QueriesStarted:      s.QueriesStarted,
		QueriesCompleted:    s.QueriesCompleted,
		QueryCompletionPct:  s.QueryCompletionP,
		MeanQCT:             s.MeanQCT.Duration(),
		P99QCT:              s.P99QCT.Duration(),
		PacketsSent:         s.PacketsSent,
		PacketsDelivered:    s.PacketsRecv,
		Drops:               s.Drops,
		DropRatePct:         100 * s.DropRate,
		Deflections:         s.Deflections,
		MeanHops:            s.MeanHops,
		Retransmits:         s.Retransmits,
		RTOs:                s.RTOs,
		FastRetx:            s.FastRetx,
		ReorderedPackets:    s.ReorderPkts,
		OverallGoodputGbps:  float64(s.OverallGoodput) / float64(units.Gbps),
		ElephantGoodputMbps: float64(s.ElephantGoodput) / float64(units.Mbps),
		Events:              res.Engine.Events,
	}
	for _, t := range s.FCTs {
		r.FCTs = append(r.FCTs, t.Duration())
	}
	for _, t := range s.QCTs {
		r.QCTs = append(r.QCTs, t.Duration())
	}
	return r
}

// QCTPercentile returns the p-th percentile of completed query completion
// times.
func (r *Report) QCTPercentile(p float64) time.Duration {
	return percentileDur(r.QCTs, p)
}

// FCTPercentile returns the p-th percentile of completed flow completion
// times.
func (r *Report) FCTPercentile(p float64) time.Duration {
	return percentileDur(r.FCTs, p)
}

func percentileDur(ds []time.Duration, p float64) time.Duration {
	ts := make([]units.Time, len(ds))
	for i, d := range ds {
		ts[i] = units.FromDuration(d)
	}
	return metrics.Percentile(ts, p).Duration()
}
