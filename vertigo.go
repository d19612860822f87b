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
	"fmt"
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
// from Defaults and override.
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
	DisableBoost   bool          // Fig. 11b "No Boosting"
	BoostFactor    int           // power of two; paper default 2
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

	if cfg.BoostFactor > 0 {
		log2 := uint(0)
		for f := cfg.BoostFactor; f > 1; f >>= 1 {
			if f%2 != 0 {
				return core.Config{}, fmt.Errorf("vertigo: boost factor %d is not a power of two", cfg.BoostFactor)
			}
			log2++
		}
		cc.Marker.BoostFactorLog2 = log2
	}
	cc.Marker.Boosting = !cfg.DisableBoost
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
		Events:              res.Events,
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
