package vertigo

import (
	"time"

	"vertigo/internal/host"
	"vertigo/internal/packet"
	"vertigo/internal/units"
)

// This file re-exports the deployable end-host components and wire formats,
// so downstream users get the Vertigo stack pieces without touching the
// simulator: the TX marking component, the RX ordering component, and the
// two flowinfo header encodings of paper Fig. 3.

// FlowInfo is Vertigo's per-packet auxiliary header (paper Fig. 3).
type FlowInfo = packet.FlowInfo

// Segment is a frame handed to or released by the Orderer.
type Segment = host.WireSegment

// Wire encoding sizes and identifiers (paper Fig. 3).
const (
	ShimHeaderLen = packet.ShimHeaderLen // layer-3 shim: 7 bytes
	OptionLen     = packet.OptionLen     // IPv4 option: 8 bytes
	ShimEtherType = packet.ShimEtherType
	MSS           = packet.MSS
)

// EncodeShim writes the shim layer-3 encoding of f into b.
func EncodeShim(b []byte, f FlowInfo, innerEtherType uint16) (int, error) {
	return packet.EncodeShim(b, f, innerEtherType)
}

// DecodeShim parses a shim header, returning the flowinfo fields and the
// encapsulated EtherType.
func DecodeShim(b []byte) (FlowInfo, uint16, error) {
	return packet.DecodeShim(b)
}

// EncodeOption writes the IPv4-option encoding of f into b.
func EncodeOption(b []byte, f FlowInfo) (int, error) {
	return packet.EncodeOption(b, f)
}

// DecodeOption parses the IPv4-option encoding.
func DecodeOption(b []byte) (FlowInfo, error) {
	return packet.DecodeOption(b)
}

// Marker is the TX-path marking component (paper §3.1): it tracks outgoing
// flows, tags every segment with the flow's remaining bytes, detects
// retransmissions with a cuckoo filter, and boosts their priority. Boosts
// counts the boosts applied, FilterOverflows the signatures the filter was
// too full to keep (each one a retransmission that may go unboosted: raise
// MarkerOptions.FlowCapacity). A Marker is about 18 KB once it has marked a
// segment and about 68 KB with a thousand segments in flight: build one per
// TX queue, not one per connection.
type Marker = host.WireMarker

// Orderer is the RX-path ordering component (paper §3.3): it re-sequences
// out-of-order (deflected) segments before the transport sees them, holding
// early segments for at most the ordering timeout τ. It is sans-IO: the
// caller passes the time to every call, in non-decreasing order (an earlier
// time counts as the latest seen), and arms its own timer for NextDeadline.
// Each Orderer owns an event engine, flow table and packet slab: about 260 KB
// when built, 315 KB once it has received a segment. Build one per RX queue,
// not one per connection.
//
//	ready := o.Receive(time.Now(), seg)
//	deliver(ready...)
//	if dl, ok := o.NextDeadline(); ok { armTimer(dl) }
//	// on timer: deliver(o.Expire(time.Now())...)
type Orderer = host.WireOrderer

// MarkerOptions configures a Marker.
type MarkerOptions struct {
	// LAS switches to flow-aging marking for when flow sizes are unknown
	// (paper §4.3); default is SRPT remaining-size marking.
	LAS bool
	// BoostFactor is the power-of-two priority boost per retransmission
	// (paper default 2). Zero selects 2; 1 disables boosting. NewMarker
	// panics on any other factor ("vertigo: boost factor 6 is not a power
	// of two"), as Run rejects it in Config.BoostFactor.
	BoostFactor int
	// FlowCapacity hints the expected number of concurrent in-flight
	// segments for sizing the duplicate-detection filter.
	FlowCapacity int
}

// NewMarker returns a TX-path marking component.
func NewMarker(opts MarkerOptions) *Marker {
	cfg := host.DefaultMarkerConfig()
	if opts.LAS {
		cfg.Discipline = host.LAS
	}
	log2, err := boostLog2(opts.BoostFactor)
	if err != nil {
		panic(err)
	}
	cfg.BoostFactorLog2, cfg.Boosting = log2, log2 > 0
	cfg.FilterCapacity = opts.FlowCapacity
	return host.NewWireMarker(cfg)
}

// OrdererOptions configures an Orderer.
type OrdererOptions struct {
	// Timeout is τ, the longest an early segment is held while waiting for
	// a delayed one (paper default 360µs).
	Timeout time.Duration
	// LAS and BoostFactor must match the sender's MarkerOptions; NewOrderer
	// panics on a BoostFactor NewMarker would panic on.
	LAS         bool
	BoostFactor int
}

// NewOrderer returns an RX-path ordering component.
func NewOrderer(opts OrdererOptions) *Orderer {
	cfg := host.DefaultOrdererConfig()
	if opts.Timeout > 0 {
		cfg.Timeout = units.FromDuration(opts.Timeout)
	}
	if opts.LAS {
		cfg.Discipline = host.LAS
	}
	log2, err := boostLog2(opts.BoostFactor)
	if err != nil {
		panic(err)
	}
	cfg.BoostFactorLog2 = log2
	return host.NewWireOrderer(cfg)
}
