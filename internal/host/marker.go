// Package host implements Vertigo's end-host components: the TX-path
// marking component that tags packets with remaining flow size (RFS) and
// boosts retransmissions (§3.1), the RX-path ordering component that
// re-sequences deflected packets before the transport sees them (§3.3),
// and the Host glue that binds transports to the fabric.
package host

import (
	"fmt"

	"vertigo/internal/cuckoo"
	"vertigo/internal/flowtab"
	"vertigo/internal/packet"
)

// Discipline selects the marking discipline (§4.3 "Alternative marking
// disciplines").
type Discipline int

// Marking disciplines.
const (
	// SRPT marks packets with the flow's remaining bytes; lower is better.
	SRPT Discipline = iota
	// LAS (least attained service / flow aging) marks packets with the
	// flow's age in packets, for when flow sizes are unknown in advance.
	LAS
)

func (d Discipline) String() string {
	if d == LAS {
		return "las"
	}
	return "srpt"
}

// MarkerConfig parameterizes the marking component.
type MarkerConfig struct {
	Discipline Discipline
	// BoostFactorLog2 is log2 of the boosting factor (paper default 2x =>
	// 1). Boosting halts at packet.MaxRetx rotations.
	BoostFactorLog2 uint
	// Boosting enables retransmission boosting (Fig. 11b ablation).
	Boosting bool
	// FilterCapacity sizes the duplicate-detection cuckoo filter; zero picks
	// a default suitable for a single host's in-flight packets.
	FilterCapacity int
}

// DefaultMarkerConfig returns the paper's default marking settings.
func DefaultMarkerConfig() MarkerConfig {
	return MarkerConfig{Discipline: SRPT, BoostFactorLog2: 1, Boosting: true}
}

// markerFlow is an outgoing flow's marking state, part of its sendFlow slot
// in the directory. Slots are recycled across flows: StartFlow resets every
// field, and EndFlow gives the retx pages back to the directory's arena.
type markerFlow struct {
	size   int64
	hi     int64           // highest first-transmitted seq; -1 before any
	retx   flowtab.PagedU8 // per-segment retransmission count (boost rotations)
	flowID uint8
	live   bool // between StartFlow and EndFlow
}

// Marker is the TX-path marking component. It tracks outgoing flows in the
// simulation's directory, tags every data packet with a flowinfo header, and
// detects retransmissions with a cuckoo filter over (flow, seq) signatures
// so it can boost their priority (paper §3.1.2). Not safe for concurrent use.
type Marker struct {
	cfg    MarkerConfig
	dir    *directory
	src    uint64 // this host's ID, the high half of its epochs' keys
	filter cuckoo.Filter
	active int // flows registered and not yet ended
	// Boosts counts boosting operations applied (telemetry).
	Boosts int64
	// FilterOverflows counts signatures the duplicate filter was too full
	// to store. Each one costs a fingerprint (the new one or a resident one
	// kicked out), so a later retransmission of that segment goes unboosted;
	// a run that reports any wants a larger FilterCapacity.
	FilterOverflows int64
}

// NewMarker returns a marking component on its own.
func NewMarker(cfg MarkerConfig) *Marker { return newMarker(cfg, newDirectory(), 0) }

// newMarker returns the marking component of dir's host src.
func newMarker(cfg MarkerConfig, dir *directory, src uint32) *Marker {
	capHint := cfg.FilterCapacity
	if capHint <= 0 {
		capHint = 1 << 16
	}
	m := &Marker{cfg: cfg, dir: dir, src: uint64(src) << 32}
	m.filter.Init(capHint, &dir.filters)
	return m
}

// StartFlow registers an outgoing flow of the given total size toward dst.
// It must be called before the flow's first packet is marked.
func (m *Marker) StartFlow(flow uint64, dst int, size int64) {
	idp, _ := m.dir.epochs.Put(m.src | uint64(uint32(dst)))
	id := *idp
	*idp = (id + 1) % (1 << packet.FlowIDBits)
	s := m.dir.sender(flow)
	f := &s.mark
	if !f.live {
		m.active++
	}
	f.size = size
	f.hi = -1
	f.flowID = id
	f.live = true
	f.retx.Release(&m.dir.retx) // a restarted flow starts with clean counters
}

// EndFlow removes a completed flow from the flow table and clears its
// signatures from the duplicate filter. Only first-transmitted segments
// ever entered the filter, so the walk is bounded by the high-water
// offset actually marked, not the flow's nominal size.
func (m *Marker) EndFlow(flow uint64) {
	s := m.dir.senders.Get(flow)
	if s == nil || !s.mark.live {
		return
	}
	f := &s.mark
	for seq := int64(0); seq <= f.hi; seq += packet.MSS {
		m.filter.Delete(sig(flow, seq))
	}
	if f.size == 0 && f.hi < 0 {
		// Zero-length flows mark exactly one (empty) segment at seq 0.
		m.filter.Delete(sig(flow, 0))
	}
	f.retx.Release(&m.dir.retx)
	f.live = false
	if s.handler == nil {
		m.dir.senders.Delete(flow)
	}
	m.active--
}

// ActiveFlows returns the number of tracked flows.
func (m *Marker) ActiveFlows() int { return m.active }

// sig is the packet signature stored in the duplicate filter: in deployment
// a CRC of the packet headers, here a mix of the flow ID and byte offset.
func sig(flow uint64, seq int64) uint64 {
	return mix(flow ^ mix(uint64(seq)+0x9e3779b97f4a7c15))
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Mark stamps p's flowinfo header. The flow must have been registered with
// StartFlow; marking an unknown flow panics, as it means the host stack
// wiring is broken. Retransmitted packets have their rank boosted by one
// rotation per retransmission, up to packet.MaxRetx.
func (m *Marker) Mark(p *packet.Packet) {
	f := m.flow(p.Flow)
	if f == nil {
		panic(fmt.Sprintf("host: marking packet of unregistered flow %d", p.Flow))
	}
	p.Marked = true
	p.InvalidateSize() // marking adds the shim header to the wire size
	p.Info = m.mark(f, p.Flow, p.Seq)
}

// flow returns flow's marking state, or nil if it is not registered.
func (m *Marker) flow(flow uint64) *markerFlow {
	if s := m.dir.senders.Get(flow); s != nil && s.mark.live {
		return &s.mark
	}
	return nil
}

// mark returns the flowinfo of the segment at seq of flow, whose entry is f,
// and records the transmission: a first one in the duplicate filter, a
// repeat as one more boost.
func (m *Marker) mark(f *markerFlow, flow uint64, seq int64) packet.FlowInfo {
	var base uint32
	switch m.cfg.Discipline {
	case SRPT:
		base = uint32(f.size - seq) // remaining bytes incl. this packet
	case LAS:
		// Age in packets at first transmission of this segment.
		base = uint32(seq / packet.MSS)
	}

	retcnt := uint8(0)
	present, ok := m.filter.ContainsOrAdd(sig(flow, seq))
	if !ok {
		m.FilterOverflows++
	}
	if present {
		// Retransmission: bump this segment's boost count.
		seg := seq / packet.MSS
		c := f.retx.Get(seg)
		if m.cfg.Boosting && c < packet.MaxRetx {
			c++
			f.retx.Set(seg, c, (f.size+packet.MSS-1)/packet.MSS, &m.dir.retx)
			m.Boosts++
		}
		retcnt = c
	} else if seq > f.hi {
		f.hi = seq
	}

	rfs := base
	for i := uint8(0); i < retcnt; i++ {
		rfs = packet.BoostRFS(rfs, m.cfg.BoostFactorLog2)
	}
	return packet.FlowInfo{RFS: rfs, RetCnt: retcnt, FlowID: f.flowID, First: seq == 0}
}
