package host

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/units"
)

// The wire components run the simulator's §3 state machines on real frames
// with caller-supplied time (sans-IO), as the paper's DPDK prototype does (§4.4).

// Wire errors.
var (
	ErrUnknownFlow = errors.New("host: unknown flow")
	ErrBadSegment  = errors.New("host: segment outside flow bounds")
)

// WireMarker is the TX-path marking component for real frames. Flows are
// identified by a caller-chosen 64-bit key (e.g. a 5-tuple hash); segments
// by their byte offset within the flow. It is a stand-alone Marker whose
// flows all head to destination 0, so one 3-bit epoch counter numbers them.
// Not safe for concurrent use: wrap it per TX queue, as a DPDK app would.
type WireMarker struct{ Marker }

// NewWireMarker returns a marking component for wire frames.
func NewWireMarker(cfg MarkerConfig) *WireMarker { return &WireMarker{*NewMarker(cfg)} }

// StartFlow registers an outgoing flow of totalBytes under key.
func (m *WireMarker) StartFlow(key uint64, totalBytes int64) { m.Marker.StartFlow(key, 0, totalBytes) }

// Mark computes the flowinfo for the segment [offset, offset+n) of the flow
// under key, applying retransmission boosting, and writes the shim header
// into a non-nil hdr (packet.ShimHeaderLen bytes) around innerEtherType.
func (m *WireMarker) Mark(key uint64, offset int64, n int, hdr []byte, innerEtherType uint16) (packet.FlowInfo, error) {
	f := m.flows.Get(key)
	if f == nil {
		return packet.FlowInfo{}, fmt.Errorf("%w: %d", ErrUnknownFlow, key)
	}
	if offset < 0 || n <= 0 || offset+int64(n) > f.size {
		return packet.FlowInfo{}, fmt.Errorf("%w: [%d,%d) of %d", ErrBadSegment, offset, offset+int64(n), f.size)
	}
	fi := m.mark(f, key, offset)
	if hdr != nil {
		if _, err := packet.EncodeShim(hdr, fi, innerEtherType); err != nil {
			return packet.FlowInfo{}, err
		}
	}
	return fi, nil
}

// WireSegment is a frame handed to or released by the WireOrderer.
type WireSegment struct {
	Key     uint64 // flow key
	Info    packet.FlowInfo
	Len     int    // payload length in bytes (for SRPT position arithmetic)
	Last    bool   // last segment of the flow (needed under LAS)
	Payload []byte // opaque frame reference, passed through untouched
}

// WireOrderer is the RX-path ordering component for real frames, written
// sans-IO: the caller supplies timestamps and polls deadlines, so it plugs
// into any event loop or poll-mode driver (see vertigo.Orderer). It is an
// Orderer on a private engine whose clock is the caller's time since the
// first call, in nanoseconds. Each call first runs the engine to its now, so
// time must not go backwards (an earlier now counts as the latest). Hence
// NextDeadline is never before the latest now; one Expire releases across
// flows in deadline order; Receive returns what was due by now ahead of the
// segment's own releases; a timeout acts at its deadline however late the
// poll. Segments ride pooled carriers whose ID indexes a slab of held ones.
// Its engine (~250 KB) is never finished: its timers count in vertigo_engine_*.
type WireOrderer struct {
	*Orderer
	eng         *sim.Engine
	epoch, last time.Time // the caller's time at the first and the latest call
	started     bool
	armed       uint64 // events the engine had scheduled when last none was due
	pool        packet.Pool
	held        []WireSegment // held segments, by their carrier's ID
	vacant      []uint64      // free slots of held
	out         []WireSegment // this call's releases, handed to the caller
	curOut      bool          // the segment being received was released at once
}

// receiving is the carrier ID of the segment Receive is handing over.
const receiving = ^uint64(0)

// NewWireOrderer returns an ordering component for wire frames.
func NewWireOrderer(cfg OrdererConfig) *WireOrderer {
	o := &WireOrderer{eng: sim.NewEngine(0)}
	o.Orderer = NewOrderer(o.eng, cfg, o.release)
	return o
}

// release, the Orderer's delivery callback, adds a carrier's segment to the result.
func (o *WireOrderer) release(p *packet.Packet) {
	if p.ID == receiving {
		o.curOut = true
	} else {
		if len(o.out) == cap(o.out) { // room for the rest of the flow's held run
			o.out = slices.Grow(o.out, 1+o.buffered(o.flows.Get(p.Flow)))
		}
		o.out = append(o.out, o.held[p.ID])
		o.held[p.ID] = WireSegment{}
		o.vacant = append(o.vacant, p.ID)
	}
	o.pool.Put(p)
}

// advance runs the engine to the caller's now; at an unmoved clock (a receive
// burst's shared timestamp) it skips the run unless a timer armed since is due.
func (o *WireOrderer) advance(now time.Time) {
	if !o.started {
		o.epoch, o.started = now, true
	}
	t := o.eng.Now()
	if !now.Equal(o.last) {
		o.last, t = now, max(t, units.Time(now.Sub(o.epoch)))
	}
	if armed := o.eng.Stats().Scheduled; t == o.eng.Now() {
		if armed == o.armed {
			return
		}
		if at, ok := o.eng.PeekTime(); !ok || at > t {
			o.armed = armed
			return
		}
	}
	o.eng.Run(t)
	o.armed = o.eng.Stats().Scheduled
}

// take hands this call's releases to the caller, who keeps them.
func (o *WireOrderer) take() (out []WireSegment) {
	if len(o.out) > 0 {
		out, o.out = o.out, nil
	}
	return out
}

// Receive processes one arriving segment and returns the segments that are
// now deliverable in flow order.
func (o *WireOrderer) Receive(now time.Time, seg WireSegment) []WireSegment {
	o.advance(now)
	n := len(o.out) // seg's place if released at once: the Orderer releases it first
	if o.out == nil {
		o.out = []WireSegment{seg}
	} else {
		o.out = append(o.out, seg)
	}
	p := o.pool.Get()
	p.ID, p.Kind, p.Marked = receiving, packet.Data, true
	p.Flow, p.Info, p.PayloadLen, p.Fin = seg.Key, seg.Info, seg.Len, seg.Last
	held := o.Held
	o.curOut = false
	o.Orderer.Receive(p)
	if !o.curOut {
		o.out[n], o.out = WireSegment{}, o.out[:n]
		switch k := len(o.vacant); {
		case o.Held == held: // a duplicate of a held segment, dropped
			o.pool.Put(p)
		case k > 0: // held: parked under its carrier
			p.ID, o.vacant = o.vacant[k-1], o.vacant[:k-1]
			o.held[p.ID] = seg
		default:
			p.ID, o.held = uint64(len(o.held)), append(o.held, seg)
		}
	}
	return o.take()
}

// NextDeadline returns the earliest pending ordering deadline, if any.
func (o *WireOrderer) NextDeadline() (dl time.Time, ok bool) {
	if at, ok := o.eng.PeekTime(); ok {
		return o.epoch.Add(at.Duration()), true
	}
	return dl, false
}

// Expire releases, for each flow whose deadline has passed, held segments up
// to the next gap (the transport sees it and recovers), and reclaims expired
// tombstones.
func (o *WireOrderer) Expire(now time.Time) []WireSegment {
	o.advance(now)
	return o.take()
}
