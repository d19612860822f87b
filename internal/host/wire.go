package host

import (
	"errors"
	"fmt"
	"time"

	"vertigo/internal/cuckoo"
	"vertigo/internal/flowtab"
	"vertigo/internal/packet"
)

// This file contains the deployable, wall-clock variants of the marking and
// ordering components: they operate on real byte frames and caller-supplied
// timestamps (sans-IO), so they can sit in a userspace network stack the way
// the paper's DPDK prototype does (§4.4). The simulator twins (Marker,
// Orderer) share the same algorithms over simulated packets — and the same
// flowtab flow tables, which is where the DPDK prototype spends its
// engineering effort too (§4.4: flow-table lookups dominate per-packet cost).

// Wire errors.
var (
	ErrUnknownFlow = errors.New("host: unknown flow")
	ErrBadSegment  = errors.New("host: segment outside flow bounds")
)

// WireMarker is the TX-path marking component for real frames. Flows are
// identified by a caller-chosen 64-bit key (e.g. a 5-tuple hash); segments
// by their byte offset within the flow.
//
// Not safe for concurrent use: wrap it per TX queue, as a DPDK app would.
type WireMarker struct {
	cfg    MarkerConfig
	flows  *flowtab.Table[wireFlow]
	filter *cuckoo.Filter
	nextID uint8
}

type wireFlow struct {
	size int64
	hi   int64 // highest first-transmitted offset; -1 before any
	retx flowtab.PagedU8
	// flowID is the 3-bit epoch stamped into flowinfo headers.
	flowID uint8
}

// NewWireMarker returns a marking component for wire frames.
func NewWireMarker(cfg MarkerConfig) *WireMarker {
	capHint := cfg.FilterCapacity
	if capHint <= 0 {
		capHint = 1 << 16
	}
	return &WireMarker{
		cfg:    cfg,
		flows:  flowtab.New[wireFlow](64),
		filter: cuckoo.New(capHint),
	}
}

// StartFlow registers an outgoing flow of totalBytes under key.
func (m *WireMarker) StartFlow(key uint64, totalBytes int64) {
	id := m.nextID
	m.nextID = (m.nextID + 1) % (1 << packet.FlowIDBits)
	f, _ := m.flows.PutReuse(key)
	f.size = totalBytes
	f.hi = -1
	f.flowID = id
	f.retx.Reset()
}

// EndFlow drops the flow table entry and its filter signatures. The filter
// walk covers only segments actually marked — bounded by the per-flow
// high-water offset, not the flow's nominal size — so tearing down a huge
// flow that barely transmitted is cheap, and signatures of never-marked
// segments are not speculatively deleted (a speculative Delete can evict a
// colliding fingerprint some other flow still needs).
func (m *WireMarker) EndFlow(key uint64) {
	f := m.flows.Get(key)
	if f == nil {
		return
	}
	for seq := int64(0); seq <= f.hi; seq += packet.MSS {
		m.filter.Delete(sig(key, seq))
	}
	if f.size == 0 && f.hi < 0 {
		m.filter.Delete(sig(key, 0))
	}
	f.retx.Reset()
	m.flows.Delete(key)
}

// ActiveFlows returns the number of tracked flows.
func (m *WireMarker) ActiveFlows() int { return m.flows.Len() }

// Mark computes the flowinfo for the segment [offset, offset+n) of the flow
// under key, applying retransmission boosting, and writes the shim-header
// encoding into hdr (which needs packet.ShimHeaderLen bytes).
// innerEtherType is the encapsulated protocol (0x0800 for IPv4).
func (m *WireMarker) Mark(key uint64, offset int64, n int, hdr []byte, innerEtherType uint16) (packet.FlowInfo, error) {
	f := m.flows.Get(key)
	if f == nil {
		return packet.FlowInfo{}, fmt.Errorf("%w: %d", ErrUnknownFlow, key)
	}
	if offset < 0 || n <= 0 || offset+int64(n) > f.size {
		return packet.FlowInfo{}, fmt.Errorf("%w: [%d,%d) of %d", ErrBadSegment, offset, offset+int64(n), f.size)
	}

	var base uint32
	var first bool
	switch m.cfg.Discipline {
	case SRPT:
		base = uint32(f.size - offset)
		first = offset == 0
	case LAS:
		base = uint32(offset / packet.MSS)
		first = offset == 0
	}

	key2 := sig(key, offset)
	retcnt := uint8(0)
	if present, _ := m.filter.ContainsOrAdd(key2); present {
		seg := offset / packet.MSS
		c := f.retx.Get(seg)
		if m.cfg.Boosting && c < packet.MaxRetx {
			c++
			f.retx.Set(seg, c)
		}
		retcnt = c
	} else if offset > f.hi {
		f.hi = offset
	}

	rfs := base
	for i := uint8(0); i < retcnt; i++ {
		rfs = packet.BoostRFS(rfs, m.cfg.BoostFactorLog2)
	}
	fi := packet.FlowInfo{RFS: rfs, RetCnt: retcnt, FlowID: f.flowID, First: first}
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
// into any event loop or poll-mode driver.
//
//	ready := o.Receive(time.Now(), seg)
//	deliver(ready...)
//	if dl, ok := o.NextDeadline(); ok { armTimer(dl) }
//	// on timer: deliver(o.Expire(time.Now())...)
type WireOrderer struct {
	cfg   OrdererConfig
	flows *flowtab.Table[wireOrderFlow]

	// Telemetry.
	Held     int64
	Timeouts int64
}

type wireOrderFlow struct {
	hasExpected bool
	finished    bool
	expected    uint32
	finishedAt  time.Time
	head        int
	buf         []wireOOOEntry
	deadline    time.Time // zero when no timer armed
}

type wireOOOEntry struct {
	seg     WireSegment
	v       uint32
	arrived time.Time
}

// NewWireOrderer returns an ordering component for wire frames.
func NewWireOrderer(cfg OrdererConfig) *WireOrderer {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultOrdererConfig().Timeout
	}
	return &WireOrderer{cfg: cfg, flows: flowtab.New[wireOrderFlow](64)}
}

// ActiveFlows returns the number of flows with ordering state.
func (o *WireOrderer) ActiveFlows() int { return o.flows.Len() }

func (o *WireOrderer) position(seg WireSegment) uint32 {
	return packet.UnboostRFS(seg.Info.RFS, seg.Info.RetCnt, o.cfg.BoostFactorLog2)
}

func (o *WireOrderer) before(a, b uint32) bool {
	if o.cfg.Discipline == SRPT {
		return a > b
	}
	return a < b
}

func (o *WireOrderer) next(v uint32, seg WireSegment) uint32 {
	if o.cfg.Discipline == SRPT {
		return v - uint32(seg.Len)
	}
	return v + 1
}

func (o *WireOrderer) done(nextExpected uint32, seg WireSegment) bool {
	if o.cfg.Discipline == SRPT {
		return nextExpected == 0
	}
	return seg.Last
}

func (st *wireOrderFlow) buffered() int { return len(st.buf) - st.head }

// Receive processes one arriving segment and returns the segments that are
// now deliverable in flow order.
func (o *WireOrderer) Receive(now time.Time, seg WireSegment) []WireSegment {
	v := o.position(seg)
	st := o.flows.Get(seg.Key)
	if st == nil {
		st, _ = o.flows.PutReuse(seg.Key)
		st.hasExpected = false
		st.finished = false
		st.expected = 0
		st.finishedAt = time.Time{}
		st.head = 0
		st.buf = st.buf[:0]
		st.deadline = time.Time{}
		if seg.Info.First {
			st.hasExpected = true
			st.expected = v
		}
	}
	switch {
	case st.finished:
		return []WireSegment{seg} // straggler duplicate: pass through
	case st.hasExpected && v == st.expected:
		return o.deliverRun(now, st, seg, v)
	case !st.hasExpected && seg.Info.First:
		st.hasExpected = true
		st.expected = v
		return o.deliverRun(now, st, seg, v)
	case st.hasExpected && o.before(v, st.expected):
		return []WireSegment{seg} // late retransmission or duplicate
	default:
		o.bufferEarly(now, st, seg, v)
		return nil
	}
}

func (o *WireOrderer) deliverRun(now time.Time, st *wireOrderFlow, seg WireSegment, v uint32) []WireSegment {
	out := []WireSegment{seg}
	st.expected = o.next(v, seg)
	finished := o.done(st.expected, seg)
	for st.head < len(st.buf) && st.buf[st.head].v == st.expected {
		e := st.buf[st.head]
		st.buf[st.head] = wireOOOEntry{}
		st.head++
		out = append(out, e.seg)
		st.expected = o.next(e.v, e.seg)
		finished = o.done(st.expected, e.seg)
	}
	if st.head == len(st.buf) {
		st.buf = st.buf[:0]
		st.head = 0
	}
	switch {
	case finished && st.buffered() == 0:
		st.finished = true
		st.finishedAt = now
		st.deadline = now.Add(o.cfg.Timeout.Duration()) // tombstone linger
	case st.buffered() > 0:
		st.deadline = st.buf[st.head].arrived.Add(o.cfg.Timeout.Duration())
	default:
		st.deadline = time.Time{}
	}
	return out
}

func (o *WireOrderer) bufferEarly(now time.Time, st *wireOrderFlow, seg WireSegment, v uint32) {
	i := st.head
	for i < len(st.buf) && o.before(st.buf[i].v, v) {
		i++
	}
	if i < len(st.buf) && st.buf[i].v == v {
		return // duplicate
	}
	st.buf = append(st.buf, wireOOOEntry{})
	copy(st.buf[i+1:], st.buf[i:])
	st.buf[i] = wireOOOEntry{seg: seg, v: v, arrived: now}
	o.Held++
	if st.deadline.IsZero() {
		st.deadline = st.buf[st.head].arrived.Add(o.cfg.Timeout.Duration())
	}
}

// NextDeadline returns the earliest pending ordering deadline, if any.
func (o *WireOrderer) NextDeadline() (time.Time, bool) {
	var dl time.Time
	o.flows.Range(func(_ uint64, st *wireOrderFlow) bool {
		if !st.deadline.IsZero() && (dl.IsZero() || st.deadline.Before(dl)) {
			dl = st.deadline
		}
		return true
	})
	return dl, !dl.IsZero()
}

// Expire releases everything whose deadline has passed: for each timed-out
// flow, buffered segments up to the next gap (the transport sees the gap and
// runs its own recovery). Expired tombstones are reclaimed. Flows are
// visited in flow-table slab order, so the released sequence is
// deterministic for a given operation history (the old map-backed table
// released timed-out flows in random order).
func (o *WireOrderer) Expire(now time.Time) []WireSegment {
	var out []WireSegment
	o.flows.Range(func(key uint64, st *wireOrderFlow) bool {
		for !st.deadline.IsZero() && !now.Before(st.deadline) {
			if st.finished || st.buffered() == 0 {
				for i := st.head; i < len(st.buf); i++ {
					st.buf[i] = wireOOOEntry{}
				}
				st.buf = st.buf[:0]
				st.head = 0
				o.flows.Delete(key)
				break
			}
			o.Timeouts++
			e := st.buf[st.head]
			st.buf[st.head] = wireOOOEntry{}
			st.head++
			if st.head == len(st.buf) {
				st.buf = st.buf[:0]
				st.head = 0
			}
			st.hasExpected = true
			st.expected = e.v
			out = append(out, o.deliverRun(now, st, e.seg, e.v)...)
		}
		return true
	})
	return out
}
