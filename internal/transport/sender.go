package transport

import (
	"math"

	"vertigo/internal/host"
	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/units"
)

// FlowSpec describes one flow to transmit.
type FlowSpec struct {
	ID       uint64
	Src, Dst int
	Size     int64
	Incast   bool
	Query    int // owning incast query, or -1
}

// Sender is the transmit side of one connection. It is ACK-clocked; Swift
// additionally paces transmissions, which is what lets its congestion window
// drop below one packet under extreme incast (paper §4.2).
//
// Senders live in SenderPool slabs: the hot per-ACK state (sequence,
// congestion, RTT fields below) is grouped at the front of the struct so the
// ACK path touches a contiguous prefix of the slot, the config block is
// shared via pointer rather than copied per flow, the RTO and pacing
// timers name the slot by number (see SenderPool.onRTO), and the host's flow
// registry holds the slot itself (Sender is a host.Handler), so a slot
// carries no callback of its own.
type Sender struct {
	// Hot state, touched on every ACK.
	//
	// Sequence state (bytes). Retransmissions pending are exactly the range
	// [rtxNext, retxUntil); an RTO widens it to the whole outstanding window.
	sndUna    int64 // oldest unacknowledged byte
	nextSeq   int64 // next never-sent byte
	rtxNext   int64 // next byte to retransmit
	retxUntil int64 // end of the pending retransmission range

	// Congestion state.
	cwnd       float64
	ssthresh   float64
	dupAcks    int
	pipe       int // estimate of packets in flight (RFC 6675 spirit)
	inRecovery bool
	done       bool
	recoverSeq int64

	// RTT estimation and RTO.
	srtt, rttvar units.Time
	rto          units.Time
	rtoTimer     sim.Timer
	backoff      int

	// DCTCP.
	alpha       float64
	bytesAcked  int64
	bytesMarked int64
	windowEnd   int64

	// Swift.
	lastDecrease units.Time
	pacingTimer  sim.Timer
	nextSendAt   units.Time
	retxStreak   int // consecutive retransmission events without progress

	// Identity and environment (set per flow, read-mostly).
	h    *host.Host
	eng  *sim.Engine
	met  *metrics.Collector
	cfg  *Config // shared by every sender of a pool
	ids  *packet.IDGen
	pool *packet.Pool
	spec FlowSpec

	sp     *SenderPool // owning pool
	slot   uint32      // this sender's slot number in sp, fixed when the slab is carved
	onDone func()
}

// init resets a slot for a new flow, preserving the slot's number.
func (s *Sender) init(sp *SenderPool, h *host.Host, met *metrics.Collector,
	ids *packet.IDGen, spec FlowSpec, onDone func()) {
	cfg := &sp.cfg
	*s = Sender{
		h:    h,
		eng:  h.Eng,
		met:  met,
		cfg:  cfg,
		ids:  ids,
		pool: h.Pool(),
		spec: spec,
		sp:   sp,
		slot: s.slot,
		cwnd: cfg.InitWindow,
		// Effectively unbounded until the first loss event.
		ssthresh: math.MaxFloat64,
		rto:      cfg.InitRTO,
		onDone:   onDone,
	}
	if cfg.Protocol == Swift {
		s.cwnd = math.Min(cfg.InitWindow, cfg.Swift.MaxCwnd)
	}
}

// Start registers the flow and transmits the initial window.
func (s *Sender) Start() {
	cls := metrics.Background
	if s.spec.Incast {
		cls = metrics.Incast
	}
	s.met.StartFlow(metrics.FlowRecord{
		ID:    s.spec.ID,
		Class: cls,
		Src:   s.spec.Src,
		Dst:   s.spec.Dst,
		Size:  s.spec.Size,
		Start: s.eng.Now(),
		Query: s.spec.Query,
	})
	if s.h.Marker != nil {
		s.h.Marker.StartFlow(s.spec.ID, s.spec.Dst, s.spec.Size)
	}
	s.h.Bind(s.spec.ID, s)
	s.trySend()
}

// Done reports whether the flow is fully acknowledged.
func (s *Sender) Done() bool { return s.done }

// Cwnd returns the current congestion window in packets (for tests).
func (s *Sender) Cwnd() float64 { return s.cwnd }

// inflightPkts estimates the number of segments currently in the network.
// Unlike the raw sequence range nextSeq-sndUna, the pipe drains on duplicate
// ACKs and collapses to zero on an RTO, so the window check can admit
// retransmissions after losses (otherwise a post-RTO cwnd of 1 could never
// send into a 10-segment outstanding range: deadlock).
func (s *Sender) inflightPkts() int {
	return s.pipe
}

// segAt returns the segment starting at seq.
func (s *Sender) segAt(seq int64) (payload int, fin bool) {
	n := s.spec.Size - seq
	if n > packet.MSS {
		return packet.MSS, false
	}
	return int(n), true
}

// windowAllows reports whether congestion control admits one more segment.
func (s *Sender) windowAllows() bool {
	inflight := s.inflightPkts()
	if s.cfg.Protocol == Swift {
		if s.cwnd < 1 {
			// Fractional window: pacing gate only, one packet at a time.
			return inflight < 1
		}
		return float64(inflight) < math.Max(1, s.cwnd)
	}
	return inflight < int(math.Max(1, math.Floor(s.cwnd)))
}

// paceGate returns true when pacing admits a send now, otherwise arms the
// pacing timer and returns false. Non-Swift protocols are never paced.
func (s *Sender) paceGate() bool {
	if s.cfg.Protocol != Swift {
		return true
	}
	now := s.eng.Now()
	if now >= s.nextSendAt {
		return true
	}
	if !s.pacingTimer.Pending() {
		s.pacingTimer = s.eng.AtArg(s.nextSendAt, s.sp.trySend, uint64(s.slot))
	}
	return false
}

// pacingDelay is the post-send gap Swift imposes: rtt/cwnd when cwnd < 1
// (i.e. cwnd=0.5 sends every 2 RTTs), negligible otherwise.
func (s *Sender) pacingDelay() units.Time {
	if s.cwnd >= 1 {
		return 0
	}
	rtt := s.srtt
	if rtt == 0 {
		rtt = 25 * units.Microsecond
	}
	return units.Time(float64(rtt) / s.cwnd)
}

// trySend transmits as many segments as the window and pacer admit.
func (s *Sender) trySend() {
	if s.done {
		return
	}
	for {
		if s.rtxNext < s.sndUna {
			s.rtxNext = s.sndUna // acked in the meantime: skip
		}
		var seq int64
		var retx bool
		switch {
		case s.rtxNext < s.retxUntil:
			seq, retx = s.rtxNext, true
		case s.nextSeq < s.spec.Size:
			seq = s.nextSeq
		default:
			return // nothing left to send
		}
		if !s.windowAllows() || !s.paceGate() {
			return
		}
		payload, fin := s.segAt(seq)
		s.transmit(seq, payload, fin, retx)
		if retx {
			s.rtxNext = seq + int64(payload)
		} else {
			s.nextSeq = seq + int64(payload)
		}
	}
}

func (s *Sender) transmit(seq int64, payload int, fin, retx bool) {
	now := s.eng.Now()
	p := s.pool.Get()
	*p = packet.Packet{
		ID:         s.ids.Next(),
		Kind:       packet.Data,
		Src:        s.spec.Src,
		Dst:        s.spec.Dst,
		Flow:       s.spec.ID,
		Seq:        seq,
		PayloadLen: payload,
		FlowSize:   s.spec.Size,
		Fin:        fin,
		Retx:       retx,
		Incast:     s.spec.Incast,
		ECNCapable: s.cfg.Protocol == DCTCP,
		SentAt:     now,
		TxAt:       now,
	}
	if retx {
		s.met.Retransmits++
	}
	s.pipe++
	s.h.Send(p)
	if s.cfg.Protocol == Swift {
		s.nextSendAt = now + s.pacingDelay()
	}
	if !s.rtoTimer.Pending() {
		s.armRTO()
	}
}

func (s *Sender) armRTO() {
	s.rtoTimer.Cancel()
	s.rtoTimer = s.eng.AfterArg(s.rto, s.sp.onRTO, uint64(s.slot))
}

// onRTO handles a retransmission timeout: collapse the window, back off the
// timer, and go back to the oldest unacknowledged segment.
func (s *Sender) onRTO() {
	if s.done {
		return
	}
	s.met.RTOs++
	if debugRTO != nil {
		debugRTO(s.spec.ID, s.sndUna, s.nextSeq, s.eng.Now(), s.rto, s.dupAcks)
	}
	flight := math.Max(float64(s.inflightPkts()), 1)
	s.ssthresh = math.Max(flight/2, 2)
	if s.cfg.Protocol == Swift {
		s.retxStreak++
		if th := s.cfg.Swift.RetxResetThreshold; th > 0 && s.retxStreak >= th {
			// Swift Alg. 1: persistent retransmission means the path is
			// gone or hopeless; collapse to the minimum window.
			s.cwnd = s.cfg.Swift.MinCwnd
		} else {
			s.cwnd = math.Max(s.cfg.Swift.RetxResetCwnd, s.cfg.Swift.MinCwnd)
		}
	} else {
		s.cwnd = 1
	}
	s.dupAcks = 0
	s.inRecovery = false
	s.pipe = 0 // everything outstanding is presumed lost
	s.rtxNext = s.sndUna
	s.retxUntil = s.nextSeq // go-back-N over the outstanding window
	s.backoff++
	s.rto *= 2
	if s.rto > s.cfg.MaxRTO {
		s.rto = s.cfg.MaxRTO
	}
	s.armRTO()
	s.trySend()
}

// debugRTO, when set by tests, observes every retransmission timeout.
var debugRTO func(flow uint64, sndUna, nextSeq int64, now units.Time, rto units.Time, dupAcks int)

// Handle consumes one acknowledgment (host.Handler): the sender is the
// packet's final owner, so the frame is recycled after processing. If the ACK
// completed the flow, the slot goes back to its pool — complete() has already
// unbound the flow, so nothing can reach this sender again.
func (s *Sender) Handle(p *packet.Packet) {
	s.handleAck(p)
	s.pool.Put(p)
	if s.done {
		s.sp.put(s)
	}
}

// handleAck processes one cumulative acknowledgment.
func (s *Sender) handleAck(p *packet.Packet) {
	if s.done || p.Kind != packet.Ack {
		return
	}
	now := s.eng.Now()

	if p.AckSeq > s.sndUna {
		ackedBytes := p.AckSeq - s.sndUna
		s.pipe -= int((ackedBytes + packet.MSS - 1) / packet.MSS)
		if s.pipe < 0 {
			s.pipe = 0
		}
		s.retxStreak = 0 // forward progress
		s.sndUna = p.AckSeq
		if s.rtxNext < s.sndUna {
			s.rtxNext = s.sndUna
		}
		s.dupAcks = 0
		if p.EchoTx > 0 {
			s.sampleRTT(now - p.EchoTx)
		}
		s.updateCwnd(p, ackedBytes)
		if s.inRecovery {
			if s.sndUna >= s.recoverSeq {
				s.inRecovery = false
				s.cwnd = math.Max(s.ssthresh, 1)
			} else {
				// NewReno partial ACK: retransmit the next hole immediately.
				payload, fin := s.segAt(s.sndUna)
				s.transmit(s.sndUna, payload, fin, true)
			}
		}
		if s.sndUna >= s.spec.Size {
			s.complete()
			return
		}
		s.armRTO()
	} else if p.AckSeq == s.sndUna && s.sndUna < s.nextSeq {
		s.dupAcks++
		if s.pipe > 0 {
			s.pipe-- // a duplicate ACK means one segment left the network
		}
		if s.cfg.FastRetransmit && !s.inRecovery && s.dupAcks == s.cfg.DupAckThreshold {
			s.fastRetransmit()
		}
	}
	s.trySend()
}

// fastRetransmit resends the segment at sndUna and halves the window
// (Swift applies its MaxMDF decrease instead).
func (s *Sender) fastRetransmit() {
	s.met.FastRetx++
	s.inRecovery = true
	s.recoverSeq = s.nextSeq
	flight := math.Max(float64(s.inflightPkts()), 1)
	switch s.cfg.Protocol {
	case Swift:
		s.retxStreak++
		if th := s.cfg.Swift.RetxResetThreshold; th > 0 && s.retxStreak >= th {
			s.cwnd = s.cfg.Swift.MinCwnd
		} else {
			s.cwnd = math.Max(s.cwnd*(1-s.cfg.Swift.MaxMDF), s.cfg.Swift.MinCwnd)
		}
	case DCTCP:
		// DCTCP reacts to loss like Reno (Alizadeh et al. §3.3).
		s.ssthresh = math.Max(flight/2, 2)
		s.cwnd = s.ssthresh
	default:
		s.ssthresh = math.Max(flight/2, 2)
		s.cwnd = s.ssthresh
	}
	payload, fin := s.segAt(s.sndUna)
	s.transmit(s.sndUna, payload, fin, true)
}

func (s *Sender) sampleRTT(rtt units.Time) {
	if rtt <= 0 {
		return
	}
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		d := s.srtt - rtt
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.backoff = 0
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.cfg.MinRTO {
		s.rto = s.cfg.MinRTO
	}
	if s.rto > s.cfg.MaxRTO {
		s.rto = s.cfg.MaxRTO
	}
}

// updateCwnd applies per-protocol growth/decrease for newly acked bytes.
func (s *Sender) updateCwnd(p *packet.Packet, ackedBytes int64) {
	switch s.cfg.Protocol {
	case Reno:
		s.grow()
	case DCTCP:
		s.bytesAcked += ackedBytes
		if p.ECE {
			s.bytesMarked += ackedBytes
		}
		if s.sndUna >= s.windowEnd {
			// One window's worth of feedback: update alpha, cut if marked.
			f := 0.0
			if s.bytesAcked > 0 {
				f = float64(s.bytesMarked) / float64(s.bytesAcked)
			}
			s.alpha = (1-s.cfg.DCTCPGain)*s.alpha + s.cfg.DCTCPGain*f
			if s.bytesMarked > 0 {
				s.cwnd = math.Max(s.cwnd*(1-s.alpha/2), 1)
			}
			s.bytesAcked, s.bytesMarked = 0, 0
			s.windowEnd = s.nextSeq
		}
		s.grow()
	case Swift:
		s.updateSwift(p)
	}
}

// grow is Reno growth: slow start below ssthresh, else congestion
// avoidance, capped by the receive window.
func (s *Sender) grow() {
	if s.inRecovery {
		return
	}
	if s.cwnd < s.ssthresh {
		s.cwnd++
	} else {
		s.cwnd += 1 / s.cwnd
	}
	if s.cfg.MaxWindow > 0 && s.cwnd > s.cfg.MaxWindow {
		s.cwnd = s.cfg.MaxWindow
	}
}

// updateSwift applies Swift's target-delay AIMD (SIGCOMM'20 Algorithm 1).
func (s *Sender) updateSwift(p *packet.Packet) {
	if p.EchoTx == 0 {
		return
	}
	now := s.eng.Now()
	// Fabric delay only: NIC timestamps exclude receiver processing time
	// (notably the ordering layer's hold), as hardware-timestamped Swift
	// does in deployment.
	delay := now - p.EchoTx - p.EchoProc
	target := s.swiftTarget(p.EchoHops)
	sp := s.cfg.Swift
	if delay < target {
		if s.cwnd >= 1 {
			s.cwnd += sp.AI / s.cwnd
		} else {
			s.cwnd += sp.AI * s.cwnd // proportional creep back toward 1
		}
	} else if s.canDecrease(now) {
		f := 1 - sp.Beta*float64(delay-target)/float64(delay)
		if min := 1 - sp.MaxMDF; f < min {
			f = min
		}
		s.cwnd *= f
		s.lastDecrease = now
	}
	s.clampSwift()
}

func (s *Sender) swiftTarget(hops int) units.Time {
	sp := s.cfg.Swift
	t := sp.BaseTarget + units.Time(hops)*sp.PerHopScale
	// Flow scaling: smaller windows tolerate proportionally more delay, so
	// large incasts stabilize instead of oscillating (Swift §3.2).
	if s.cwnd < sp.MaxCwnd {
		den := 1/math.Sqrt(sp.FSMinCwnd) - 1/math.Sqrt(sp.MaxCwnd)
		if den > 0 {
			num := 1/math.Sqrt(math.Max(s.cwnd, sp.FSMinCwnd)) - 1/math.Sqrt(sp.MaxCwnd)
			fs := units.Time(float64(sp.FSRange) * math.Min(math.Max(num/den, 0), 1))
			t += fs
		}
	}
	return t
}

func (s *Sender) canDecrease(now units.Time) bool {
	rtt := s.srtt
	if rtt == 0 {
		rtt = 25 * units.Microsecond
	}
	return now-s.lastDecrease >= rtt
}

func (s *Sender) clampSwift() {
	sp := s.cfg.Swift
	if s.cwnd < sp.MinCwnd {
		s.cwnd = sp.MinCwnd
	}
	if s.cwnd > sp.MaxCwnd {
		s.cwnd = sp.MaxCwnd
	}
}

func (s *Sender) complete() {
	s.done = true
	s.rtoTimer.Cancel()
	s.pacingTimer.Cancel()
	s.h.Unbind(s.spec.ID)
	if s.h.Marker != nil {
		s.h.Marker.EndFlow(s.spec.ID)
	}
	if s.onDone != nil {
		s.onDone()
	}
}
