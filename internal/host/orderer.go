package host

import (
	"vertigo/internal/flowtab"
	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/units"
)

// OrdererConfig parameterizes the RX-path ordering component.
type OrdererConfig struct {
	// Timeout is τ, the maximum time to hold early packets while waiting for
	// a delayed (deflected) packet (paper default 360 µs).
	Timeout units.Time
	// Discipline must match the sender's marking discipline: it determines
	// whether the position value decreases (SRPT) or increases (LAS) along
	// the flow.
	Discipline Discipline
	// BoostFactorLog2 must match the marker's, so boosted RFS values can be
	// reverted with retcnt inverse rotations.
	BoostFactorLog2 uint
}

// DefaultOrdererConfig returns the paper's default ordering settings.
func DefaultOrdererConfig() OrdererConfig {
	return OrdererConfig{Timeout: 360 * units.Microsecond, Discipline: SRPT, BoostFactorLog2: 1}
}

// orderFlow is the per-flow state of the Fig. 4 state machine. The three
// paper states map onto the fields: Init ⇔ no state, In-order Receive ⇔
// empty buffer, Out-of-order Receive ⇔ non-empty buffer (timer armed).
//
// Entries live in the directory's flow table and are recycled, across
// hosts: newFlow resets the semantic fields while the buffer keeps its
// backing arrays. A slot's timers carry its table ref as their argument (see
// directory.onTimeout), so the slot itself holds no callback.
//
// The reorder buffer is struct-of-arrays: held packet i of the live window
// [head, len) is (bufP[i], bufV[i], bufAt[i]). Splitting the former
// 24-byte entry struct keeps the position values bufferEarly binary-searches
// densely packed — sixteen uint32 per cache line instead of two entries —
// and lets each array recycle through the directory's arenas independently
// when a burst-grown flow quiesces.
type orderFlow struct {
	hasExpected bool
	finished    bool   // flow fully delivered; state lingers as a tombstone
	expected    uint32 // position value of the next in-order packet
	slot        int32  // this entry's flow-table ref, the timers' argument
	finishedAt  units.Time
	head        int              // index of the first live entry
	bufP        []*packet.Packet // held packets, flow order
	bufV        []uint32         // their un-boosted position values
	bufAt       []units.Time     // their arrival times (timer deadlines)
	timer       sim.Timer
}

// Orderer is the RX-path ordering component: the first software entity to
// see packets off the NIC. It detects out-of-order (deflected) packets,
// buffers them up to τ, and releases a correctly ordered stream to the
// transport, which therefore never observes deflection-induced reordering
// unless a packet was truly lost (§3.3). Not safe for concurrent use.
type Orderer struct {
	eng     *sim.Engine
	cfg     OrdererConfig
	deliver func(*packet.Packet)
	// dir holds the ordering state of every host of the simulation — the
	// table flows is this host's key space in, the timer handlers, the
	// reorder buffers' arenas.
	dir    *directory
	flows  flowtab.View[orderFlow]
	active int                // flows with ordering state
	met    *metrics.Collector // optional aggregate telemetry

	// Telemetry.
	Held     int64 // packets buffered at least once
	Timeouts int64 // τ expirations
	Releases int64 // packets released by a timeout (ahead of a gap)
}

// NewOrderer returns an ordering component on its own, delivering in-order
// packets via the deliver callback.
func NewOrderer(eng *sim.Engine, cfg OrdererConfig, deliver func(*packet.Packet)) *Orderer {
	return newOrderer(eng, cfg, deliver, newDirectory(), 0)
}

// newOrderer returns the ordering component of dir's host owner.
func newOrderer(eng *sim.Engine, cfg OrdererConfig, deliver func(*packet.Packet), dir *directory, owner uint32) *Orderer {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultOrdererConfig().Timeout
	}
	o := &Orderer{eng: eng, cfg: cfg, deliver: deliver, dir: dir, flows: dir.orders.View(owner)}
	for int(owner) >= len(dir.orderers) {
		dir.orderers = append(dir.orderers, nil)
	}
	dir.orderers[owner] = o
	return o
}

// SetCollector mirrors the orderer's telemetry into a metrics collector.
func (o *Orderer) SetCollector(met *metrics.Collector) { o.met = met }

// ActiveFlows returns the number of flows with ordering state.
func (o *Orderer) ActiveFlows() int { return o.active }

// forget drops flow's ordering state.
func (o *Orderer) forget(flow uint64) {
	o.flows.Delete(flow)
	o.active--
}

// position returns the packet's un-boosted position value.
func (o *Orderer) position(p *packet.Packet) uint32 {
	return packet.UnboostRFS(p.Info.RFS, p.Info.RetCnt, o.cfg.BoostFactorLog2)
}

// before reports whether position a precedes position b in flow order:
// under SRPT the remaining size shrinks along the flow, under LAS the age
// grows.
func (o *Orderer) before(a, b uint32) bool {
	if o.cfg.Discipline == SRPT {
		return a > b
	}
	return a < b
}

// next returns the expected position after delivering p at position v.
func (o *Orderer) next(v uint32, p *packet.Packet) uint32 {
	if o.cfg.Discipline == SRPT {
		return v - uint32(p.PayloadLen)
	}
	return v + 1
}

// done reports whether delivering p (making nextExpected current) ends the
// flow: under SRPT the expected remaining size reaches zero; under LAS the
// FIN-marked packet has been delivered.
func (o *Orderer) done(nextExpected uint32, p *packet.Packet) bool {
	if o.cfg.Discipline == SRPT {
		return nextExpected == 0
	}
	return p.Fin
}

// newFlow creates ordering state for a first-seen flow, recycling a slab
// slot (and its buffer backing) when one is free.
func (o *Orderer) newFlow(p *packet.Packet, v uint32) *orderFlow {
	st, _ := o.flows.PutReuse(p.Flow)
	o.active++
	st.hasExpected = false
	st.finished = false
	st.expected = 0
	st.slot = o.flows.Ref(p.Flow)
	st.finishedAt = 0
	st.head = 0
	st.bufP = st.bufP[:0]
	st.bufV = st.bufV[:0]
	st.bufAt = st.bufAt[:0]
	st.timer = sim.Timer{}
	if p.Info.First {
		st.hasExpected = true
		st.expected = v
	}
	// A flow whose first-seen packet is not flagged First started with
	// reordering; we buffer until the First packet or a timeout reveals
	// where to start.
	return st
}

// Receive processes one marked data packet.
func (o *Orderer) Receive(p *packet.Packet) {
	v := o.position(p)
	st := o.flows.Get(p.Flow)
	if st == nil {
		st = o.newFlow(p, v)
	}

	switch {
	case st.finished:
		// Tombstone: the flow is fully delivered, so anything arriving now is
		// a straggling duplicate or retransmission. Forward it immediately;
		// the transport deduplicates (paper §3.3.2 case 3).
		o.deliver(p)
	case st.hasExpected && v == st.expected:
		o.deliverRun(st, p, v)
	case !st.hasExpected && p.Info.First:
		st.hasExpected = true
		st.expected = v
		o.deliverRun(st, p, v)
	case st.hasExpected && o.before(v, st.expected):
		// Position already passed: a delayed retransmission or duplicate
		// (paper case 3). Hand it straight up; the transport deduplicates.
		o.deliver(p)
	default:
		o.bufferEarly(st, p, v)
	}
}

// buffered returns the number of held packets.
func (st *orderFlow) buffered() int { return len(st.bufV) - st.head }

// keepBuf is the largest reorder-buffer capacity a quiesced slot keeps for
// its next flow; burst-grown arrays past it go back to the shared arenas.
const keepBuf = 1024

// clearBuf empties the reorder buffer, dropping packet references. Modestly
// sized backing arrays stay with the slot for its next flow; burst-grown
// ones return to the directory's arenas instead of pinning the slot.
func (o *Orderer) clearBuf(st *orderFlow) {
	for i := st.head; i < len(st.bufP); i++ {
		st.bufP[i] = nil
	}
	if cap(st.bufV) > keepBuf {
		o.dir.bufP.Put(st.bufP)
		o.dir.bufV.Put(st.bufV)
		o.dir.bufAt.Put(st.bufAt)
		st.bufP, st.bufV, st.bufAt = nil, nil, nil
	} else {
		st.bufP = st.bufP[:0]
		st.bufV = st.bufV[:0]
		st.bufAt = st.bufAt[:0]
	}
	st.head = 0
}

// winLen is the capacity of a slot's first reorder buffer. RFS-sorted queues
// let a flow's later packets overtake its earlier ones wherever a queue
// builds, so nearly every flow buffers a packet or two and nearly every slot
// needs a buffer, if a small one: arrays this size the arenas carve from a
// chunk that serves hundreds of slots.
const winLen = 8

// growBuf widens a full reorder buffer — to a window for a slot that has
// none yet, else to twice its size — through the directory's arenas, which
// take the outgrown arrays back.
func (o *Orderer) growBuf(st *orderFlow) {
	st.bufP = o.dir.bufP.Grow(st.bufP, winLen)
	st.bufV = o.dir.bufV.Grow(st.bufV, winLen)
	st.bufAt = o.dir.bufAt.Grow(st.bufAt, winLen)
}

// bufCap is the capacity usable across all three parallel arrays.
func (st *orderFlow) bufCap() int {
	c := cap(st.bufP)
	if cv := cap(st.bufV); cv < c {
		c = cv
	}
	if ct := cap(st.bufAt); ct < c {
		c = ct
	}
	return c
}

// deliverRun delivers p, then drains every buffered packet that has become
// consecutive. It finishes or re-arms the flow's timer as appropriate.
func (o *Orderer) deliverRun(st *orderFlow, p *packet.Packet, v uint32) {
	o.deliver(p)
	st.expected = o.next(v, p)
	finished := o.done(st.expected, p)
	for st.head < len(st.bufV) && st.bufV[st.head] == st.expected {
		ep, ev := st.bufP[st.head], st.bufV[st.head]
		st.bufP[st.head] = nil
		st.head++
		o.deliver(ep)
		st.expected = o.next(ev, ep)
		finished = o.done(st.expected, ep)
	}
	if st.head == len(st.bufV) {
		st.bufP = st.bufP[:0]
		st.bufV = st.bufV[:0]
		st.bufAt = st.bufAt[:0]
		st.head = 0
	}
	if finished && st.buffered() == 0 {
		o.finish(st)
		return
	}
	o.rearm(st)
}

// finish marks a flow fully delivered. The state lingers as a tombstone for
// one τ so that straggling duplicates (e.g. a retransmission that crossed
// paths with the original) pass straight through instead of being buffered,
// then is reclaimed.
func (o *Orderer) finish(st *orderFlow) {
	st.timer.Cancel()
	st.timer = sim.Timer{}
	st.finished = true
	st.finishedAt = o.eng.Now()
	o.clearBuf(st)
	o.eng.AfterArg(o.cfg.Timeout, o.dir.onReclaim, uint64(st.slot))
}

// reclaim removes a tombstone a full τ after it finished; a reclaim event
// resolves its slot to the flow occupying it now (see directory.onReclaim).
// The age check stands in for a pointer-identity test: while the tombstone
// exists, Receive never recreates state for the flow, so a younger
// finishedAt on this slot always means a *newer* finish event is due.
func (o *Orderer) reclaim(flow uint64, st *orderFlow) {
	if st.finished && o.eng.Now() >= st.finishedAt+o.cfg.Timeout {
		o.forget(flow)
	}
}

// bufferEarly inserts an early packet into the flow-ordered buffer,
// discarding duplicates, and arms the timer.
func (o *Orderer) bufferEarly(st *orderFlow, p *packet.Packet, v uint32) {
	// Inlined sort.Search over the live window [head, len): first index
	// whose position does not precede v. Touches only the packed position
	// array — the struct-of-arrays payoff.
	lo, hi := st.head, len(st.bufV)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.before(st.bufV[mid], v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(st.bufV) && st.bufV[lo] == v {
		return // duplicate of an already-buffered packet
	}
	now := o.eng.Now()
	if lo == st.head && st.head > 0 {
		// New head-of-buffer: reuse the slack in front.
		st.head--
		st.bufP[st.head] = p
		st.bufV[st.head] = v
		st.bufAt[st.head] = now
	} else {
		if len(st.bufV) == st.bufCap() {
			o.growBuf(st)
		}
		st.bufP = append(st.bufP, nil)
		st.bufV = append(st.bufV, 0)
		st.bufAt = append(st.bufAt, 0)
		copy(st.bufP[lo+1:], st.bufP[lo:])
		copy(st.bufV[lo+1:], st.bufV[lo:])
		copy(st.bufAt[lo+1:], st.bufAt[lo:])
		st.bufP[lo] = p
		st.bufV[lo] = v
		st.bufAt[lo] = now
	}
	o.Held++
	if o.met != nil {
		o.met.OrderingHeld++
	}
	if !st.timer.Pending() {
		o.armAt(st, st.bufAt[st.head]+o.cfg.Timeout)
	}
}

// debugTimeout, when set by tests, observes every ordering timeout.
var debugTimeout func(flow uint64, hasExp bool, expected, headV uint32, buflen int, now units.Time)

// rearm resets the timer to the head-of-buffer arrival plus τ (paper §3.3.2
// event 2), or disarms it when nothing is buffered.
func (o *Orderer) rearm(st *orderFlow) {
	st.timer.Cancel()
	st.timer = sim.Timer{}
	if st.buffered() > 0 {
		o.armAt(st, st.bufAt[st.head]+o.cfg.Timeout)
	}
}

func (o *Orderer) armAt(st *orderFlow, at units.Time) {
	if at < o.eng.Now() {
		at = o.eng.Now()
	}
	st.timer = o.eng.AtArg(at, o.dir.onTimeout, uint64(st.slot))
}

// timeout releases buffered packets up to the next gap (paper §3.3.2 event
// 4): the transport now sees the gap and can run its own loss recovery. The
// timer event resolves its slot back to the flow (see directory.onTimeout);
// a fired timer's state always still exists, since every path that deletes
// ordering state cancels or has observed the timer first.
func (o *Orderer) timeout(flow uint64, st *orderFlow) {
	st.timer = sim.Timer{}
	if st.buffered() == 0 {
		// Nothing held (state was idle): drop stale flow state.
		if !st.hasExpected {
			o.forget(flow)
		}
		return
	}
	o.Timeouts++
	if o.met != nil {
		o.met.OrderTimeout++
	}
	if debugTimeout != nil {
		debugTimeout(flow, st.hasExpected, st.expected, st.bufV[st.head], st.buffered(), o.eng.Now())
	}
	// Skip the gap: the next packet in flow order becomes the new expected.
	ep, ev := st.bufP[st.head], st.bufV[st.head]
	st.bufP[st.head] = nil
	st.head++
	if st.head == len(st.bufV) {
		st.bufP = st.bufP[:0]
		st.bufV = st.bufV[:0]
		st.bufAt = st.bufAt[:0]
		st.head = 0
	}
	st.hasExpected = true
	st.expected = ev
	o.Releases++
	o.deliverRun(st, ep, ev)
}
