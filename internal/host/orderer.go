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
// paper states map onto the fields: Init ⇔ no state, In-order Receive ⇔ no
// buffer, Out-of-order Receive ⇔ a buffer (and its timer armed).
//
// Entries live in the directory's flow table and are recycled, across
// hosts. A slot is 24 bytes: what a flow needs in order, and in its afterlife
// as a tombstone, is its expectation and its finish time. The reorder buffer
// and its timer are a separate record the slot holds only while packets wait
// in it (see orderBuf); a slot's timers carry its table ref as their
// argument (see directory.onTimeout), so the slot itself holds no callback.
type orderFlow struct {
	hasExpected bool
	finished    bool   // flow fully delivered; state lingers as a tombstone
	expected    uint32 // position value of the next in-order packet
	slot        int32  // this entry's flow-table ref, the timers' argument
	buf         int32  // one plus the index of the held reorder buffer, 0 for none
	finishedAt  units.Time
}

// orderBuf is one flow's reorder buffer while it holds packets, and the τ
// timer those packets wait on. It is struct-of-arrays: held packet i of the
// live window [head, len) is (bufP[i], bufV[i], bufAt[i]). Splitting the
// former 24-byte entry struct keeps the position values bufferEarly
// binary-searches densely packed — sixteen uint32 per cache line instead of
// two entries — and lets each array recycle through the directory's arenas
// independently when a burst-grown buffer drains. A drained buffer goes
// back to the directory's free list with its modest arrays, warm for the
// next flow that buffers anything.
type orderBuf struct {
	head  int              // index of the first live entry
	bufP  []*packet.Packet // held packets, flow order
	bufV  []uint32         // their un-boosted position values
	bufAt []units.Time     // their arrival times (timer deadlines)
	timer sim.Timer
	next  int32 // on the directory's free list: the record under it
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
	if dir.eng == nil {
		// The first orderer sizes what all of them share, so that a flow's
		// first finish or held packet finds room.
		dir.eng = eng
		dir.reclaims = make([]reclaimEntry, 0, reclaimFirst)
		dir.bufPages = make([]*[bufPage]orderBuf, 0, 4)
	}
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

// newFlow creates ordering state for a first-seen flow.
func (o *Orderer) newFlow(p *packet.Packet, v uint32) *orderFlow {
	st, _ := o.flows.Put(p.Flow)
	o.active++
	st.slot = o.flows.Ref(p.Flow)
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
	if st != nil && st.finished && o.eng.Now() >= st.finishedAt+o.cfg.Timeout {
		// The tombstone expired τ after the finish, whether or not the
		// directory's reclaim has collected it yet: the flow is new again.
		o.forget(p.Flow)
		st = nil
	}
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

// buffered returns the number of packets st's flow holds.
func (o *Orderer) buffered(st *orderFlow) int {
	if st.buf == 0 {
		return 0
	}
	b := o.dir.buf(st.buf)
	return len(b.bufV) - b.head
}

// winLen is the capacity of a buffer record's first arrays. RFS-sorted
// queues let a flow's later packets overtake its earlier ones wherever a
// queue builds, so nearly every flow buffers a packet or two, if briefly:
// arrays this size the arenas carve from a chunk that serves hundreds of
// records.
const winLen = 8

// growBuf widens a full reorder buffer — to a window for a record that has
// none yet, else to twice its size — through the directory's arenas, which
// take the outgrown arrays back.
func (o *Orderer) growBuf(b *orderBuf) {
	b.bufP = o.dir.bufP.Grow(b.bufP, winLen)
	b.bufV = o.dir.bufV.Grow(b.bufV, winLen)
	b.bufAt = o.dir.bufAt.Grow(b.bufAt, winLen)
}

// bufCap is the capacity usable across all three parallel arrays.
func (b *orderBuf) bufCap() int {
	c := cap(b.bufP)
	if cv := cap(b.bufV); cv < c {
		c = cv
	}
	if ct := cap(b.bufAt); ct < c {
		c = ct
	}
	return c
}

// deliverRun delivers p, then drains every buffered packet that has become
// consecutive. A drained buffer goes back to the directory with its timer
// disarmed; one still holding packets has its timer re-armed for the new
// head. A flow delivered to its end with nothing held finishes.
func (o *Orderer) deliverRun(st *orderFlow, p *packet.Packet, v uint32) {
	o.deliver(p)
	st.expected = o.next(v, p)
	finished := o.done(st.expected, p)
	if st.buf != 0 {
		b := o.dir.buf(st.buf)
		for b.head < len(b.bufV) && b.bufV[b.head] == st.expected {
			ep, ev := b.bufP[b.head], b.bufV[b.head]
			b.bufP[b.head] = nil
			b.head++
			o.deliver(ep)
			st.expected = o.next(ev, ep)
			finished = o.done(st.expected, ep)
		}
		b.timer.Cancel()
		b.timer = sim.Timer{}
		if b.head < len(b.bufV) {
			o.armAt(st, b, b.bufAt[b.head]+o.cfg.Timeout)
			return
		}
		o.dir.putBuf(st.buf)
		st.buf = 0
	}
	if finished {
		o.finish(st)
	}
}

// finish marks a flow fully delivered. The state lingers as a tombstone for
// one τ so that straggling duplicates (e.g. a retransmission that crossed
// paths with the original) pass straight through instead of being buffered.
// Receive treats it as gone from finishedAt+τ on; the directory's reclaim
// queue frees the slot then.
func (o *Orderer) finish(st *orderFlow) {
	st.finished = true
	st.finishedAt = o.eng.Now()
	o.dir.retire(st.slot, st.finishedAt+o.cfg.Timeout)
}

// reclaim removes a tombstone a full τ after it finished; a reclaim entry
// resolves its slot to the flow occupying it now (see directory.onReclaim).
// The age check stands in for a pointer-identity test: a slot the entry's
// flow vacated may hold a newer flow, in order or finished later, which
// keeps its state until its own finish is τ old.
func (o *Orderer) reclaim(flow uint64, st *orderFlow) {
	if st.finished && o.eng.Now() >= st.finishedAt+o.cfg.Timeout {
		o.forget(flow)
	}
}

// bufferEarly inserts an early packet into the flow-ordered buffer,
// discarding duplicates, and arms the timer.
func (o *Orderer) bufferEarly(st *orderFlow, p *packet.Packet, v uint32) {
	if st.buf == 0 {
		st.buf = o.dir.getBuf()
	}
	b := o.dir.buf(st.buf)
	// Inlined sort.Search over the live window [head, len): first index
	// whose position does not precede v. Touches only the packed position
	// array — the struct-of-arrays payoff.
	lo, hi := b.head, len(b.bufV)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.before(b.bufV[mid], v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(b.bufV) && b.bufV[lo] == v {
		return // duplicate of an already-buffered packet
	}
	now := o.eng.Now()
	if lo == b.head && b.head > 0 {
		// New head-of-buffer: reuse the slack in front.
		b.head--
		b.bufP[b.head] = p
		b.bufV[b.head] = v
		b.bufAt[b.head] = now
	} else {
		if len(b.bufV) == b.bufCap() {
			o.growBuf(b)
		}
		b.bufP = append(b.bufP, nil)
		b.bufV = append(b.bufV, 0)
		b.bufAt = append(b.bufAt, 0)
		copy(b.bufP[lo+1:], b.bufP[lo:])
		copy(b.bufV[lo+1:], b.bufV[lo:])
		copy(b.bufAt[lo+1:], b.bufAt[lo:])
		b.bufP[lo] = p
		b.bufV[lo] = v
		b.bufAt[lo] = now
	}
	o.Held++
	if o.met != nil {
		o.met.OrderingHeld++
	}
	if !b.timer.Pending() {
		o.armAt(st, b, b.bufAt[b.head]+o.cfg.Timeout)
	}
}

// debugTimeout, when set by tests, observes every ordering timeout.
var debugTimeout func(flow uint64, hasExp bool, expected, headV uint32, buflen int, now units.Time)

// armAt arms st's buffer timer at at (paper §3.3.2 event 2: the
// head-of-buffer arrival plus τ), or at now if that has passed.
func (o *Orderer) armAt(st *orderFlow, b *orderBuf, at units.Time) {
	if at < o.eng.Now() {
		at = o.eng.Now()
	}
	b.timer = o.eng.AtArg(at, o.dir.onTimeout, uint64(st.slot))
}

// timeout releases buffered packets up to the next gap (paper §3.3.2 event
// 4): the transport now sees the gap and can run its own loss recovery. The
// timer event resolves its slot back to the flow (see directory.onTimeout);
// a fired timer's state and buffer always still exist, since every path that
// drains a buffer cancels its timer first.
func (o *Orderer) timeout(flow uint64, st *orderFlow) {
	b := o.dir.buf(st.buf)
	b.timer = sim.Timer{}
	o.Timeouts++
	if o.met != nil {
		o.met.OrderTimeout++
	}
	if debugTimeout != nil {
		debugTimeout(flow, st.hasExpected, st.expected, b.bufV[b.head], len(b.bufV)-b.head, o.eng.Now())
	}
	// Skip the gap: the next packet in flow order becomes the new expected.
	ep, ev := b.bufP[b.head], b.bufV[b.head]
	b.bufP[b.head] = nil
	b.head++
	st.hasExpected = true
	st.expected = ev
	o.Releases++
	o.deliverRun(st, ep, ev)
}
