package host

import (
	"vertigo/internal/arena"
	"vertigo/internal/cuckoo"
	"vertigo/internal/fabric"
	"vertigo/internal/flowtab"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/units"
)

// directory is the flow state of every host of one simulation: one table per
// end of a flow, keyed by flow, and the epochs, keyed by source and
// destination. A per-host key space mirrors the deployable prototype (§4.4)
// but buys a simulator nothing — a simulated flow ID is simulation-unique,
// and a flow has one source and one destination — and costs a thousand-host
// run thousands of tables.
// Here an idle host costs its struct, a slot one host's flow vacates warms
// the next flow of any host, and a packet a host receives resolves its flow
// once: an ACK in senders, data in receivers, where the orderer's probe
// leaves the slot in the last-hit cache for the dispatch of what it releases.
// What the slots point to moves with them, so the arenas of the reorder
// buffers, the duplicate filters' tables and the retransmission counters
// live here too.
//
// A finished flow leaves what a later straggler of it can still observe: a
// retired inbound flow is a bit (Host.Retire), and an orderer tombstone the
// ordering half of its 32-byte slot plus a 16-byte entry in one reclaim
// queue, which a single timer drains in deadline order.
//
// Hosts built against one fabric.Network share its directory (directoryOf); a
// marker or orderer built on its own — the wire components' — has a directory
// of one, which is the prototype's per-host key space.
type directory struct {
	senders   flowtab.Table[sendFlow] // outgoing flows at their source
	receivers flowtab.Table[recvFlow] // inbound flows at their destination
	epochs    flowtab.Table[uint8]    // (source, destination): next 3-bit flow epoch
	retired   flowtab.Bits            // flows a receiver finished (Host.Retire)
	fin       Handler                 // takes the retired flows' data packets

	// orderers are the hosts' orderers, by the index a slot names
	// (orderFlow.owner), for the two handlers below, built once for all.
	orderers             []*Orderer
	onTimeout, onReclaim sim.ArgHandler
	eng                  *sim.Engine // the orderers' engine, which runs onReclaim

	// reclaims is the tombstones' queue, in finish order — deadline order,
	// for one τ — from reclaimHead on; one event, armed while it is not
	// empty, fires at the head's deadline and collects every flow due.
	reclaims     []reclaimEntry
	reclaimHead  int
	reclaimArmed bool

	// Reorder buffer records, in pages that never move: as many as flows
	// ever held packets at once. freeBuf is one plus the top of the LIFO of
	// drained ones, linked through their next fields.
	bufPages []*[bufPage]orderBuf
	nbufs    int32
	freeBuf  int32

	// Arenas for reorder buffers' arrays. A record's first array is a winLen
	// window carved from a chunk; a flow that holds more at once doubles
	// through here, and a record that drains with burst-grown arrays returns
	// them, so deflection storms size memory by concurrent burstiness, not by
	// how many flows — or hosts — ever saw one.
	bufP  arena.Pool[*packet.Packet]
	bufV  arena.Pool[uint32]
	bufAt arena.Pool[units.Time]

	filters cuckoo.Arena      // the markers' duplicate filters' tables
	retx    arena.Pool[uint8] // pages of sending flows' retransmission counters
}

// sendFlow is an outgoing flow's state at its source host, which lives from
// Sender.Start to the sender's completion: the transport endpoint its ACKs go
// to (Host.Bind) and its marking state (Marker.StartFlow). The slot goes when
// both are gone; a recycled slot keeps its retx page list, emptied when the
// last flow ended, for the next flow.
type sendFlow struct {
	handler Handler // nil when unbound
	mark    markerFlow
}

// recvFlow is an inbound flow's state at its destination host: the transport
// endpoint its data goes to, from the acceptor's until Host.Retire, and its
// ordering state, from Orderer.newFlow until Orderer.reclaim. The slot goes
// when both are gone: a flow whose receiver retires keeps its tombstone, and
// a flow whose tombstone is reclaimed keeps its receiver.
type recvFlow struct {
	deliver func(*packet.Packet) // nil when unbound
	order   orderFlow
}

// order returns flow's ordering state, or nil if it has none.
func (d *directory) order(flow uint64) *orderFlow {
	if r := d.receivers.Get(flow); r != nil && r.order.live {
		return &r.order
	}
	return nil
}

// sender returns flow's sendFlow slot, taking one — with the last tenant's
// retx page list, and nothing else of its — if the flow has none.
func (d *directory) sender(flow uint64) *sendFlow {
	s, existed := d.senders.PutReuse(flow)
	if !existed {
		s.handler = nil
		s.mark.live = false
	}
	return s
}

func newDirectory() *directory {
	d := &directory{}
	d.onTimeout = func(flow uint64) {
		st := d.order(flow)
		d.orderers[st.owner].timeout(flow, st)
	}
	d.onReclaim = func(uint64) {
		now := d.eng.Now()
		for d.reclaimHead < len(d.reclaims) && d.reclaims[d.reclaimHead].at <= now {
			e := d.reclaims[d.reclaimHead]
			d.reclaimHead++
			if r := d.receivers.Get(e.flow); r != nil && r.order.live {
				d.orderers[r.order.owner].reclaim(e.flow, r)
			}
		}
		if d.reclaimHead == len(d.reclaims) {
			d.reclaims, d.reclaimHead, d.reclaimArmed = d.reclaims[:0], 0, false
			return
		}
		if 2*d.reclaimHead >= len(d.reclaims) {
			d.reclaims = d.reclaims[:copy(d.reclaims, d.reclaims[d.reclaimHead:])]
			d.reclaimHead = 0
		}
		d.eng.SchedArg(d.reclaims[d.reclaimHead].at, d.onReclaim, 0)
	}
	return d
}

// reclaimFirst is the reclaim queue's first capacity: the finishes of one
// τ at a small run's pace, and the doubling past it is short.
const reclaimFirst = 256

// reclaimEntry is a tombstone's place in the reclaim queue: its flow and
// when its τ runs out. The flow's slot names the orderer holding it.
type reclaimEntry struct {
	flow uint64
	at   units.Time
}

// retire queues flow's tombstone for collection at at, arming an idle queue.
func (d *directory) retire(flow uint64, at units.Time) {
	d.reclaims = append(d.reclaims, reclaimEntry{flow, at})
	if !d.reclaimArmed {
		d.reclaimArmed = true
		d.eng.SchedArg(at, d.onReclaim, 0)
	}
}

// bufPage is how many reorder buffer records one page holds.
const bufPage = 64

// buf resolves a slot's buffer reference (orderFlow.buf).
func (d *directory) buf(ref int32) *orderBuf {
	i := ref - 1
	return &d.bufPages[i/bufPage][i%bufPage]
}

// getBuf checks out an empty buffer record: the one drained last, or a new one.
func (d *directory) getBuf() int32 {
	if ref := d.freeBuf; ref != 0 {
		d.freeBuf = d.buf(ref).next
		return ref
	}
	if int(d.nbufs) == len(d.bufPages)*bufPage {
		d.bufPages = append(d.bufPages, new([bufPage]orderBuf))
	}
	d.nbufs++
	return d.nbufs
}

// keepBuf is the largest array capacity a drained buffer record keeps for
// its next flow; burst-grown arrays past it go back to the arenas.
const keepBuf = 1024

// putBuf returns a drained record, its timer disarmed, to the free list.
func (d *directory) putBuf(ref int32) {
	b := d.buf(ref)
	if cap(b.bufV) > keepBuf {
		d.bufP.Put(b.bufP)
		d.bufV.Put(b.bufV)
		d.bufAt.Put(b.bufAt)
		b.bufP, b.bufV, b.bufAt = nil, nil, nil
	} else {
		b.bufP, b.bufV, b.bufAt = b.bufP[:0], b.bufV[:0], b.bufAt[:0]
	}
	b.head = 0
	b.next, d.freeBuf = d.freeBuf, ref
}

// directoryOf returns net's directory, creating it for the first host built.
func directoryOf(net *fabric.Network) *directory {
	d, _ := net.Ext.(*directory)
	if d == nil {
		d = newDirectory()
		net.Ext = d
	}
	return d
}

// Footprint counts what the hosts of one simulation hold in their shared
// directory once the flows behind it have come and gone.
type Footprint struct {
	Handlers      int // bound flows: one per live sender and live receiver
	RecvSlots     int // inbound flows with a bound receiver, ordering state or both
	RetiredPages  int // 512-byte pages of retired inbound flow IDs
	OrderSlots    int // ordering states: open, stranded in order, tombstones
	OrderBuffers  int // reorder buffers out, one per slot holding packets
	Reclaims      int // tombstones queued for collection
	ReclaimEvents int // reclaim events pending: one while any is queued
}

// FootprintOf reports the directory of net's hosts.
func FootprintOf(net *fabric.Network) Footprint { return directoryOf(net).footprint() }

func (d *directory) footprint() Footprint {
	f := Footprint{
		RecvSlots:    d.receivers.Len(),
		RetiredPages: d.retired.Pages(),
		OrderBuffers: int(d.nbufs),
		Reclaims:     len(d.reclaims) - d.reclaimHead,
	}
	d.senders.Range(func(_ uint64, s *sendFlow) bool {
		if s.handler != nil {
			f.Handlers++
		}
		return true
	})
	d.receivers.Range(func(_ uint64, r *recvFlow) bool {
		if r.deliver != nil {
			f.Handlers++
		}
		if r.order.live {
			f.OrderSlots++
		}
		return true
	})
	for ref := d.freeBuf; ref != 0; ref = d.buf(ref).next {
		f.OrderBuffers--
	}
	if d.reclaimArmed {
		f.ReclaimEvents = 1
	}
	return f
}
