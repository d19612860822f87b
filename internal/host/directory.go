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
// kind of state, keyed by (flow or destination, host), where each host used
// to keep four tables of its own. A per-host key space mirrors the deployable
// prototype (§4.4) but buys a simulator nothing — a simulated flow ID is
// already simulation-unique — and costs a thousand-host run four thousand
// tables, built again in every domain of a sharded run. Here an idle host
// costs its struct, a slot one host's flow vacates warms the next flow of any
// host, and the tables grow a page at a time. What the slots' values point to
// moves with them, so the reorder buffers' arenas and the duplicate filters'
// chunk source live here too.
//
// A finished flow leaves what a later straggler of it can still observe, in
// the smallest form that gives the same answer: a retired inbound flow is a
// bit (Host.Retire), and an orderer tombstone is its 24-byte slot plus an
// entry in one reclaim queue, which a single timer drains in deadline order.
//
// Hosts built against one fabric.Network share its directory (directoryOf); a
// marker or orderer built on its own — the wire components' — has a directory
// of one, which is the prototype's per-host key space.
type directory struct {
	handlers flowtab.Table[Handler]    // (flow, host): the flow's bound transport endpoint
	marks    flowtab.Table[markerFlow] // (flow, source host)
	epochs   flowtab.Table[uint8]      // (destination, source host): next 3-bit flow epoch
	orders   flowtab.Table[orderFlow]  // (flow, destination host)
	retired  flowtab.Bits              // flows a receiver finished (Host.Retire)
	fin      Handler                   // takes the retired flows' data packets

	// orderers resolves an orders slot's owner: a slot's timers carry its
	// table ref to the two handlers below, built once for all hosts.
	orderers             []*Orderer
	onTimeout, onReclaim sim.ArgHandler
	eng                  *sim.Engine // the orderers' engine, which runs onReclaim

	// reclaims is the tombstones' queue, in finish order — deadline order,
	// for one τ — from reclaimHead on; one event, armed while it is not
	// empty, fires at the head's deadline and collects every slot due.
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

	filterChunks cuckoo.Chunks
}

func newDirectory() *directory {
	d := &directory{}
	d.onTimeout = func(slot uint64) {
		if flow, owner, st, ok := d.orders.AtRef(int32(slot)); ok {
			d.orderers[owner].timeout(flow, st)
		}
	}
	d.onReclaim = func(uint64) {
		now := d.eng.Now()
		for d.reclaimHead < len(d.reclaims) && d.reclaims[d.reclaimHead].at <= now {
			slot := d.reclaims[d.reclaimHead].slot
			d.reclaimHead++
			if flow, owner, st, ok := d.orders.AtRef(slot); ok {
				d.orderers[owner].reclaim(flow, st)
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

// reclaimEntry is a tombstone's place in the reclaim queue: its slot, and
// when its τ runs out.
type reclaimEntry struct {
	slot int32
	at   units.Time
}

// retire queues a tombstone's slot for collection at at, arming the queue's
// event if it was idle.
func (d *directory) retire(slot int32, at units.Time) {
	d.reclaims = append(d.reclaims, reclaimEntry{slot, at})
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

// getBuf checks an empty buffer record out: the one drained last, or a new
// one.
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

// putBuf returns a drained buffer record, whose timer is disarmed, to the
// free list.
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

// directoryOf returns the directory of net's simulation, creating it for the
// first host built.
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
		Handlers:     d.handlers.Len(),
		RetiredPages: d.retired.Pages(),
		OrderSlots:   d.orders.Len(),
		OrderBuffers: int(d.nbufs),
		Reclaims:     len(d.reclaims) - d.reclaimHead,
	}
	for ref := d.freeBuf; ref != 0; ref = d.buf(ref).next {
		f.OrderBuffers--
	}
	if d.reclaimArmed {
		f.ReclaimEvents = 1
	}
	return f
}
