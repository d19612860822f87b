package transport

import (
	"vertigo/internal/arena"
	"vertigo/internal/fabric"
	"vertigo/internal/host"
	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/units"
)

// connSlab is how many connection states one backing array holds. Matches
// the packet pool's slab discipline: contiguous slabs keep live state dense
// while a LIFO free list hands the most recently quiesced — cache-warm —
// slot to the next flow.
const connSlab = 256

// SenderPool recycles Sender slots across flows. Every slot lives in a
// contiguous slab and is numbered; a sender's RTO and pacing timers are
// argument events carrying that number to the pool's two handlers, and the
// slot itself is what its flow binds at the host, so neither a flow nor a
// slot costs a closure: a million-flow run touches only O(peak concurrent
// flows) sender state.
//
// All pooled senders share one Config, held by the pool; the per-slot cfg
// pointer keeps the 100+ byte parameter block out of every slot.
type SenderPool struct {
	cfg   Config
	slabs [][]Sender
	free  []*Sender
	live  int
	// The RTO and pacing handlers every slot's timers fire through, built
	// once; the argument is the slot number.
	onRTO, trySend sim.ArgHandler
}

// NewSenderPool returns an empty pool whose senders run under cfg.
func NewSenderPool(cfg Config) *SenderPool {
	sp := &SenderPool{cfg: cfg}
	sp.onRTO = func(slot uint64) { sp.at(slot).onRTO() }
	sp.trySend = func(slot uint64) { sp.at(slot).trySend() }
	return sp
}

// at resolves a slot number.
func (sp *SenderPool) at(slot uint64) *Sender {
	return &sp.slabs[slot/connSlab][slot%connSlab]
}

// grow carves a slab of free slots, numbering them.
func (sp *SenderPool) grow() {
	base := len(sp.slabs) * connSlab
	slab := make([]Sender, connSlab)
	sp.slabs = append(sp.slabs, slab)
	for i := range slab {
		slab[i].slot = uint32(base + i)
		sp.free = append(sp.free, &slab[i])
	}
}

// Get checks a sender out of the pool (growing it by a slab when empty) and
// initializes it for spec. The sender returns itself to the pool when the
// flow completes.
func (sp *SenderPool) Get(h *host.Host, met *metrics.Collector, ids *packet.IDGen, spec FlowSpec, onDone func()) *Sender {
	if len(sp.free) == 0 {
		sp.grow()
	}
	s := sp.free[len(sp.free)-1]
	sp.free = sp.free[:len(sp.free)-1]
	sp.live++
	s.init(sp, h, met, ids, spec, onDone)
	return s
}

// put returns a completed sender's slot to the free list.
func (sp *SenderPool) put(s *Sender) {
	sp.live--
	sp.free = append(sp.free, s)
}

// Live returns the number of checked-out senders.
func (sp *SenderPool) Live() int { return sp.live }

// Allocated returns the total sender slots ever carved.
func (sp *SenderPool) Allocated() int { return len(sp.slabs) * connSlab }

// maxKeepIntervals bounds the out-of-order interval backing arrays a
// recycled receiver slot keeps. A pathological reordering burst can grow
// them arbitrarily; past this they go back to the pool's arena, so one bad
// flow does not pin memory in its slot for the rest of the run.
const maxKeepIntervals = 1024

// ReceiverPool recycles Receiver slots the same way SenderPool recycles
// senders. A receiver quiesces when its last byte arrives and retires its
// flow at the host (host.Host.Retire): the binding goes, a bit in the host
// directory stays, and the host hands the flow's straggling retransmissions
// to the pool's shared fin handler, which sends the full-coverage ACK they
// would have gotten from the live receiver, byte for byte, while the slot
// (and its out-of-order buffers) moves on to the next flow.
type ReceiverPool struct {
	met   *metrics.Collector
	ids   *packet.IDGen
	slabs [][]Receiver
	free  []*Receiver
	live  int
	fin   host.HandlerFunc
	ivs   arena.Pool[interval] // the receivers' out-of-order interval arrays
}

// NewReceiverPool returns a receiver pool for one run. eng and net are the
// run's engine and fabric, used by the shared fin handler to ACK stragglers
// of already-completed flows.
func NewReceiverPool(eng *sim.Engine, net *fabric.Network, met *metrics.Collector, ids *packet.IDGen) *ReceiverPool {
	rp := &ReceiverPool{met: met, ids: ids}
	pool := net.Pool()
	// The fin handler replays exactly what a completed receiver does with a
	// straggling retransmission: count the reorder (the flow's last byte is
	// past every segment), regenerate the cumulative ACK from the packet's
	// own fields, and recycle the frame — same packet-pool order as the
	// live-receiver path (ACK allocated before the data frame is returned).
	rp.fin = func(p *packet.Packet) {
		if p.Kind != packet.Data {
			pool.Put(p)
			return
		}
		met.ReorderPkts++
		now := eng.Now()
		var proc units.Time
		if p.RxAt > 0 {
			proc = now - p.RxAt
		}
		ack := pool.Get()
		*ack = packet.Packet{
			ID:       ids.Next(),
			Kind:     packet.Ack,
			Src:      p.Dst,
			Dst:      p.Src,
			Flow:     p.Flow,
			AckSeq:   p.FlowSize,
			ECE:      p.CE && p.ECNCapable,
			EchoTx:   p.TxAt,
			EchoProc: proc,
			EchoHops: p.Hops,
			Incast:   p.Incast,
			TxAt:     now,
		}
		net.Send(ack)
		pool.Put(p)
	}
	return rp
}

// Accept checks a receiver out for the flow whose first data packet just
// arrived on h, and returns its prebuilt packet handler (the host.Acceptor
// contract).
func (rp *ReceiverPool) Accept(h *host.Host, first *packet.Packet) func(*packet.Packet) {
	if len(rp.free) == 0 {
		slab := make([]Receiver, connSlab)
		rp.slabs = append(rp.slabs, slab)
		for i := range slab {
			rp.free = append(rp.free, &slab[i])
		}
	}
	r := rp.free[len(rp.free)-1]
	rp.free = rp.free[:len(rp.free)-1]
	rp.live++
	r.init(rp, h, rp.met, rp.ids, first)
	return r.onDataFn
}

// release retires the finished flow to the shared fin handler and returns
// the slot to the free list, returning burst-grown interval arrays to the
// arena.
func (rp *ReceiverPool) release(r *Receiver) {
	r.h.Retire(r.flow, rp.fin)
	if cap(r.ooo) > maxKeepIntervals {
		rp.ivs.Put(r.ooo)
		r.ooo = nil
	}
	if cap(r.scratch) > maxKeepIntervals {
		rp.ivs.Put(r.scratch)
		r.scratch = nil
	}
	rp.live--
	rp.free = append(rp.free, r)
}

// Live returns the number of checked-out receivers.
func (rp *ReceiverPool) Live() int { return rp.live }

// Allocated returns the total receiver slots ever carved.
func (rp *ReceiverPool) Allocated() int { return len(rp.slabs) * connSlab }
