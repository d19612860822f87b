package transport

import (
	"vertigo/internal/host"
	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/units"
)

// Receiver is the receive side of one connection: it reassembles the byte
// stream, generates a cumulative ACK for every data packet (echoing ECN
// marks, timestamps and hop counts), and reports flow completion to the
// metrics collector the moment the last byte arrives.
type Receiver struct {
	h    *host.Host
	met  *metrics.Collector
	ids  *packet.IDGen
	pool *packet.Pool

	flow     uint64
	peer     int // sending host
	self     int
	size     int64
	recvNext int64      // next in-order byte expected
	ooo      []interval // out-of-order received ranges, sorted, disjoint
	scratch  []interval // spare backing array for admit's merge pass
	maxEnd   int64      // highest byte offset seen (reordering detection)
	done     bool

	rp *ReceiverPool // owning pool
	// onDataFn is the slot's prebuilt handler closure, reused across flows.
	onDataFn func(*packet.Packet)
}

type interval struct{ lo, hi int64 }

// firstIntervals is the capacity of a receiver slot's first interval arrays:
// room for a reordering episode's few gaps. They, and their doublings up to
// the arena's largest carved class, are carved from the pool's arena.
const firstIntervals = 8

// init resets a slot for a new inbound flow, keeping the slot's prebuilt
// handler closure and burst-grown interval backing arrays.
func (r *Receiver) init(rp *ReceiverPool, h *host.Host, met *metrics.Collector, ids *packet.IDGen, first *packet.Packet) {
	onData := r.onDataFn
	ooo, scratch := r.ooo[:0], r.scratch[:0]
	*r = Receiver{
		h:       h,
		met:     met,
		ids:     ids,
		pool:    h.Pool(),
		flow:    first.Flow,
		peer:    first.Src,
		self:    first.Dst,
		size:    first.FlowSize,
		ooo:     ooo,
		scratch: scratch,
		rp:      rp,
	}
	if onData == nil {
		onData = r.onData
	}
	r.onDataFn = onData
}

// onData consumes one packet: the receiver is its final owner, so the frame
// is recycled after processing. Once the flow's last byte has arrived the
// slot quiesces back to its pool; the pool's shared fin handler answers any
// straggling retransmissions of the retired flow.
func (r *Receiver) onData(p *packet.Packet) {
	r.handleData(p)
	r.pool.Put(p)
	if r.done {
		r.rp.release(r)
	}
}

func (r *Receiver) handleData(p *packet.Packet) {
	if p.Kind != packet.Data {
		return
	}
	// Reordering at the transport: the packet arrived after bytes beyond it.
	if p.Seq < r.maxEnd {
		r.met.ReorderPkts++
	}
	if p.End() > r.maxEnd {
		r.maxEnd = p.End()
	}
	fresh := r.admit(p.Seq, p.End())
	r.met.BytesGoodput += fresh
	if !r.done && r.recvNext >= r.size {
		r.done = true
		r.met.EndFlow(r.flow, r.h.Eng.Now())
	}
	r.sendAck(p)
}

// admit merges [lo,hi) into the received set, advances recvNext across any
// now-contiguous ranges, and returns the number of newly covered bytes.
func (r *Receiver) admit(lo, hi int64) int64 {
	if lo < r.recvNext {
		lo = r.recvNext
	}
	if hi <= lo {
		return 0
	}
	// Fast path: in-order delivery with nothing buffered — the common case —
	// just advances the cumulative pointer, with no interval bookkeeping.
	if len(r.ooo) == 0 && lo == r.recvNext {
		r.recvNext = hi
		return hi - lo
	}
	// Count uncovered bytes: the span minus its intersection with each
	// existing (disjoint) interval.
	fresh := hi - lo
	for _, iv := range r.ooo {
		fresh -= overlap(interval{lo, hi}, iv)
	}
	// Merge [lo,hi) into the sorted disjoint set, writing into the spare
	// backing array, which the pool's arena widens beforehand to hold the
	// merge's worst case, one interval more than there are.
	if cap(r.scratch) <= len(r.ooo) {
		n := max(2*cap(r.scratch), len(r.ooo)+1, firstIntervals)
		r.rp.ivs.Put(r.scratch)
		r.scratch = r.rp.ivs.Get(n)
	}
	cur := interval{lo, hi}
	out := r.scratch[:0]
	inserted := false
	for _, iv := range r.ooo {
		switch {
		case iv.hi < cur.lo: // strictly before (adjacent ranges coalesce below)
			out = append(out, iv)
		case cur.hi < iv.lo:
			if !inserted {
				out = append(out, cur)
				inserted = true
			}
			out = append(out, iv)
		default: // overlapping or touching: fold into cur
			if iv.lo < cur.lo {
				cur.lo = iv.lo
			}
			if iv.hi > cur.hi {
				cur.hi = iv.hi
			}
		}
	}
	if !inserted {
		out = append(out, cur)
	}
	r.ooo, r.scratch = out, r.ooo
	// Advance the cumulative pointer over a now-contiguous prefix, then copy
	// the rest down: reslicing the prefix away would walk the array's start
	// forward, and the swap above hands the shrunken capacity to the next
	// merge.
	k := 0
	for ; k < len(r.ooo) && r.ooo[k].lo <= r.recvNext; k++ {
		if r.ooo[k].hi > r.recvNext {
			r.recvNext = r.ooo[k].hi
		}
	}
	r.ooo = r.ooo[:copy(r.ooo, r.ooo[k:])]
	return fresh
}

// overlap returns the byte overlap of two intervals.
func overlap(a, b interval) int64 {
	lo, hi := a.lo, a.hi
	if b.lo > lo {
		lo = b.lo
	}
	if b.hi < hi {
		hi = b.hi
	}
	if hi > lo {
		return hi - lo
	}
	return 0
}

func (r *Receiver) sendAck(data *packet.Packet) {
	now := r.h.Eng.Now()
	var proc units.Time
	if data.RxAt > 0 {
		// Host processing time (dominated by any ordering-layer hold): the
		// NIC timestamps let Swift subtract it from the RTT, as deployed
		// Swift does with hardware timestamps.
		proc = now - data.RxAt
	}
	ack := r.pool.Get()
	*ack = packet.Packet{
		ID:       r.ids.Next(),
		Kind:     packet.Ack,
		Src:      r.self,
		Dst:      r.peer,
		Flow:     r.flow,
		AckSeq:   r.recvNext,
		ECE:      data.CE && data.ECNCapable,
		EchoTx:   data.TxAt,
		EchoProc: proc,
		EchoHops: data.Hops,
		Incast:   data.Incast,
		TxAt:     now,
	}
	r.h.Send(ack)
}
