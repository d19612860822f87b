package host

import (
	"vertigo/internal/fabric"
	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
)

// Acceptor creates the receive-side handler for a flow whose first packet
// just arrived (how transports accept incoming connections).
type Acceptor func(first *packet.Packet) func(*packet.Packet)

// Handler consumes the packets a host receives for one bound flow. A pooled
// transport endpoint binds itself — a pointer in an interface, where a method
// value would be a closure allocated per endpoint.
type Handler interface {
	Handle(p *packet.Packet)
}

// HandlerFunc adapts a plain function to Handler.
type HandlerFunc func(*packet.Packet)

// Handle calls f(p).
func (f HandlerFunc) Handle(p *packet.Packet) { f(p) }

// Host is one end system: it owns the optional Vertigo TX/RX components and
// demultiplexes packets between the fabric and transport connections.
type Host struct {
	ID  int
	Eng *sim.Engine
	Net *fabric.Network
	Met *metrics.Collector

	// Marker and Orderer are non-nil only when the host runs the Vertigo
	// stack extensions.
	Marker  *Marker
	Orderer *Orderer

	dir    *directory // the flow state of every host of the simulation
	accept Acceptor
}

// NewHost creates host id attached to net. vertigoStack enables the marking
// and ordering components.
func NewHost(id int, eng *sim.Engine, net *fabric.Network, met *metrics.Collector,
	mcfg MarkerConfig, ocfg OrdererConfig, vertigoStack bool) *Host {
	dir := directoryOf(net)
	h := &Host{ID: id, Eng: eng, Net: net, Met: met, dir: dir}
	if vertigoStack {
		h.Marker = newMarker(mcfg, dir, uint32(id))
		h.Orderer = newOrderer(eng, ocfg, h.dispatch, dir, int32(id))
		h.Orderer.met = met
	}
	net.RegisterHost(id, h)
	return h
}

// SetAcceptor installs the factory invoked for unknown inbound flows.
func (h *Host) SetAcceptor(a Acceptor) { h.accept = a }

// Pool returns the fabric's per-simulation packet free list, from which
// transports allocate and to which final consumers return packets.
func (h *Host) Pool() *packet.Pool { return h.Net.Pool() }

// Bind routes the ACKs of an outgoing flow, which this host sends, to hd.
// An inbound flow's handler comes from the acceptor.
func (h *Host) Bind(flow uint64, hd Handler) { h.dir.sender(flow).handler = hd }

// Unbind removes an outgoing flow's handler.
func (h *Host) Unbind(flow uint64) {
	if s := h.dir.senders.Get(flow); s != nil && s.mark.live {
		s.handler = nil
	} else {
		h.dir.senders.Delete(flow)
	}
}

// Retire unbinds a finished inbound flow and hands its later data packets —
// stragglers and retransmissions — to fin, which answers for every flow the
// simulation's hosts retire. What stays of the flow is one bit in the
// directory, not a binding: flow IDs are simulation-unique, so a retired ID
// never names a new flow. The slot stays while it holds ordering state.
func (h *Host) Retire(flow uint64, fin Handler) {
	if r := h.dir.receivers.Get(flow); r != nil && r.order.live {
		r.deliver = nil
	} else {
		h.dir.receivers.Delete(flow)
	}
	h.dir.retired.Set(flow)
	h.dir.fin = fin
}

// Send transmits p out of the host NIC, marking data packets when the
// Vertigo stack is enabled.
func (h *Host) Send(p *packet.Packet) {
	if p.Kind == packet.Data {
		h.Met.PacketsSent++
		if h.Marker != nil {
			h.Marker.Mark(p)
		}
	}
	h.Net.Send(p)
}

// Receive implements fabric.Receiver: marked data packets pass through the
// ordering component; everything else goes straight to the transport.
func (h *Host) Receive(p *packet.Packet) {
	if p.Kind == packet.Data {
		h.Met.PacketsRecv++
		h.Met.HopSum += int64(p.Hops)
		p.RxAt = h.Eng.Now() // NIC hardware RX timestamp
	}
	if h.Orderer != nil && p.Kind == packet.Data && p.Marked {
		h.Orderer.Receive(p)
		return
	}
	h.dispatch(p)
}

// dispatch hands an ACK to its outgoing flow's handler, and data to its
// inbound flow's handler, to the fin handler for a retired flow, or to the
// acceptor for a new inbound flow. A call holds its own copy of the handler,
// which may unbind or retire its flow while it runs.
func (h *Host) dispatch(p *packet.Packet) {
	d := h.dir
	if p.Kind == packet.Ack {
		if s := d.senders.Get(p.Flow); s != nil && s.handler != nil {
			s.handler.Handle(p)
			return
		}
	} else {
		if r := d.receivers.Get(p.Flow); r != nil && r.deliver != nil {
			r.deliver(p)
			return
		}
		if d.fin != nil && d.retired.Has(p.Flow) {
			d.fin.Handle(p)
			return
		}
		if h.accept != nil {
			if fn := h.accept(p); fn != nil {
				r, _ := d.receivers.Put(p.Flow)
				r.deliver = fn
				fn(p)
				return
			}
		}
	}
	// Packets for unknown flows (e.g. ACKs straggling in after the sender
	// finished) are silently consumed, as a NIC would; recycle the frame.
	h.Net.Pool().Put(p)
}
