package host

import (
	"vertigo/internal/fabric"
	"vertigo/internal/flowtab"
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

	handlers flowtab.View[Handler] // this host's flows in the directory
	accept   Acceptor
}

// NewHost creates host id attached to net. vertigoStack enables the marking
// and ordering components.
func NewHost(id int, eng *sim.Engine, net *fabric.Network, met *metrics.Collector,
	mcfg MarkerConfig, ocfg OrdererConfig, vertigoStack bool) *Host {
	dir := directoryOf(net)
	h := &Host{
		ID:       id,
		Eng:      eng,
		Net:      net,
		Met:      met,
		handlers: dir.handlers.View(uint32(id)),
	}
	if vertigoStack {
		h.Marker = newMarker(mcfg, dir, uint32(id))
		h.Orderer = newOrderer(eng, ocfg, h.dispatch, dir, uint32(id))
		h.Orderer.SetCollector(met)
	}
	net.RegisterHost(id, h)
	return h
}

// SetAcceptor installs the factory invoked for unknown inbound flows.
func (h *Host) SetAcceptor(a Acceptor) { h.accept = a }

// Pool returns the fabric's per-simulation packet free list, from which
// transports allocate and to which final consumers return packets.
func (h *Host) Pool() *packet.Pool { return h.Net.Pool() }

// Bind routes received packets of a flow to hd.
func (h *Host) Bind(flow uint64, hd Handler) {
	v, _ := h.handlers.Put(flow)
	*v = hd
}

// Unbind removes a flow's handler.
func (h *Host) Unbind(flow uint64) { h.handlers.Delete(flow) }

// Retire unbinds a finished inbound flow and hands its later data packets —
// stragglers and retransmissions — to fin, which answers for every flow the
// simulation's hosts retire. What stays of the flow is one bit in the
// directory, not a binding: flow IDs are simulation-unique, so a retired ID
// never names a new flow.
func (h *Host) Retire(flow uint64, fin Handler) {
	h.handlers.Delete(flow)
	d := directoryOf(h.Net)
	d.retired.Set(flow)
	d.fin = fin
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

// dispatch hands p to its flow's handler, to the fin handler for a retired
// flow's data, or to the acceptor for a new inbound flow.
func (h *Host) dispatch(p *packet.Packet) {
	if hp := h.handlers.Get(p.Flow); hp != nil {
		hd := *hp // copy out: the handler may rebind its flow, or unbind it, under hp
		hd.Handle(p)
		return
	}
	if p.Kind == packet.Data {
		if d := directoryOf(h.Net); d.fin != nil && d.retired.Has(p.Flow) {
			d.fin.Handle(p)
			return
		}
		if h.accept != nil {
			if fn := h.accept(p); fn != nil {
				h.Bind(p.Flow, HandlerFunc(fn))
				fn(p)
				return
			}
		}
	}
	// Packets for unknown flows (e.g. ACKs straggling in after the sender
	// finished) are silently consumed, as a NIC would; recycle the frame.
	h.Net.Pool().Put(p)
}
