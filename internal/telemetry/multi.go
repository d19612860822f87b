package telemetry

import (
	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/units"
)

// Observer is the consumer side of the fabric's dataplane event stream: the
// method set of fabric.Observer restated here, so probes and the Multi mux
// compose without importing the fabric package. Any fabric.Observer value
// satisfies it (and vice versa) by Go's structural interface conversion.
type Observer interface {
	Enqueue(sw, port int, p *packet.Packet, occ units.ByteSize)
	Transmit(sw, port int, p *packet.Packet, busy units.Time, occ units.ByteSize)
	Deflect(sw, fromPort, toPort int, p *packet.Packet)
	Drop(sw, port int, p *packet.Packet, reason metrics.DropReason)
	Deliver(host int, p *packet.Packet)
}

// Multi fans one dataplane event stream out to several observers in
// attachment order, so a Monitor, a Tracer and a Sampler can all watch the
// same run. Allocation happens only at attach time; the fan-out itself is a
// plain slice walk with no per-event allocation. The zero value is an empty,
// usable mux.
//
// A Multi is not safe for concurrent mutation; attach every probe before the
// simulation starts, as all observer callbacks run on the simulator thread.
type Multi struct {
	obs []Observer
}

// NewMulti returns a mux over the given observers. Nil entries are skipped
// and nested Multis are flattened, so composing compositions never double-
// indirects the hot path.
func NewMulti(obs ...Observer) *Multi {
	m := &Multi{}
	for _, o := range obs {
		m.Add(o)
	}
	return m
}

// Add attaches one more observer (nil is a no-op, a *Multi is flattened).
func (m *Multi) Add(o Observer) {
	switch v := o.(type) {
	case nil:
	case *Multi:
		if v != nil {
			m.obs = append(m.obs, v.obs...)
		}
	default:
		m.obs = append(m.obs, o)
	}
}

// SetSettler passes the fabric's settler on to every attached observer that
// asks for one (see Sampler.SetSettler), for a mux attached whole.
func (m *Multi) SetSettler(settle func()) {
	for _, o := range m.obs {
		if s, ok := o.(interface{ SetSettler(func()) }); ok {
			s.SetSettler(settle)
		}
	}
}

// Len returns the number of attached observers.
func (m *Multi) Len() int { return len(m.obs) }

// Enqueue implements fabric.Observer.
func (m *Multi) Enqueue(sw, port int, p *packet.Packet, occ units.ByteSize) {
	for _, o := range m.obs {
		o.Enqueue(sw, port, p, occ)
	}
}

// Transmit implements fabric.Observer.
func (m *Multi) Transmit(sw, port int, p *packet.Packet, busy units.Time, occ units.ByteSize) {
	for _, o := range m.obs {
		o.Transmit(sw, port, p, busy, occ)
	}
}

// Deflect implements fabric.Observer.
func (m *Multi) Deflect(sw, fromPort, toPort int, p *packet.Packet) {
	for _, o := range m.obs {
		o.Deflect(sw, fromPort, toPort, p)
	}
}

// Drop implements fabric.Observer.
func (m *Multi) Drop(sw, port int, p *packet.Packet, reason metrics.DropReason) {
	for _, o := range m.obs {
		o.Drop(sw, port, p, reason)
	}
}

// Deliver implements fabric.Observer.
func (m *Multi) Deliver(host int, p *packet.Packet) {
	for _, o := range m.obs {
		o.Deliver(host, p)
	}
}
