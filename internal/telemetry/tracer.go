package telemetry

import (
	"bufio"
	"fmt"
	"io"

	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/units"
)

// Tracer is a fabric observer that writes one line per dataplane event —
// the simulator's analogue of a fleet-wide packet capture. Use a flow
// filter to keep traces tractable; an unfiltered trace of a busy run is
// gigabytes.
//
// Each event is one JSON object on a line of its own (JSONL, the
// trace.jsonl artifact format), leading with its timestamp:
//
//	{"t":<ns>,"ev":"enq","sw":1,"port":2,"kind":"data","flow":7,...,"occ":4500}
//
// Lines are written in emission order and stamped from the engine's as-of
// clock. The fabric reports a transmission when it replays it, so a tx line
// carries the true instant of the transmission and can follow lines with
// later stamps; one port's lines are always in time order. Sort by time for
// a global timeline.
type Tracer struct {
	eng  *sim.Engine
	w    *bufio.Writer
	flow uint64 // 0 = trace everything
	// Lines counts emitted events.
	Lines int64
}

// NewTracer returns a tracer writing JSONL to w; flow filters to one flow ID
// (0 traces all flows — beware volume).
func NewTracer(eng *sim.Engine, w io.Writer, flow uint64) *Tracer {
	return &Tracer{eng: eng, w: bufio.NewWriter(w), flow: flow}
}

// Flush drains buffered trace lines; call at simulation end.
func (t *Tracer) Flush() error { return t.w.Flush() }

func (t *Tracer) want(p *packet.Packet) bool { return t.flow == 0 || p.Flow == t.flow }

// emit writes one event. extraKey/extraNum carry the event-specific numeric
// field (occ, busy, to); extraStr carries drop's reason. Event names, packet
// kinds and drop reasons are fixed identifier strings, so the hand-rolled
// JSON needs no escaping.
func (t *Tracer) emit(event string, sw, port int, p *packet.Packet, extraKey string, extraNum int64, extraStr string) {
	if !t.want(p) {
		return
	}
	t.Lines++
	fmt.Fprintf(t.w, `{"t":%d,"ev":"%s","sw":%d,"port":%d,"kind":"%s","flow":%d,"seq":%d,"rfs":%d,"hops":%d,"defl":%d`,
		int64(t.eng.AsOf()), event, sw, port, p.Kind, p.Flow, p.Seq,
		p.Rank(), p.Hops, p.Deflections)
	if extraStr != "" {
		fmt.Fprintf(t.w, `,"%s":"%s"`, extraKey, extraStr)
	} else if extraKey != "" {
		fmt.Fprintf(t.w, `,"%s":%d`, extraKey, extraNum)
	}
	t.w.WriteString("}\n")
}

// Enqueue implements fabric.Observer.
func (t *Tracer) Enqueue(sw, port int, p *packet.Packet, occ units.ByteSize) {
	t.emit("enq", sw, port, p, "occ", int64(occ), "")
}

// Transmit implements fabric.Observer.
func (t *Tracer) Transmit(sw, port int, p *packet.Packet, busy units.Time, occ units.ByteSize) {
	t.emit("tx", sw, port, p, "busy", int64(busy), "")
}

// Deflect implements fabric.Observer.
func (t *Tracer) Deflect(sw, fromPort, toPort int, p *packet.Packet) {
	t.emit("deflect", sw, fromPort, p, "to", int64(toPort), "")
}

// Drop implements fabric.Observer.
func (t *Tracer) Drop(sw, port int, p *packet.Packet, reason metrics.DropReason) {
	t.emit("drop", sw, port, p, "reason", 0, reason.String())
}

// Deliver implements fabric.Observer.
func (t *Tracer) Deliver(host int, p *packet.Packet) {
	t.emit("deliver", -1, host, p, "", 0, "")
}
