package telemetry

import (
	"reflect"
	"testing"

	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/units"
)

// recordObserver logs which events it saw, tagged with its own name, into a
// shared log so fan-out order is checkable.
type recordObserver struct {
	name string
	log  *[]string
}

func (r *recordObserver) rec(ev string) { *r.log = append(*r.log, r.name+":"+ev) }

func (r *recordObserver) Enqueue(sw, port int, p *packet.Packet, occ units.ByteSize) {
	r.rec("enq")
}
func (r *recordObserver) Transmit(sw, port int, p *packet.Packet, busy units.Time, occ units.ByteSize) {
	r.rec("tx")
}
func (r *recordObserver) Deflect(sw, fromPort, toPort int, p *packet.Packet) { r.rec("deflect") }
func (r *recordObserver) Drop(sw, port int, p *packet.Packet, reason metrics.DropReason) {
	r.rec("drop")
}
func (r *recordObserver) Deliver(host int, p *packet.Packet) { r.rec("deliver") }

func TestMultiFansOutInOrder(t *testing.T) {
	var log []string
	a := &recordObserver{"a", &log}
	b := &recordObserver{"b", &log}
	m := NewMulti(a, b)
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	p := &packet.Packet{}
	m.Enqueue(0, 1, p, 1500)
	m.Transmit(0, 1, p, units.Microsecond, 0)
	m.Deflect(0, 1, 2, p)
	m.Drop(0, 1, p, metrics.DropOverflow)
	m.Deliver(3, p)
	want := []string{
		"a:enq", "b:enq", "a:tx", "b:tx", "a:deflect", "b:deflect",
		"a:drop", "b:drop", "a:deliver", "b:deliver",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("fan-out log %v, want %v", log, want)
	}
}

func TestMultiAddFlattensAndSkipsNil(t *testing.T) {
	var log []string
	a := &recordObserver{"a", &log}
	b := &recordObserver{"b", &log}
	c := &recordObserver{"c", &log}
	inner := NewMulti(a, b)
	m := NewMulti(nil, inner)
	m.Add(nil)
	m.Add((*Multi)(nil))
	m.Add(c)
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (flattened, nils skipped)", m.Len())
	}
	m.Deliver(0, &packet.Packet{})
	if want := []string{"a:deliver", "b:deliver", "c:deliver"}; !reflect.DeepEqual(log, want) {
		t.Errorf("log %v, want %v", log, want)
	}
}

func TestMultiZeroValueUsable(t *testing.T) {
	var m Multi
	m.Enqueue(0, 0, &packet.Packet{}, 0) // must not panic
	if m.Len() != 0 {
		t.Fatal("zero Multi non-empty")
	}
}

// TestMultiPassesSettlerOn: a mux attached whole hands the fabric's settler
// to the members that ask for one, so a sampler inside it still settles the
// fabric before each snapshot.
func TestMultiPassesSettlerOn(t *testing.T) {
	var log []string
	smp := NewSampler(sim.NewEngine(1), SamplerConfig{})
	NewMulti(&recordObserver{"a", &log}, smp).SetSettler(func() { log = append(log, "settled") })
	smp.onTick()
	if !reflect.DeepEqual(log, []string{"settled"}) {
		t.Errorf("tick logged %v, want one settle", log)
	}
}
