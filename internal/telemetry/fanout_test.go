package telemetry_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"vertigo/internal/fabric"
	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/telemetry"
	"vertigo/internal/topo"
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
func (r *recordObserver) Fault(ev telemetry.FaultEvent)      { r.rec("fault") }

// settlingObserver is a recordObserver that asks the fabric for a settler.
type settlingObserver struct {
	recordObserver
	settle func()
}

func (r *settlingObserver) SetSettler(settle func()) { r.settle = settle }

// fanoutNet is a 2-spine, 2-leaf, 2-hosts-per-leaf fabric (links 0-3 are the
// host access links) whose hosts drop what they receive.
func fanoutNet(t *testing.T) (*sim.Engine, *fabric.Network) {
	t.Helper()
	tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
		Spines: 2, Leaves: 2, HostsPerLeaf: 2,
		HostRate: 10 * units.Gbps, FabricRate: 40 * units.Gbps,
		LinkDelay: 500 * units.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	return eng, fabric.New(eng, tp, metrics.NewCollector(), fabric.DefaultConfig(fabric.ECMP))
}

func fanoutPkt(id uint64, src, dst int) *packet.Packet {
	return &packet.Packet{ID: id, Kind: packet.Data, Src: src, Dst: dst, Flow: id, PayloadLen: packet.MSS}
}

// TestMultiFansOutInOrder: with several probes attached, the fabric hands
// every dataplane and fault event to each of them in attachment order.
func TestMultiFansOutInOrder(t *testing.T) {
	eng, net := fanoutNet(t)
	var log []string
	net.AddObserver(&recordObserver{name: "a", log: &log})
	net.AddObserver(nil)
	net.AddObserver(&recordObserver{name: "b", log: &log})
	net.Send(fanoutPkt(1, 0, 2)) // across the spine
	eng.Run(units.Millisecond)
	net.SetLinkState(0, false) // host 0's access link: a fault, then a drop
	net.Send(fanoutPkt(2, 0, 2))
	seen := map[string]bool{}
	if len(log)%2 != 0 {
		t.Fatalf("odd log %v", log)
	}
	for i := 0; i < len(log); i += 2 {
		ev := strings.TrimPrefix(log[i], "a:")
		if log[i] != "a:"+ev || log[i+1] != "b:"+ev {
			t.Fatalf("events %d-%d are %q, %q: want each to reach a, then b", i, i+1, log[i], log[i+1])
		}
		seen[ev] = true
	}
	for _, ev := range []string{"enq", "tx", "deliver", "fault", "drop"} {
		if !seen[ev] {
			t.Errorf("no %q event fanned out; log %v", ev, log)
		}
	}
}

// TestMultiPassesSettlerOn: AddObserver hands the fabric's settler to a probe
// that asks for one, among others that do not. Called between touches, it
// replays the pops that came due, which the probes then see as transmissions.
func TestMultiPassesSettlerOn(t *testing.T) {
	eng, net := fanoutNet(t)
	var log []string
	s := &settlingObserver{recordObserver: recordObserver{name: "s", log: &log}}
	net.AddObserver(&recordObserver{name: "a", log: &log})
	net.AddObserver(s)
	if s.settle == nil {
		t.Fatal("a probe with SetSettler got no settler")
	}
	// Two packets queue at host 0's NIC: the first leaves at once, the
	// second's pop is due once the first has serialized (1.2 µs plus up to
	// 100 ns of jitter), and nothing touches the NIC again before the first
	// arrives at the leaf 500 ns later.
	net.Send(fanoutPkt(1, 0, 1))
	net.Send(fanoutPkt(2, 0, 1))
	eng.Run(1400 * units.Nanosecond)
	count := func(ev string) (n int) {
		for _, l := range log {
			if l == ev {
				n++
			}
		}
		return n
	}
	if n := count("a:tx"); n != 1 {
		t.Fatalf("%d transmissions before the settle, want 1", n)
	}
	s.settle()
	if a, b := count("a:tx"), count("s:tx"); a != 2 || b != 2 {
		t.Fatalf("after the settle the probes saw %d and %d transmissions, want 2 each", a, b)
	}
}

// TestMultiFaultFanOut: a carrier loss and recovery applied to the fabric
// reach the Monitor, the Sampler and the Tracer attached to it.
func TestMultiFaultFanOut(t *testing.T) {
	eng, net := fanoutNet(t)
	mon := telemetry.NewMonitor(eng, telemetry.Config{})
	samp := telemetry.NewSampler(eng, telemetry.SamplerConfig{})
	var buf bytes.Buffer
	tr := telemetry.NewTracer(eng, &buf, 0)
	for _, o := range []fabric.Observer{mon, samp, tr} {
		net.AddObserver(o)
	}
	eng.At(units.Millisecond, func() { net.SetLinkState(4, false) })
	eng.At(3*units.Millisecond, func() { net.SetLinkState(4, true) })
	eng.Run(4 * units.Millisecond)

	want := telemetry.FaultEvent{Time: units.Millisecond, Kind: telemetry.FaultLinkDown, Link: 4, Switch: -1}
	if got := mon.Faults(); len(got) != 2 || got[0] != want {
		t.Fatalf("monitor recorded %v", got)
	}
	if ttrs := mon.TimesToRecover(); !reflect.DeepEqual(ttrs, []units.Time{2 * units.Millisecond}) {
		t.Fatalf("TTRs = %v, want one 2ms recovery", ttrs)
	}
	if marks := samp.FaultMarks(); len(marks) != 2 {
		t.Fatalf("sampler marks = %v", marks)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Ev   string `json:"ev"`
		Kind string `json:"kind"`
		Link int    `json:"link"`
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if err := json.Unmarshal([]byte(first), &rec); err != nil {
		t.Fatalf("tracer line %q: %v", first, err)
	}
	if rec.Ev != "fault" || rec.Kind != "link-down" || rec.Link != 4 {
		t.Fatalf("tracer record = %+v", rec)
	}
}
