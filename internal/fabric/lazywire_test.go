package fabric

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/topo"
	"vertigo/internal/units"
	"vertigo/internal/xrand"
)

// These tests pin the lazy wire (see Port): a port replays its due pops at
// the next touch instead of running a transmit event per packet, and nothing
// — not which touches happen, not whether anyone is watching — may show.

// arrival is one enqueue of a single-port schedule.
type arrival struct {
	at units.Time
	p  packet.Packet
}

// txRec is one line of a port's transcript: which packet left, when its
// serialization started and ended, and when it reached the far end.
type txRec struct {
	id                 uint64
	start, end, arrive units.Time
}

// refServer is the offline model the port must equal: a work-conserving
// single server fed arr (in time order), FIFO or lowest-rank-first with FIFO
// among equal ranks, refusing what does not fit in capacity, jittering each
// serialization from the port's positional stream, and — the tie rule —
// performing a departure due at T before anything else at T.
func refServer(arr []arrival, sorted bool, capacity units.ByteSize, rate units.BitRate, delay, jmax units.Time, rng xrand.Source) []txRec {
	var (
		q     []*packet.Packet
		bytes units.ByteSize
		free  units.Time // when the wire goes free
		out   []txRec
	)
	for i := 0; i < len(arr) || len(q) > 0; {
		if len(q) > 0 && (i == len(arr) || free <= arr[i].at) {
			k := 0
			for j, p := range q {
				if sorted && p.Rank() < q[k].Rank() {
					k = j
				}
			}
			p := q[k]
			q = append(q[:k], q[k+1:]...)
			bytes -= p.Size()
			tx := rate.TxTime(p.Size())
			if jmax > 0 {
				tx += units.Time(rng.Int63n(int64(jmax) + 1))
			}
			out = append(out, txRec{p.ID, free, free + tx, free + tx + delay})
			free += tx
			continue
		}
		a := &arr[i]
		i++
		if bytes+a.p.Size() > capacity {
			continue
		}
		if len(q) == 0 && free < a.at {
			free = a.at // an idle wire starts the newcomer at once
		}
		q = append(q, &a.p)
		bytes += a.p.Size()
	}
	return out
}

// portRig is a 2x2x2 leaf-spine with one port under test: host 0's ToR
// downlink, fed directly through its switch's enqueue.
type portRig struct {
	eng  *sim.Engine
	net  *Network
	sw   *Switch
	port int
	pt   *Port
}

func newPortRig(t *testing.T, cfg Config) *portRig {
	t.Helper()
	eng, net, _, _ := testNet(t, cfg)
	r := &portRig{eng: eng, net: net, sw: net.Switch(net.Topo.HostToR[0]), port: downlink(t, net.Topo, 0)}
	r.pt = r.sw.Port(r.port)
	return r
}

// downlink returns the port of host's ToR that faces it.
func downlink(t *testing.T, tp *topo.Topology, host int) int {
	t.Helper()
	for i, peer := range tp.PortPeer[tp.HostToR[host]] {
		if peer.Host && peer.Node == host {
			return i
		}
	}
	t.Fatalf("host %d's ToR has no port facing it", host)
	return -1
}

// transcriber records the transcript of one port from the observer stream
// and the far end's receive handler.
type transcriber struct {
	nopObserver
	eng      *sim.Engine
	sw, port int
	recs     []txRec
	byID     map[uint64]int
}

func (tr *transcriber) Transmit(sw, port int, p *packet.Packet, busy units.Time, occ units.ByteSize) {
	if sw != tr.sw || port != tr.port {
		return
	}
	at := tr.eng.AsOf()
	tr.byID[p.ID] = len(tr.recs)
	tr.recs = append(tr.recs, txRec{id: p.ID, start: at, end: at + busy})
}

func (tr *transcriber) Receive(p *packet.Packet) {
	tr.recs[tr.byID[p.ID]].arrive = tr.eng.Now()
}

// play runs arr through the rig's port and returns its transcript. touches,
// if any, are instants at which the port is probed or the whole network
// settled — reads that must not change anything.
func (r *portRig) play(arr []arrival, touches []units.Time) []txRec {
	tr := &transcriber{eng: r.eng, sw: r.sw.ID(), port: r.port, byID: map[uint64]int{}}
	r.net.AddObserver(tr)
	r.net.RegisterHost(0, tr)
	for i := range arr {
		a := &arr[i]
		r.eng.At(a.at, func() {
			p := a.p
			r.sw.enqueue(r.port, &p)
		})
	}
	for i, at := range touches {
		r.eng.At(at, func() {
			switch i % 3 {
			case 0:
				r.pt.occBytes()
			case 1:
				r.pt.Queue()
			default:
				r.net.SettleAll()
			}
		})
	}
	r.eng.Run(units.Second)
	return tr.recs
}

// model returns what refServer says the rig's port does with arr.
func (r *portRig) model(arr []arrival) []txRec {
	rng := xrand.New(xrand.Mix(uint64(r.eng.Seed())) ^ xrand.Mix(portIdent(int(r.pt.sw), int(r.pt.idx))))
	return refServer(arr, r.pt.isSorted, r.net.Cfg.BufferBytes, r.pt.rate, r.pt.delay, r.net.Cfg.Jitter, rng)
}

// lazySchedule draws a single-port schedule: bursts landing on one instant
// or within nanoseconds, trickles slower than the wire, idle gaps — and then,
// using the model to find them, arrivals at the exact instants the wire goes
// free (an arrival at T cannot move a departure at or before T, so ties are
// added in time order and stay ties).
func lazySchedule(rng *rand.Rand, model func([]arrival) []txRec) []arrival {
	var arr []arrival
	var id uint64
	mk := func(at units.Time) arrival {
		id++
		return arrival{at, packet.Packet{
			ID: id, Kind: packet.Data, Src: 2, Dst: 0, Flow: 1 + id%4, Marked: true,
			PayloadLen: 64 + rng.Intn(packet.MSS-63), Info: packet.FlowInfo{RFS: uint32(1 + rng.Intn(6))},
		}}
	}
	var at units.Time
	for phase := 0; phase < 40; phase++ {
		switch rng.Intn(3) {
		case 0: // burst
			for n := 1 + rng.Intn(120); n > 0; n-- {
				arr = append(arr, mk(at))
				at += units.Time(rng.Intn(3))
			}
		case 1: // trickle
			for n := 1 + rng.Intn(20); n > 0; n-- {
				arr = append(arr, mk(at))
				at += units.Time(800 + rng.Intn(1200))
			}
		default: // idle gap, long enough for the port to drain
			at += units.Time(100+rng.Intn(400)) * units.Microsecond
		}
	}
	var last units.Time
	for n := 0; n < 60; n++ {
		var ends []units.Time
		for _, rec := range model(arr) {
			if rec.end > last {
				ends = append(ends, rec.end)
			}
		}
		if len(ends) == 0 {
			break
		}
		last = ends[rng.Intn(min(len(ends), 25))]
		tie := mk(last)
		i := sort.Search(len(arr), func(i int) bool { return arr[i].at > last })
		arr = append(arr[:i], append([]arrival{tie}, arr[i:]...)...)
	}
	return arr
}

func diffTranscripts(t *testing.T, what string, got, want []txRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d transmissions, want %d", what, len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: transmission %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestLazyWireMatchesReferenceServer: a drop-tail and a sorted port, with and
// without jitter, do with a random schedule exactly what the offline server
// does — pop order, start, end and arrival instants.
func TestLazyWireMatchesReferenceServer(t *testing.T) {
	for _, policy := range []Policy{ECMP, Vertigo} {
		for _, jitter := range []units.Time{-1, 0} { // off, and the 100 ns default
			for seed := int64(1); seed <= 3; seed++ {
				cfg := DefaultConfig(policy)
				cfg.Jitter = jitter
				cfg.ECNThreshold = 0
				arr := lazySchedule(rand.New(rand.NewSource(seed)), newPortRig(t, cfg).model)
				r := newPortRig(t, cfg)
				want := r.model(arr)
				ties := 0
				ends := map[units.Time]bool{}
				for _, rec := range want {
					ends[rec.end] = true
				}
				for _, a := range arr {
					if ends[a.at] {
						ties++
					}
				}
				if len(want) < 500 || ties < 30 {
					t.Fatalf("schedule too tame: %d transmissions, %d arrivals tying a departure", len(want), ties)
				}
				diffTranscripts(t, fmt.Sprintf("%v jitter=%v seed=%d", policy, jitter, seed), r.play(arr, nil), want)
			}
		}
	}
}

// TestLazyWireTouchIndependence: sprinkling occupancy probes and settle-alls
// over a run — the same single-port schedule, and network-wide traffic under
// every policy — leaves the transcript and every delivery where they were.
func TestLazyWireTouchIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, policy := range []Policy{ECMP, Vertigo} {
		cfg := DefaultConfig(policy)
		arr := lazySchedule(rand.New(rand.NewSource(5)), newPortRig(t, cfg).model)
		want := newPortRig(t, cfg).play(arr, nil)
		for round := 0; round < 3; round++ {
			touches := make([]units.Time, 400)
			for i := range touches {
				// Some on an enqueue's instant, most anywhere.
				touches[i] = arr[rng.Intn(len(arr))].at
				if i%4 != 0 {
					touches[i] += units.Time(rng.Intn(3000))
				}
			}
			diffTranscripts(t, fmt.Sprintf("%v round %d", policy, round), newPortRig(t, cfg).play(arr, touches), want)
		}
	}

	for _, policy := range []Policy{ECMP, DRILL, DIBS, Vertigo} {
		want, _ := arrivalLog(t, DefaultConfig(policy), nil)
		got, _ := arrivalLog(t, DefaultConfig(policy), func(eng *sim.Engine, net *Network) {
			for i := 0; i < 300; i++ {
				eng.At(units.Time(rng.Intn(40_000)), func() {
					if i%2 == 0 {
						net.SettleAll()
					} else {
						sw := net.Switch(i % net.Topo.NumSwitches)
						sw.Port(i % len(sw.ports)).occBytes()
					}
				})
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: deliveries moved when ports were probed", policy)
		}
	}
}

// arrivalLog runs a canned traffic pattern under cfg and returns every
// delivery as "host/id@time" in arrival order, plus the network for counter
// inspection. The pattern floods one ToR downlink from two senders while a
// third host trickles cross-leaf traffic, exercising backlogs and deflection.
// prepare, if non-nil, sees the network before the run.
func arrivalLog(t *testing.T, cfg Config, prepare func(*sim.Engine, *Network)) ([]string, *Network) {
	t.Helper()
	eng, net, _, _ := testNet(t, cfg)
	var log []string
	for h := 0; h < net.Topo.NumHosts; h++ {
		net.RegisterHost(h, recvFunc(func(p *packet.Packet) {
			log = append(log, fmt.Sprintf("%d/%d@%d", h, p.ID, eng.Now()))
		}))
	}
	if prepare != nil {
		prepare(eng, net)
	}
	var ids packet.IDGen
	for i := 0; i < 60; i++ {
		eng.At(units.Time(i)*300*units.Nanosecond, func() {
			net.Send(dataPkt(&ids, 1, 0, 1, uint32(1000+i)))
			net.Send(dataPkt(&ids, 2, 0, 2, uint32(2000+i)))
			if i%5 == 0 {
				net.Send(dataPkt(&ids, 3, 1, 3, uint32(3000+i)))
			}
		})
	}
	eng.Run(units.Second)
	return log, net
}

// TestLazyWireObserverChangesNothing: attaching an observer changes neither
// a delivery nor how the wire is driven (the same replays, the same pops).
func TestLazyWireObserverChangesNothing(t *testing.T) {
	for _, policy := range []Policy{ECMP, DRILL, DIBS, Vertigo} {
		want, bare := arrivalLog(t, DefaultConfig(policy), nil)
		var probe nopObserver
		got, watched := arrivalLog(t, DefaultConfig(policy), func(_ *sim.Engine, net *Network) { net.AddObserver(&probe) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: deliveries differ with an observer attached", policy)
		}
		if probe.events == 0 {
			t.Errorf("%v: the observer saw nothing", policy)
		}
		if a, b := bare.TrainStats(), watched.TrainStats(); a != b || a.Segments == 0 {
			t.Errorf("%v: replay counters %+v unobserved, %+v observed; want equal and busy", policy, a, b)
		}
	}
}

// backlog enqueues n MSS packets of the given ranks on the rig's port at the
// current instant and returns them.
func (r *portRig) backlog(ids *packet.IDGen, ranks ...uint32) []*packet.Packet {
	ps := make([]*packet.Packet, len(ranks))
	for i, rfs := range ranks {
		ps[i] = dataPkt(ids, 2, 0, 1, rfs)
		if !r.sw.enqueue(r.port, ps[i]) {
			panic("backlog does not fit")
		}
	}
	return ps
}

func noJitter(policy Policy) Config {
	cfg := DefaultConfig(policy)
	cfg.Jitter = -1
	return cfg
}

// deliveredIDs lists the packet IDs host 0 received, in order.
func deliveredIDs(r *portRig) *[]uint64 {
	var got []uint64
	r.net.RegisterHost(0, recvFunc(func(p *packet.Packet) { got = append(got, p.ID) }))
	return &got
}

// TestLazyWireEnqueueAtBusyUntil is the tie rule on a sorted port: a
// lower-rank newcomer landing exactly when the wire goes free finds the old
// head already gone; one nanosecond earlier it goes first.
func TestLazyWireEnqueueAtBusyUntil(t *testing.T) {
	for _, early := range []units.Time{0, 1} {
		r := newPortRig(t, noJitter(Vertigo))
		got := deliveredIDs(r)
		var ids packet.IDGen
		ps := r.backlog(&ids, 50, 100, 200) // 50 takes the wire; 100 and 200 wait
		tx := r.pt.rate.TxTime(ps[0].Size())
		var late *packet.Packet
		r.eng.At(tx-early, func() { late = r.backlog(&ids, 10)[0] })
		r.eng.Run(units.Second)
		want := []uint64{ps[0].ID, ps[1].ID, late.ID, ps[2].ID}
		if early > 0 {
			want = []uint64{ps[0].ID, late.ID, ps[1].ID, ps[2].ID}
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("newcomer %d ns before the wire goes free: delivery order %v, want %v", early, *got, want)
		}
	}
}

// TestLazyWireDrainsBehindCorruptedFrame: a corrupted frame is dropped at its
// pop and still holds its place in the arrival chain, so the backlog behind
// it leaves on time, with no event of its own to wake it — whether the corrupted
// frame opened the busy period or was itself popped by replay, and on a link
// whose propagation delay exceeds a serialization, where arrivals run
// several frames behind the wire.
func TestLazyWireDrainsBehindCorruptedFrame(t *testing.T) {
	for _, delay := range []units.Time{500 * units.Nanosecond, 5 * units.Microsecond} {
		for corrupted := units.Time(0); corrupted < 2; corrupted++ {
			tp, err := topo.NewLeafSpine(topo.LeafSpineConfig{
				Spines: 2, Leaves: 2, HostsPerLeaf: 2,
				HostRate: 10 * units.Gbps, FabricRate: 40 * units.Gbps,
				LinkDelay: delay,
			})
			if err != nil {
				t.Fatal(err)
			}
			eng, met := sim.NewEngine(1), metrics.NewCollector()
			net := New(eng, tp, met, noJitter(ECMP))
			sw, port := net.Switch(tp.HostToR[0]), downlink(t, tp, 0)
			var arrivals []units.Time
			net.RegisterHost(0, recvFunc(func(*packet.Packet) { arrivals = append(arrivals, eng.Now()) }))
			var ids packet.IDGen
			tx := sw.Port(port).rate.TxTime(dataPkt(&ids, 2, 0, 1, 100).Size())
			// Bit errors are certain over a window holding one frame's start.
			li := tp.PortLink[sw.ID()][port]
			if corrupted == 0 {
				net.SetLinkBER(li, 1)
			} else {
				eng.At(corrupted*tx-1, func() { net.SetLinkBER(li, 1) })
			}
			eng.At(corrupted*tx+1, func() { net.SetLinkBER(li, 0) })
			for i := 0; i < 5; i++ {
				sw.enqueue(port, dataPkt(&ids, 2, 0, 1, 100))
			}
			eng.Run(units.Second)
			var want []units.Time
			for k := units.Time(0); k < 5; k++ {
				if k != corrupted {
					want = append(want, (k+1)*tx+delay)
				}
			}
			if !reflect.DeepEqual(arrivals, want) {
				t.Errorf("delay %v, frame %d corrupted: arrivals at %v, want %v", delay, corrupted, arrivals, want)
			}
			if n := met.Drops[metrics.DropCorrupt]; n != 1 {
				t.Errorf("delay %v, frame %d corrupted: %d corrupt drops, want 1", delay, corrupted, n)
			}
		}
	}
}

// TestLazyWireCarrierLossMidBacklog: frames whose serialization started by
// the instant carrier is lost — the one starting at that very instant
// included — are on the wire and arrive; the rest of the backlog is dropped
// link-down.
func TestLazyWireCarrierLossMidBacklog(t *testing.T) {
	for _, c := range []struct {
		lossAfter units.Time // in serializations, plus nanoseconds
		extra     units.Time
		delivered int
	}{{2, 0, 3}, {2, -1, 2}, {2, 600, 3}} {
		r := newPortRig(t, noJitter(ECMP))
		got := deliveredIDs(r)
		var ids packet.IDGen
		ps := r.backlog(&ids, make([]uint32, 10)...)
		tx := r.pt.rate.TxTime(ps[0].Size())
		li := r.net.Topo.PortLink[r.sw.ID()][r.port]
		r.eng.At(c.lossAfter*tx+c.extra, func() { r.net.SetLinkState(li, false) })
		r.eng.Run(units.Second)
		if len(*got) != c.delivered {
			t.Errorf("carrier lost at %d tx %+d ns: %d delivered, want %d", c.lossAfter, c.extra, len(*got), c.delivered)
		}
		if n := r.net.Met.Drops[metrics.DropLinkDown]; int(n) != 10-c.delivered {
			t.Errorf("carrier lost at %d tx %+d ns: %d link-down drops, want %d", c.lossAfter, c.extra, n, 10-c.delivered)
		}
	}
}

// TestLazyWireRateChangeMidBacklog: a brownout retimes the frames that start
// after it, not the one on the wire.
func TestLazyWireRateChangeMidBacklog(t *testing.T) {
	r := newPortRig(t, noJitter(ECMP))
	var arrivals []units.Time
	r.net.RegisterHost(0, recvFunc(func(*packet.Packet) { arrivals = append(arrivals, r.eng.Now()) }))
	var ids packet.IDGen
	ps := r.backlog(&ids, make([]uint32, 4)...)
	tx := r.pt.rate.TxTime(ps[0].Size())
	li := r.net.Topo.PortLink[r.sw.ID()][r.port]
	r.eng.At(tx+tx/2, func() { r.net.SetLinkRateFactor(li, 0.5) })
	r.eng.Run(units.Second)
	slow := (r.pt.cold().rate0 / 2).TxTime(ps[0].Size())
	d := r.pt.delay
	want := []units.Time{tx + d, 2*tx + d, 2*tx + slow + d, 2*tx + 2*slow + d}
	if !reflect.DeepEqual(arrivals, want) {
		t.Errorf("arrivals at %v, want %v", arrivals, want)
	}
}

// TestLazyWireNoTransmitEvents: draining a 1,000-packet backlog schedules no
// event but one arrival a packet — the arrivals carry the port — and the
// replay counters show who popped: all but the first packet left by replay.
func TestLazyWireNoTransmitEvents(t *testing.T) {
	cfg := DefaultConfig(ECMP)
	cfg.BufferBytes = 2 * units.MB
	r := newPortRig(t, cfg)
	got := deliveredIDs(r)
	var ids packet.IDGen
	r.backlog(&ids, make([]uint32, 1000)...)
	before := r.eng.Events()
	r.eng.Run(units.Second)
	if len(*got) != 1000 {
		t.Fatalf("delivered %d of 1000", len(*got))
	}
	if n := r.eng.Events() - before; n != 1000 {
		t.Errorf("%d events for 1000 packets, want one arrival each", n)
	}
	if ts := r.net.TrainStats(); ts.Segments != 999 || ts.Trains == 0 || ts.Trains > ts.Segments || ts.Invalidated != 0 {
		t.Errorf("replay counters %+v, want 999 replayed pops", ts)
	}
}
