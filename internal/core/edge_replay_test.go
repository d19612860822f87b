package core

import (
	"fmt"
	"testing"
	"time"

	"vertigo/internal/fabric"
	"vertigo/internal/faults"
	"vertigo/internal/host"
	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/telemetry"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// TestWireReplaysTheSimulatedEdge is the host stack's interop check: one
// capture, two implementations, the first disagreement shown. It records
// every host's marked transmissions and marked arrivals in a real run, then
// replays each host's sequences through the deployable wire components —
// every header through both flowinfo encodings — and through a fresh
// simulator Orderer on a private engine. The wire marker must stamp what the
// run's markers stamped; the wire orderer must release what the fresh
// orderer releases, flow by flow, at the same instants; and the fresh
// orderer must reproduce each host's Held, Timeouts and Releases, which
// shows the replay is the run's.
func TestWireReplaysTheSimulatedEdge(t *testing.T) {
	base := smallConfig(fabric.Vertigo, transport.DCTCP)
	base.SimTime = 10 * units.Millisecond

	las := base
	las.Marker.Discipline = host.LAS

	flaps := base
	flaps.Faults = (&faults.Schedule{}).Add(faults.Flap(
		base.NumHosts(), base.SimTime/4, base.SimTime/16, base.SimTime/8, 3)...)

	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"vertigo-dctcp", base}, {"las", las}, {"flapstorm", flaps}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, w := captureEdges(t, tc.cfg)
			ocfg := tc.cfg.Orderer
			ocfg.Discipline, ocfg.BoostFactorLog2 = tc.cfg.Marker.Discipline, tc.cfg.Marker.BoostFactorLog2
			var marks, arrivals int
			var timeouts int64
			for h, hst := range w.hosts {
				marks += len(c.tx[h])
				arrivals += len(c.rx[h])
				timeouts += hst.Orderer.Timeouts
				if err := replayTx(tc.cfg.Marker, c.tx[h]); err != nil {
					t.Fatalf("host %d transmit: %v", h, err)
				}
				if err := replayRx(ocfg, tc.cfg.SimTime, c.rx[h], hst.Orderer); err != nil {
					t.Fatalf("host %d receive: %v", h, err)
				}
			}
			t.Logf("%d marks, %d arrivals, %d ordering timeouts replayed", marks, arrivals, timeouts)
			if marks == 0 || arrivals == 0 {
				t.Fatal("the run marked or delivered nothing: the replay shows nothing")
			}
		})
	}
}

// edgeTx is one marking of a host's transmit path — or, with end set, the
// EndFlow its sender made on the ACK that completed the flow.
type edgeTx struct {
	flow uint64
	dst  int
	seq  int64
	n    int
	size int64
	info packet.FlowInfo
	end  bool
}

// edgeRx is one marked data packet off the fabric at its destination.
type edgeRx struct {
	at   units.Time
	flow uint64
	n    int
	fin  bool
	info packet.FlowInfo
}

// edgeCapture is a fabric.Observer recording both edges of every host.
type edgeCapture struct {
	eng   *sim.Engine
	tx    [][]edgeTx // by source host
	rx    [][]edgeRx // by destination host
	size  map[uint64]int64
	ended map[uint64]bool
}

// Enqueue records a marking: the host NIC queues a packet right after its
// marker stamped it, and never drops one there.
func (c *edgeCapture) Enqueue(sw, _ int, p *packet.Packet, _ units.ByteSize) {
	if sw != -1 || p.Kind != packet.Data || !p.Marked {
		return
	}
	c.size[p.Flow] = p.FlowSize
	c.tx[p.Src] = append(c.tx[p.Src], edgeTx{
		flow: p.Flow, dst: p.Dst, seq: p.Seq, n: p.PayloadLen, size: p.FlowSize, info: p.Info,
	})
}

// Deliver records marked arrivals, and the ACK that completes a sender: the
// first to cover the whole flow, on which the sender ends its flow.
func (c *edgeCapture) Deliver(h int, p *packet.Packet) {
	switch {
	case p.Kind == packet.Data && p.Marked:
		c.rx[h] = append(c.rx[h], edgeRx{at: c.eng.Now(), flow: p.Flow, n: p.PayloadLen, fin: p.Fin, info: p.Info})
	case p.Kind == packet.Ack:
		if size, ok := c.size[p.Flow]; ok && !c.ended[p.Flow] && p.AckSeq >= size {
			c.ended[p.Flow] = true
			c.tx[h] = append(c.tx[h], edgeTx{flow: p.Flow, end: true})
		}
	}
}

func (c *edgeCapture) Transmit(int, int, *packet.Packet, units.Time, units.ByteSize) {}
func (c *edgeCapture) Deflect(int, int, int, *packet.Packet)                         {}
func (c *edgeCapture) Drop(int, int, *packet.Packet, metrics.DropReason)             {}
func (c *edgeCapture) Fault(telemetry.FaultEvent)                                    {}

// captureEdges runs cfg serially, as Run does, with an edgeCapture attached,
// and checks the observed run is Run's.
func captureEdges(t *testing.T, cfg Config) (*edgeCapture, *world) {
	t.Helper()
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.NewLeafSpine(cfg.LeafSpineCfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorld(&cfg, tp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := &edgeCapture{
		eng: w.eng, tx: make([][]edgeTx, tp.NumHosts), rx: make([][]edgeRx, tp.NumHosts),
		size: make(map[uint64]int64), ended: make(map[uint64]bool),
	}
	w.net.AddObserver(c)
	err = armGenerators(&cfg, w.eng, w.met, tp.NumHosts, nil, func(src, dst int, size int64, incast bool, query int) {
		spec := transport.FlowSpec{ID: w.ids.Next(), Src: src, Dst: dst, Size: size, Incast: incast, Query: query}
		w.senders.Get(w.hosts[src], w.met, w.ids, spec, nil).Start()
	})
	if err != nil {
		t.Fatal(err)
	}
	w.bound(&cfg)
	w.eng.Run(cfg.SimTime)
	res, err := w.finish(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.Events != ref.Engine.Events {
		t.Fatalf("captured run fired %d events, Run %d: not the same run", res.Engine.Events, ref.Engine.Events)
	}
	return c, w
}

// replayTx marks a host's transmissions again with wire markers, one per
// destination — the simulator keeps a flow epoch per destination, a wire
// marker one for all its flows — and round-trips every header through the
// shim and the IPv4-option encodings.
func replayTx(mcfg host.MarkerConfig, tx []edgeTx) error {
	markers := make(map[int]*host.WireMarker)
	dst := make(map[uint64]int)
	for i, r := range tx {
		if r.end {
			markers[dst[r.flow]].EndFlow(r.flow)
			continue
		}
		m := markers[r.dst]
		if m == nil {
			m = host.NewWireMarker(mcfg)
			markers[r.dst] = m
		}
		if _, ok := dst[r.flow]; !ok {
			dst[r.flow] = r.dst
			m.StartFlow(r.flow, r.size)
		}
		var hdr [packet.ShimHeaderLen]byte
		if _, err := m.Mark(r.flow, r.seq, r.n, hdr[:], 0x0800); err != nil {
			return fmt.Errorf("mark %d (flow %d seq %d): %v", i, r.flow, r.seq, err)
		}
		got, err := throughCodecs(hdr[:])
		if err != nil {
			return fmt.Errorf("mark %d: %v", i, err)
		}
		if got != r.info {
			return fmt.Errorf("mark %d (flow %d seq %d): wire %+v, run %+v", i, r.flow, r.seq, got, r.info)
		}
	}
	return nil
}

// throughCodecs decodes a shim header and sends its flowinfo through the
// IPv4-option encoding and back.
func throughCodecs(shim []byte) (packet.FlowInfo, error) {
	fi, inner, err := packet.DecodeShim(shim)
	if err != nil || inner != 0x0800 {
		return fi, fmt.Errorf("shim decode: %v (inner %#x)", err, inner)
	}
	var opt [packet.OptionLen]byte
	if _, err := packet.EncodeOption(opt[:], fi); err != nil {
		return fi, err
	}
	return packet.DecodeOption(opt[:])
}

// edgeRelease is one segment an orderer handed up, and when.
type edgeRelease struct {
	at   units.Time
	info packet.FlowInfo
	n    int
}

// replayRx feeds a host's arrivals, at their instants, to a wire orderer and
// to a fresh simulator orderer on a private engine, to the end of the run,
// and compares their releases flow by flow and the fresh orderer's counters
// with the run's orderer.
func replayRx(ocfg host.OrdererConfig, horizon units.Time, rx []edgeRx, run *host.Orderer) error {
	eng := sim.NewEngine(1)
	simRel := make(map[uint64][]edgeRelease)
	fresh := host.NewOrderer(eng, ocfg, func(p *packet.Packet) {
		simRel[p.Flow] = append(simRel[p.Flow], edgeRelease{eng.Now(), p.Info, p.PayloadLen})
	})
	wo := host.NewWireOrderer(ocfg)
	wireRel := make(map[uint64][]edgeRelease)
	epoch := time.Unix(0, 0)
	var latest units.Time
	// take records a wire call's releases at its instant, clamped to the
	// latest instant either side has seen.
	take := func(segs []host.WireSegment, at units.Time) {
		for _, s := range segs {
			wireRel[s.Key] = append(wireRel[s.Key], edgeRelease{max(at, latest), s.Info, s.Len})
		}
	}
	// expireUntil fires every wire deadline due by t at its own instant. An
	// Expire at a deadline fires everything due by it, so the next one is later.
	expireUntil := func(t units.Time) error {
		for last := units.Time(-1); ; {
			dl, ok := wo.NextDeadline()
			at := units.Time(dl.Sub(epoch))
			switch {
			case !ok || at > t:
				return nil
			case at <= last:
				return fmt.Errorf("deadline %v still pending after an Expire at %v", at, last)
			}
			take(wo.Expire(dl), at)
			last = at
		}
	}
	for _, r := range rx {
		var opt [packet.OptionLen]byte
		if _, err := packet.EncodeOption(opt[:], r.info); err != nil {
			return err
		}
		info, err := packet.DecodeOption(opt[:])
		if err != nil {
			return err
		}
		var shim [packet.ShimHeaderLen]byte
		if _, err := packet.EncodeShim(shim[:], info, 0x0800); err != nil {
			return err
		}
		if info, _, err = packet.DecodeShim(shim[:]); err != nil {
			return err
		}
		if err := expireUntil(r.at); err != nil {
			return err
		}
		latest = max(latest, r.at)
		take(wo.Receive(epoch.Add(r.at.Duration()), host.WireSegment{Key: r.flow, Info: info, Len: r.n, Last: r.fin}), r.at)

		eng.Run(r.at)
		fresh.Receive(&packet.Packet{Kind: packet.Data, Flow: r.flow, Info: r.info, PayloadLen: r.n, Fin: r.fin, Marked: true})
	}
	if err := expireUntil(horizon); err != nil {
		return err
	}
	eng.Run(horizon)

	if fresh.Held != run.Held || fresh.Timeouts != run.Timeouts || fresh.Releases != run.Releases {
		return fmt.Errorf("fresh orderer held %d, timeouts %d, releases %d; the run's %d, %d, %d",
			fresh.Held, fresh.Timeouts, fresh.Releases, run.Held, run.Timeouts, run.Releases)
	}
	if wo.Held != fresh.Held || wo.Timeouts != fresh.Timeouts {
		return fmt.Errorf("wire orderer held %d, timeouts %d; fresh orderer %d, %d",
			wo.Held, wo.Timeouts, fresh.Held, fresh.Timeouts)
	}
	for flow, want := range simRel {
		got := wireRel[flow]
		for i := 0; i < len(got) || i < len(want); i++ {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				return fmt.Errorf("flow %d release %d differs:\n wire %+v\n  sim %+v", flow, i, got, want)
			}
		}
	}
	if len(wireRel) != len(simRel) {
		return fmt.Errorf("wire released %d flows, fresh orderer %d", len(wireRel), len(simRel))
	}
	return nil
}
