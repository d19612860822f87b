package host

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/units"
)

// FuzzWireMatchesSim drives the wire pair (WireMarker, WireOrderer) and the
// simulator's pair (Marker, Orderer on an engine) through one script and
// fails at the first disagreement. The input bytes decode into the script
// (decodeEdgeScript): the discipline, boost factor and τ, a few flows, their
// transmissions in order — first sends, duplicate retransmissions, drops —
// the fabric delay each surviving copy takes, and Expire polls just before,
// at and just after the next deadline.
//
// Both sides see one non-decreasing clock. The simulator's orderer runs on a
// private engine advanced to each call's instant before the call; the wire
// orderer is handed that instant, and before every arrival the script expires
// each deadline due by then at its own instant, as an event loop's timer
// would. A call's releases are compared flow by flow: across flows, one call
// releases in deadline order.
func FuzzWireMatchesSim(f *testing.F) {
	for _, seed := range [][]byte{
		{0x00, 0x01, 0x05, 0x20, 0x01, 0x10, 0x05, 0x48, 0x03, 0x00, 0x01, 0x33},
		{0x09, 0x02, 0x0b, 0x53, 0x22, 0x21, 0x01, 0x9a, 0x05, 0x67, 0x06, 0x00, 0x02, 0x11, 0x23, 0x02},
		{0x11, 0x03, 0x04, 0x04, 0x04, 0x01, 0xff, 0x05, 0xf7, 0x09, 0x80, 0x02, 0x01, 0x03, 0x00, 0x07, 0x01},
		{0x12, 0x00, 0x3c, 0x21, 0x00, 0x21, 0x08, 0x21, 0x10, 0x22, 0x00, 0x22, 0x01, 0x23, 0x02, 0x23, 0x80},
		{0x0d, 0x01, 0x0b, 0x27, 0x01, 0x39, 0x00, 0x0f, 0x47, 0x0b, 0x11, 0x02, 0xe3, 0x03, 0x01},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runEdgeScript(decodeEdgeScript(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWireMatchesSimScripts runs the fuzz target's script over a spread of
// pseudo-random inputs on every test run.
func TestWireMatchesSimScripts(t *testing.T) {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 300; i++ {
		data := make([]byte, 8+i%200)
		for j := range data {
			x = mix(x + uint64(j))
			data[j] = byte(x)
		}
		if err := runEdgeScript(decodeEdgeScript(data)); err != nil {
			t.Fatalf("script %d (% x): %v", i, data, err)
		}
	}
}

// edgeTaus are the ordering timeouts a script picks from: a 1 ns τ that
// expires everything held at the next instant, one shorter than the fabric
// delays a script draws, and the paper's default.
var edgeTaus = [3]units.Time{units.Nanosecond, 50 * units.Microsecond, 360 * units.Microsecond}

type edgeScript struct {
	mcfg  MarkerConfig
	ocfg  OrdererConfig
	sizes []int64 // flow k+1's size
	ops   []edgeOp
}

type edgeOpKind uint8

const (
	edgeSend edgeOpKind = iota
	edgeEnd
	edgePoll
)

// edgeOp is one step of a script, in transmission order: a segment sent at
// at and, unless dropped, arriving delay later; a flow's EndFlow; or an
// Expire poll at instant at, nudged off the next deadline.
type edgeOp struct {
	kind  edgeOpKind
	flow  int
	seq   int64
	at    units.Time
	delay units.Time
	drop  bool
	nudge units.Time
}

// decodeEdgeScript turns fuzz bytes into a script. Any input decodes: missing
// bytes read as zero.
func decodeEdgeScript(data []byte) edgeScript {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	b := next()
	var s edgeScript
	s.mcfg = MarkerConfig{Discipline: Discipline(b & 1), BoostFactorLog2: 1 + uint(b>>1)%3, Boosting: true}
	s.ocfg = OrdererConfig{Timeout: edgeTaus[int(b>>3)%3], Discipline: s.mcfg.Discipline, BoostFactorLog2: s.mcfg.BoostFactorLog2}
	nf := 1 + int(next())%4
	for i := 0; i < nf; i++ {
		b := next()
		s.sizes = append(s.sizes, (1+int64(b%12))*packet.MSS-int64(b>>4)*61)
	}
	sent := make([]int64, nf) // segments first-transmitted so far
	ended := make([]bool, nf)
	var clock units.Time
	for len(data) >= 2 && len(s.ops) < 512 {
		op, arg := next(), next()
		f := int(op>>2) % nf
		clock += units.Time(op>>5) * 7 * units.Microsecond
		segs := (s.sizes[f] + packet.MSS - 1) / packet.MSS
		send := edgeOp{kind: edgeSend, flow: f, at: clock, drop: arg&7 == 0, delay: units.Time(arg>>3) * 12 * units.Microsecond}
		switch op & 3 {
		case 0, 1: // the next new segment; a retransmission once all are out
			if ended[f] {
				continue
			}
			if sent[f] < segs {
				send.seq = sent[f] * packet.MSS
				sent[f]++
			} else {
				send.seq = int64(arg>>1) % segs * packet.MSS
			}
			s.ops = append(s.ops, send)
		case 2: // a retransmission of a segment already out: recovery or duplicate
			if ended[f] || sent[f] == 0 {
				continue
			}
			send.seq = int64(arg) % sent[f] * packet.MSS
			send.drop, send.delay = false, units.Time(arg>>4)*24*units.Microsecond
			s.ops = append(s.ops, send)
		case 3:
			if arg&0x80 != 0 && !ended[f] {
				ended[f] = true
				s.ops = append(s.ops, edgeOp{kind: edgeEnd, flow: f})
				continue
			}
			s.ops = append(s.ops, edgeOp{kind: edgePoll, at: clock, nudge: units.Time(arg%3) - 1})
		}
	}
	return s
}

// edgeArrival is one step of a script's receive side.
type edgeArrival struct {
	at    units.Time
	seg   WireSegment
	poll  bool
	nudge units.Time
}

// runEdgeScript plays s through both pairs and reports the first
// disagreement.
func runEdgeScript(s edgeScript) error {
	wm, sm := NewWireMarker(s.mcfg), NewMarker(s.mcfg)
	for i, size := range s.sizes {
		wm.StartFlow(uint64(i+1), size)
		sm.StartFlow(uint64(i+1), 0, size)
	}
	var rx []edgeArrival
	for i, op := range s.ops {
		key := uint64(op.flow + 1)
		switch op.kind {
		case edgeEnd:
			wm.EndFlow(key)
			sm.EndFlow(key)
		case edgePoll:
			rx = append(rx, edgeArrival{at: op.at, poll: true, nudge: op.nudge})
		case edgeSend:
			size := s.sizes[op.flow]
			n := packet.MSS
			if rem := size - op.seq; rem < int64(n) {
				n = int(rem)
			}
			var hdr [packet.ShimHeaderLen]byte
			wi, err := wm.Mark(key, op.seq, n, hdr[:], 0x0800)
			p := &packet.Packet{Kind: packet.Data, Flow: key, Seq: op.seq, PayloadLen: n}
			sm.Mark(p)
			if err != nil || wi != p.Info {
				return fmt.Errorf("op %d: mark flow %d seq %d: wire %+v (err %v), sim %+v", i, key, op.seq, wi, err, p.Info)
			}
			if got, inner, err := packet.DecodeShim(hdr[:]); err != nil || inner != 0x0800 || got != wi {
				return fmt.Errorf("op %d: shim round trip %+v (%#x, %v), marked %+v", i, got, inner, err, wi)
			}
			if !op.drop {
				rx = append(rx, edgeArrival{at: op.at + op.delay, seg: WireSegment{
					Key: key, Info: wi, Len: n, Last: op.seq+int64(n) == size,
				}})
			}
		}
	}
	if wm.ActiveFlows() != sm.ActiveFlows() {
		return fmt.Errorf("marker active flows: wire %d, sim %d", wm.ActiveFlows(), sm.ActiveFlows())
	}
	sort.SliceStable(rx, func(i, j int) bool { return rx[i].at < rx[j].at })

	eng := sim.NewEngine(1)
	var simOut []WireSegment
	so := NewOrderer(eng, s.ocfg, func(p *packet.Packet) {
		simOut = append(simOut, WireSegment{Key: p.Flow, Info: p.Info, Len: p.PayloadLen, Last: p.Fin})
	})
	wo := NewWireOrderer(s.ocfg)
	base := time.Unix(1_700_000_000, 0)
	var latest units.Time
	// deadline returns both sides' next deadline, clamped to the latest
	// instant seen, once they agree on it.
	deadline := func(step int) (units.Time, bool, error) {
		wdl, wok := wo.NextDeadline()
		sdl, sok := eng.PeekTime()
		w, s := max(units.Time(wdl.Sub(base)), latest), max(sdl, latest)
		if wok != sok || (wok && w != s) {
			return 0, false, fmt.Errorf("step %d: next deadline: wire %v (%v), sim %v (%v)", step, w, wok, s, sok)
		}
		return w, wok, nil
	}
	// expire advances both sides to at and compares what they released.
	expire := func(step int, at units.Time) error {
		latest = at
		eng.Run(at)
		return sameReleases(step, "expire", wo.Expire(base.Add(at.Duration())), &simOut)
	}
	for i, a := range rx {
		if a.poll {
			dl, ok, err := deadline(i)
			if err != nil {
				return err
			}
			if ok {
				if err := expire(i, max(dl+a.nudge, latest)); err != nil {
					return err
				}
			}
			continue
		}
		at := max(a.at, latest)
		for {
			dl, ok, err := deadline(i)
			if err != nil {
				return err
			}
			if !ok || dl > at {
				break
			}
			if err := expire(i, dl); err != nil {
				return err
			}
		}
		latest = at
		eng.Run(at)
		so.Receive(&packet.Packet{Kind: packet.Data, Flow: a.seg.Key, Info: a.seg.Info, PayloadLen: a.seg.Len, Fin: a.seg.Last, Marked: true})
		if err := sameReleases(i, "receive", wo.Receive(base.Add(at.Duration()), a.seg), &simOut); err != nil {
			return err
		}
	}
	for step := len(rx); ; step++ {
		dl, ok, err := deadline(step)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := expire(step, dl); err != nil {
			return err
		}
	}
	if wo.Held != so.Held || wo.Timeouts != so.Timeouts || wo.ActiveFlows() != so.ActiveFlows() {
		return fmt.Errorf("orderer end state: wire held %d timeouts %d active %d, sim held %d timeouts %d active %d",
			wo.Held, wo.Timeouts, wo.ActiveFlows(), so.Held, so.Timeouts, so.ActiveFlows())
	}
	return nil
}

// sameReleases compares one call's releases flow by flow and empties the
// simulator's list.
func sameReleases(step int, call string, wire []WireSegment, simOut *[]WireSegment) error {
	type release struct {
		Info packet.FlowInfo
		Len  int
		Last bool
	}
	byFlow := func(segs []WireSegment) map[uint64][]release {
		m := make(map[uint64][]release)
		for _, s := range segs {
			m[s.Key] = append(m[s.Key], release{s.Info, s.Len, s.Last})
		}
		return m
	}
	w, s := byFlow(wire), byFlow(*simOut)
	*simOut = (*simOut)[:0]
	keys := make([]uint64, 0, len(w)+len(s))
	for k := range w {
		keys = append(keys, k)
	}
	for k := range s {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		ws, ss := w[k], s[k]
		for i := 0; i < len(ws) || i < len(ss); i++ {
			if i >= len(ws) || i >= len(ss) || ws[i] != ss[i] {
				return fmt.Errorf("step %d (%s): flow %d release %d differs:\n wire %+v\n  sim %+v", step, call, k, i, ws, ss)
			}
		}
	}
	return nil
}
