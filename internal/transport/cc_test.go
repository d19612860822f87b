package transport_test

import (
	"math"
	"testing"

	"vertigo/internal/fabric"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// mkSender builds an unstarted sender for white-box congestion tests.
func mkSender(t *testing.T, proto transport.Protocol) *transport.Sender {
	t.Helper()
	r := newRig(t, fabric.DefaultConfig(fabric.ECMP), transport.DefaultConfig(proto), false)
	spec := transport.FlowSpec{ID: r.ids.Next(), Src: 0, Dst: 2, Size: 1 << 20, Query: -1}
	return r.senders.Get(r.hosts[0], r.met, r.ids, spec, nil)
}

func TestSwiftTargetScaling(t *testing.T) {
	s := mkSender(t, transport.Swift)
	// More hops => larger target.
	if a, b := s.SwiftTargetForTest(3), s.SwiftTargetForTest(6); b <= a {
		t.Errorf("target not increasing in hops: %v vs %v", a, b)
	}
	// Smaller cwnd => larger flow-scaling term (Swift §3.2).
	s.SetCwndForTest(16)
	big := s.SwiftTargetForTest(3)
	s.SetCwndForTest(0.5)
	small := s.SwiftTargetForTest(3)
	if small <= big {
		t.Errorf("flow scaling missing: target(cwnd=0.5)=%v <= target(cwnd=16)=%v", small, big)
	}
	// The flow-scaling addition is bounded by FSRange.
	cfg := transport.DefaultSwiftParams()
	if small > big+cfg.FSRange {
		t.Errorf("flow scaling exceeds FSRange: %v vs %v + %v", small, big, cfg.FSRange)
	}
}

func TestRTTEstimator(t *testing.T) {
	s := mkSender(t, transport.Reno)
	s.SampleRTTForTest(100 * units.Microsecond)
	if s.SRTTForTest() != 100*units.Microsecond {
		t.Fatalf("first sample srtt %v", s.SRTTForTest())
	}
	// Jacobson smoothing: srtt moves 1/8 of the way to each new sample.
	s.SampleRTTForTest(200 * units.Microsecond)
	want := units.Time(112500) // 100µs*7/8 + 200µs/8
	if got := s.SRTTForTest(); got != want {
		t.Fatalf("srtt after second sample %v, want %v", got, want)
	}
	// RTO is clamped to minRTO for µs-scale RTTs.
	if got := s.RTOForTest(); got != 10*units.Millisecond {
		t.Fatalf("rto %v, want the 10ms floor", got)
	}
	// Huge samples push the RTO up but never above MaxRTO.
	for i := 0; i < 50; i++ {
		s.SampleRTTForTest(20 * units.Second)
	}
	if got := s.RTOForTest(); got != transport.DefaultConfig(transport.Reno).MaxRTO {
		t.Fatalf("rto %v, want the MaxRTO cap", got)
	}
}

func TestRTOBackoffDoubles(t *testing.T) {
	fcfg := fabric.DefaultConfig(fabric.ECMP)
	tcfg := transport.DefaultConfig(transport.Reno)
	tcfg.FastRetransmit = false
	r := newRig(t, fcfg, tcfg, false)
	// Kill the destination's access link so every transmission is lost:
	// pure RTO territory. Host 2 is on leaf 1; its access link index is 2.
	r.eng.At(0, func() { r.net.SetLinkState(2, false) })
	r.eng.Run(units.Millisecond)
	r.flow(0, 2, 10_000)
	r.eng.Run(20 * units.Second)
	// initRTO 1s, then 2s, 4s (capped): at least 3 RTOs within 20s, and the
	// flow must still be alive (not falsely completed).
	if r.met.RTOs < 3 {
		t.Fatalf("%d RTOs in 20s of blackhole, want >= 3 (backoff broken?)", r.met.RTOs)
	}
	if r.met.RTOs > 8 {
		t.Fatalf("%d RTOs in 20s: backoff not doubling", r.met.RTOs)
	}
}

func TestDCTCPAlphaTracksMarkingFraction(t *testing.T) {
	// Sustained 2:1 congestion with ECN: alpha must settle well above zero,
	// and the window must stay small enough to avoid drops almost entirely.
	fcfg := fabric.DefaultConfig(fabric.ECMP)
	r := newRig(t, fcfg, transport.DefaultConfig(transport.DCTCP), false)
	spec := transport.FlowSpec{ID: r.ids.Next(), Src: 2, Dst: 0, Size: 4 << 20, Query: -1}
	s := r.senders.Get(r.hosts[2], r.met, r.ids, spec, nil)
	s.Start()
	r.flow(3, 0, 4<<20)
	r.eng.Run(3 * units.Millisecond) // mid-flight, ECN active
	if r.met.ECNMarks == 0 {
		t.Fatal("no ECN marks in a 2:1 DCTCP scenario")
	}
	if a := s.AlphaForTest(); a <= 0.01 || a > 1 {
		t.Fatalf("alpha %.4f, want settled in (0.01, 1]", a)
	}
	r.eng.Run(60 * units.Second)
	if !s.Done() {
		t.Fatal("flow incomplete")
	}
}

func TestMaxWindowClamp(t *testing.T) {
	fcfg := fabric.DefaultConfig(fabric.ECMP)
	tcfg := transport.DefaultConfig(transport.Reno)
	tcfg.MaxWindow = 16
	r := newRig(t, fcfg, tcfg, false)
	s := r.flow(0, 2, 8<<20) // uncontended: slow start would explode
	r.eng.Run(20 * units.Millisecond)
	if w := s.Cwnd(); w > 16 {
		t.Fatalf("cwnd %v exceeded MaxWindow 16", w)
	}
	if math.IsNaN(s.Cwnd()) {
		t.Fatal("cwnd NaN")
	}
}

func TestSwiftRecoversFromBlackout(t *testing.T) {
	// Swift's RTO path: collapse to RetxResetCwnd, then complete after the
	// link heals... links don't heal here, so instead: drop-heavy tiny
	// buffer, Swift must still finish.
	fcfg := fabric.DefaultConfig(fabric.ECMP)
	fcfg.BufferBytes = 4 * 1500
	fcfg.ECNThreshold = 0
	r := newRig(t, fcfg, transport.DefaultConfig(transport.Swift), false)
	s1 := r.flow(2, 0, 200_000)
	s2 := r.flow(3, 0, 200_000)
	r.eng.Run(60 * units.Second)
	if !s1.Done() || !s2.Done() {
		t.Fatalf("swift flows incomplete under heavy loss (drops=%d)", r.met.TotalDrops())
	}
}
