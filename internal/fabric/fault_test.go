package fabric

import (
	"testing"

	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/units"
)

// Topology of testNet (2 spines, 2 leaves, 2 hosts/leaf): links 0-3 are host
// access links, link 4 is leaf 0's first uplink (to spine 0), link 5 its
// second; switch IDs 0,1 are leaves, 2,3 spines.

func TestFailLinkAtTimeZero(t *testing.T) {
	// Failing a link at t=0, before any event has run, must blackhole the
	// destination from the first packet on.
	eng, net, met, got := testNet(t, DefaultConfig(ECMP))
	var ids packet.IDGen
	eng.At(0, func() { net.SetLinkState(1, false) })
	for i := 0; i < 10; i++ {
		net.Send(dataPkt(&ids, 0, 1, 5, 100))
	}
	eng.Run(units.Second)
	if len(got[1]) != 0 {
		t.Fatalf("delivered %d packets over a link dead since t=0", len(got[1]))
	}
	if !net.LinkDown(1) {
		t.Fatal("LinkDown(1) = false after failing link 1 at t=0")
	}
	if met.FaultEvents != 1 {
		t.Fatalf("FaultEvents = %d, want 1", met.FaultEvents)
	}
}

func TestDoubleFailSameLinkIsIdempotent(t *testing.T) {
	// Failing an already-dead link must not disturb downtime accounting: the
	// recovery still reports one outage spanning the first failure.
	eng, net, met, _ := testNet(t, DefaultConfig(ECMP))
	eng.At(10*units.Microsecond, func() { net.SetLinkState(4, false) })
	eng.At(20*units.Microsecond, func() { net.SetLinkState(4, false) })
	eng.At(30*units.Microsecond, func() { net.SetLinkState(4, true) })
	eng.Run(units.Millisecond)
	if net.LinkDown(4) {
		t.Fatal("link still down after recovery")
	}
	if met.RecoveryCount() != 1 {
		t.Fatalf("recorded %d recoveries, want 1", met.RecoveryCount())
	}
	if want := 20 * units.Microsecond; met.MTTR() != want {
		t.Fatalf("downtime = %v, want %v (from the first failure)", met.MTTR(), want)
	}
}

func TestFailThenRecoverSameTimestamp(t *testing.T) {
	// A down and an up scheduled for the same instant resolve in scheduling
	// order: down first, up second leaves the link usable.
	eng, net, _, got := testNet(t, DefaultConfig(ECMP))
	var ids packet.IDGen
	const at = 10 * units.Microsecond
	eng.At(at, func() { net.SetLinkState(1, false) })
	eng.At(at, func() { net.SetLinkState(1, true) })
	eng.Run(20 * units.Microsecond)
	if net.LinkDown(1) {
		t.Fatal("link down after same-timestamp fail-then-recover")
	}
	for i := 0; i < 10; i++ {
		net.Send(dataPkt(&ids, 0, 1, 5, 100))
	}
	eng.Run(units.Second)
	if len(got[1]) != 10 {
		t.Fatalf("delivered %d of 10 after recovery", len(got[1]))
	}
}

func TestRecoveredLinkCarriesTraffic(t *testing.T) {
	// Fail host 1's access link, let the blackhole happen, recover it, send
	// again: the new traffic must flow and be counted as post-recovery.
	eng, net, met, got := testNet(t, DefaultConfig(ECMP))
	var ids packet.IDGen
	eng.At(0, func() { net.SetLinkState(1, false) })
	eng.At(100*units.Microsecond, func() { net.SetLinkState(1, true) })
	eng.Run(50 * units.Microsecond)
	net.Send(dataPkt(&ids, 0, 1, 5, 100)) // dies on the dead link
	eng.Run(200 * units.Microsecond)
	const n = 10
	for i := 0; i < n; i++ {
		net.Send(dataPkt(&ids, 0, 1, 5, 100))
	}
	eng.Run(units.Second)
	if len(got[1]) != n {
		t.Fatalf("delivered %d of %d after carrier recovery", len(got[1]), n)
	}
	if met.PostRecoveryTx == 0 {
		t.Fatal("PostRecoveryTx = 0: recovered link's traffic not accounted")
	}
	if met.RecoveryCount() != 1 || met.MTTR() != 100*units.Microsecond {
		t.Fatalf("recoveries = %d (MTTR %v), want one 100µs outage", met.RecoveryCount(), met.MTTR())
	}
}

func TestCorruptionDropsProbabilistically(t *testing.T) {
	// BER 1 corrupts every packet on the wire: nothing arrives, every loss is
	// classified DropCorrupt, and the wire still carries (and wastes) them.
	eng, net, met, got := testNet(t, DefaultConfig(ECMP))
	var ids packet.IDGen
	eng.At(0, func() { net.SetLinkBER(1, 1) })
	const n = 20
	for i := 0; i < n; i++ {
		net.Send(dataPkt(&ids, 0, 1, 5, 100))
	}
	eng.Run(units.Second)
	if len(got[1]) != 0 {
		t.Fatalf("delivered %d packets through a BER=1 link", len(got[1]))
	}
	if met.Drops[metrics.DropCorrupt] != n {
		t.Fatalf("corrupt drops = %d, want %d", met.Drops[metrics.DropCorrupt], n)
	}
	// Clearing the fault restores delivery.
	net.SetLinkBER(1, 0)
	for i := 0; i < n; i++ {
		net.Send(dataPkt(&ids, 0, 1, 5, 100))
	}
	eng.Run(2 * units.Second)
	if len(got[1]) != n {
		t.Fatalf("delivered %d of %d after clearing BER", len(got[1]), n)
	}
}

func TestDegradeSlowsDelivery(t *testing.T) {
	// The same transfer over a 10x-degraded access link must finish later.
	elapsed := func(factor float64) units.Time {
		eng, net, _, _ := testNet(t, DefaultConfig(ECMP))
		var ids packet.IDGen
		var last units.Time
		var delivered int
		net.RegisterHost(1, recvFunc(func(p *packet.Packet) {
			last = eng.Now()
			delivered++
		}))
		if factor != 1 {
			eng.At(0, func() { net.SetLinkRateFactor(1, factor) })
		}
		for i := 0; i < 20; i++ {
			net.Send(dataPkt(&ids, 0, 1, 5, 100))
		}
		eng.Run(units.Second)
		if delivered != 20 {
			t.Fatalf("factor %g: delivered %d of 20", factor, delivered)
		}
		return last
	}
	full := elapsed(1)
	slow := elapsed(0.1)
	if slow <= full {
		t.Fatalf("degraded run finished at %v, full-rate at %v; want slower", slow, full)
	}
}

func TestSwitchDeathDropsArrivals(t *testing.T) {
	// Kill spine 0 (switch ID 2) and flood cross-leaf ECMP traffic: flows
	// hashed onto the dead spine blackhole, and any packet already in flight
	// toward it is discarded on arrival, never delivered.
	eng, net, met, got := testNet(t, DefaultConfig(ECMP))
	var ids packet.IDGen
	// Kill mid-burst so packets are queued toward (and in flight to) the
	// spine when it dies.
	eng.At(5*units.Microsecond, func() { net.SetSwitchState(2, false) })
	const n = 40
	for i := 0; i < n; i++ {
		net.Send(dataPkt(&ids, 0, 2, uint64(i), 100)) // many flows, both spines
	}
	eng.Run(units.Second)
	if !net.SwitchDown(2) {
		t.Fatal("SwitchDown(2) = false")
	}
	if len(got[2]) == n {
		t.Fatal("all packets delivered despite a dead spine")
	}
	// Losses at a dead port are carrier drops (flushed queues, discarded
	// arrivals) or tail drops, since a dead port behaves like a full queue.
	if met.Drops[metrics.DropLinkDown]+met.Drops[metrics.DropOverflow] == 0 {
		t.Fatal("no drops recorded for traffic into the dead spine")
	}
	// Recovery brings the whole switch back: new flows all complete.
	net.SetSwitchState(2, true)
	before := len(got[2])
	for i := 0; i < n; i++ {
		net.Send(dataPkt(&ids, 0, 2, uint64(100+i), 100))
	}
	eng.Run(2 * units.Second)
	if len(got[2])-before != n {
		t.Fatalf("delivered %d of %d after switch recovery", len(got[2])-before, n)
	}
}

func TestInstallFIBRoutesAroundFailure(t *testing.T) {
	// ECMP with leaf 0's uplink to spine 0 dead: half the cross-leaf flows
	// blackhole. Installing FIBs computed without the dead link (the healing
	// step) restores full delivery with no deflection needed.
	eng, net, met, got := testNet(t, DefaultConfig(ECMP))
	var ids packet.IDGen
	eng.At(0, func() { net.SetLinkState(4, false) })
	eng.At(10*units.Microsecond, func() {
		net.InstallFIB(net.Topo.FIBExcluding(func(li int) bool { return li == 4 }))
	})
	eng.Run(20 * units.Microsecond)
	const n = 40
	for i := 0; i < n; i++ {
		net.Send(dataPkt(&ids, 0, 2, uint64(i), 100))
	}
	eng.Run(units.Second)
	if len(got[2]) != n {
		t.Fatalf("delivered %d of %d after healing around the dead uplink", len(got[2]), n)
	}
	if met.FIBInstalls != 1 {
		t.Fatalf("FIBInstalls = %d, want 1", met.FIBInstalls)
	}
	if met.Deflections != 0 {
		t.Fatal("healed ECMP fabric should not deflect")
	}
}

// TestInstallFIBRoundTripDRILL heals around a dead uplink and back under
// DRILL, whose per-group memory is keyed by candidate identity (drillKey):
// the healed table routes every packet over the surviving uplink, and
// reinstalling the pristine table brings back the very candidate lists the
// run started with — same backing array, same key — and both uplinks.
func TestInstallFIBRoundTripDRILL(t *testing.T) {
	eng, net, met, got := testNet(t, DefaultConfig(DRILL))
	var ids packet.IDGen
	burst := func(n int) {
		before := len(got[2])
		for i := 0; i < n; i++ {
			net.Send(dataPkt(&ids, 0, 2, uint64(i), 100))
		}
		eng.Run(eng.Now() + units.Millisecond)
		if d := len(got[2]) - before; d != n {
			t.Fatalf("delivered %d of %d", d, n)
		}
	}
	leaf0 := net.Switch(0)
	pristine := leaf0.candidates(&packet.Packet{Dst: 2})
	if len(pristine) != 2 {
		t.Fatalf("leaf 0 has %d uplink candidates toward leaf 1, want 2", len(pristine))
	}
	key := drillKey(pristine)
	burst(40)
	if leaf0.drillMem.Get(key) == nil {
		t.Fatal("DRILL remembered nothing for the uplink group")
	}

	// Link 4 is leaf 0's uplink to spine 0 (port pristine[0]).
	const dead = 4
	net.SetLinkState(dead, false)
	net.InstallFIB(net.Topo.FIBExcluding(func(li int) bool { return li == dead }))
	healed := leaf0.candidates(&packet.Packet{Dst: 2})
	if len(healed) != 1 || healed[0] != pristine[1] {
		t.Fatalf("healed candidates %v, want only %d", healed, pristine[1])
	}
	drops := met.Drops[metrics.DropLinkDown] + met.Drops[metrics.DropOverflow]
	burst(40)
	if d := met.Drops[metrics.DropLinkDown] + met.Drops[metrics.DropOverflow] - drops; d != 0 {
		t.Fatalf("%d packets lost on the healed table", d)
	}

	net.SetLinkState(dead, true)
	net.InstallFIB(net.Topo.FIB)
	back := leaf0.candidates(&packet.Packet{Dst: 2})
	if len(back) != 2 || &back[0] != &pristine[0] || drillKey(back) != key {
		t.Fatalf("pristine table reinstalled: candidates %v (key %x), want the original %v (key %x)",
			back, drillKey(back), pristine, key)
	}
	// The memory DRILL kept across the heal names a port of the group it is
	// filed under, so the first packets after the round trip can use it.
	if mem := leaf0.drillMem.Get(key); mem == nil || (int(*mem) != pristine[0] && int(*mem) != pristine[1]) {
		t.Fatal("DRILL memory for the uplink group lost or foreign after the round trip")
	}
	burst(40)
	for _, i := range pristine {
		if leaf0.Port(i).wasDown != (i == pristine[0]) {
			t.Fatalf("uplink %d: wasDown=%v", i, leaf0.Port(i).wasDown)
		}
	}
	if met.PostRecoveryTx == 0 {
		t.Fatal("no packet used the recovered uplink after the pristine table went back in")
	}
	if met.FIBInstalls != 2 {
		t.Fatalf("FIBInstalls = %d, want 2", met.FIBInstalls)
	}
}
