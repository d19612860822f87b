package host

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/units"
)

// mkFlow builds the marked packets of one SRPT flow of n full segments.
func mkFlow(flow uint64, n int) []*packet.Packet {
	size := int64(n * packet.MSS)
	pkts := make([]*packet.Packet, n)
	for i := 0; i < n; i++ {
		seq := int64(i * packet.MSS)
		pkts[i] = &packet.Packet{
			Kind:       packet.Data,
			Flow:       flow,
			Seq:        seq,
			PayloadLen: packet.MSS,
			FlowSize:   size,
			Fin:        i == n-1,
			Marked:     true,
			Info: packet.FlowInfo{
				RFS:   uint32(size - seq),
				First: seq == 0,
			},
		}
	}
	return pkts
}

// collectDelivery runs the orderer over pkts in the given arrival order with
// the given inter-arrival gap and returns the delivered sequence offsets.
func collectDelivery(t *testing.T, pkts []*packet.Packet, gap units.Time) []int64 {
	t.Helper()
	eng := sim.NewEngine(1)
	var got []int64
	o := NewOrderer(eng, DefaultOrdererConfig(), func(p *packet.Packet) {
		got = append(got, p.Seq)
	})
	at := units.Time(0)
	for _, p := range pkts {
		p := p
		eng.At(at, func() { o.Receive(p) })
		at += gap
	}
	eng.Run(10 * units.Second)
	return got
}

func TestOrdererInOrderPassThrough(t *testing.T) {
	pkts := mkFlow(1, 10)
	got := collectDelivery(t, pkts, units.Microsecond)
	if len(got) != 10 {
		t.Fatalf("delivered %d packets, want 10", len(got))
	}
	for i, seq := range got {
		if seq != int64(i*packet.MSS) {
			t.Fatalf("delivery %d: seq %d, want %d", i, seq, i*packet.MSS)
		}
	}
}

func TestOrdererReversedWindow(t *testing.T) {
	// SRPT queues dequeue a flow's later packets first; the orderer must
	// invert that back before the transport sees it.
	pkts := mkFlow(2, 10)
	rev := make([]*packet.Packet, 10)
	for i := range pkts {
		rev[9-i] = pkts[i]
	}
	got := collectDelivery(t, rev, units.Microsecond)
	if len(got) != 10 {
		t.Fatalf("delivered %d packets, want 10", len(got))
	}
	for i, seq := range got {
		if seq != int64(i*packet.MSS) {
			t.Fatalf("delivery %d: seq %d, want %d (full order %v)", i, seq, i*packet.MSS, got)
		}
	}
}

func TestOrdererRandomPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		pkts := mkFlow(uint64(100+trial), n)
		perm := rng.Perm(n)
		shuffled := make([]*packet.Packet, n)
		for i, j := range perm {
			shuffled[i] = pkts[j]
		}
		got := collectDelivery(t, shuffled, 500*units.Nanosecond)
		if len(got) != n {
			t.Fatalf("trial %d: delivered %d packets, want %d", trial, len(got), n)
		}
		for i, seq := range got {
			if seq != int64(i*packet.MSS) {
				t.Fatalf("trial %d: delivery %d is seq %d, want %d (perm %v, got %v)",
					trial, i, seq, i*packet.MSS, perm, got)
			}
		}
	}
}

func TestOrdererTimeoutReleasesGap(t *testing.T) {
	// Lose packet 2 of 5: the orderer must hold 3,4,5 for τ, then release.
	pkts := mkFlow(3, 5)
	arrive := []*packet.Packet{pkts[0], pkts[2], pkts[3], pkts[4]} // pkts[1] lost
	got := collectDelivery(t, arrive, units.Microsecond)
	if len(got) != 4 {
		t.Fatalf("delivered %d packets, want 4 (got %v)", len(got), got)
	}
	want := []int64{0, 2 * packet.MSS, 3 * packet.MSS, 4 * packet.MSS}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", got, want)
		}
	}
}

func TestOrdererHoldsUntilTimeout(t *testing.T) {
	pkts := mkFlow(4, 3)
	eng := sim.NewEngine(1)
	var got []int64
	cfg := DefaultOrdererConfig()
	o := NewOrderer(eng, cfg, func(p *packet.Packet) { got = append(got, p.Seq) })
	// First packet arrives, then a gap: packet 3 arrives without packet 2.
	eng.At(0, func() { o.Receive(pkts[0]) })
	eng.At(units.Microsecond, func() { o.Receive(pkts[2]) })
	eng.Run(cfg.Timeout / 2)
	if len(got) != 1 {
		t.Fatalf("before timeout: delivered %v, want only seq 0", got)
	}
	eng.Run(10 * units.Second)
	if len(got) != 2 {
		t.Fatalf("after timeout: delivered %v, want 2 packets", got)
	}
}

// reorderedFlow is one three-packet flow's life on an orderer: its packets
// arrive last first, as out of an RFS-sorted queue, so two are held under a
// τ-timer until the first one releases the run and finishes the flow.
func reorderedFlow(o *Orderer, pkts []*packet.Packet) {
	o.Receive(pkts[2])
	o.Receive(pkts[1])
	o.Receive(pkts[0])
}

// TestOrdererSlotChurnAllocatesNothing pins what the argument timers (a
// flow ID, not a closure) and the kept reorder window buy: a flow-table slot hosting one reordered flow
// after another — buffer, arm τ, release, tombstone, reclaim — costs its
// first tenant a window and every later one nothing, where closures bound to
// the slot cost two objects and arena buffers three per fresh slot. The
// in-order stream is the datapath's common case — flow-table hit, position
// compare, direct delivery — across the same turnover: it never allocates.
func TestOrdererSlotChurnAllocatesNothing(t *testing.T) {
	inOrder := func(o *Orderer, pkts []*packet.Packet) {
		for _, p := range pkts {
			o.Receive(p)
		}
	}
	for _, tc := range []struct {
		name   string
		segs   int
		arrive func(*Orderer, []*packet.Packet)
		held   int // packets a tenant has buffered before they are released
	}{
		{"reordered", 3, reorderedFlow, 2},
		{"in order", 64, inOrder, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			cfg := DefaultOrdererConfig()
			delivered := 0
			o := NewOrderer(eng, cfg, func(*packet.Packet) { delivered++ })
			pkts := mkFlow(0, tc.segs)
			tenants := 0
			var first *orderFlow
			tenant := func() {
				tenants++
				for _, p := range pkts {
					p.Flow++
				}
				tc.arrive(o, pkts)
				if st := o.dir.order(pkts[0].Flow); first == nil {
					first = st
				} else if st != first {
					t.Fatalf("tenant %d landed in slot %p, want the recycled slot %p", tenants, st, first)
				}
				eng.Run(eng.Now() + 2*cfg.Timeout) // past the tombstone's reclaim
			}
			tenant()
			if avg := testing.AllocsPerRun(1000, tenant); avg != 0 {
				t.Fatalf("a recycled slot's tenant allocates %.3f objects, want 0", avg)
			}
			if delivered != tc.segs*tenants || o.Held != int64(tc.held*tenants) || o.Timeouts != 0 || o.ActiveFlows() != 0 {
				t.Fatalf("%d tenants: delivered %d, held %d, %d timeouts, %d flows left",
					tenants, delivered, o.Held, o.Timeouts, o.ActiveFlows())
			}
		})
	}
}

// TestOrdererFreshSlotsShareChunks bounds the other end: 64 flows reordered
// at once take 64 fresh slots, whose windows are carved from one chunk an
// array — not three arrays and two closures a slot. What is left is an empty
// table's first page and its probe array doubling its way to 64 entries.
//
// MemStats.Mallocs counts the whole process, so a reading also holds what the
// runtime allocated meanwhile (more of it under -race, or beside other
// packages' tests). The bound holds for the least of a few readings, each
// the first use of a fresh orderer on an engine of its own.
func TestOrdererFreshSlotsShareChunks(t *testing.T) {
	const slots, readings = 64, 5
	cfg := DefaultOrdererConfig()
	least := uint64(math.MaxUint64)
	for r := 0; r < readings; r++ {
		eng := sim.NewEngine(1)
		delivered := 0
		o := NewOrderer(eng, cfg, func(*packet.Packet) { delivered++ })
		// Size the engine's frame free list and far-timer heap first, so
		// that the count below is the orderer's own.
		for i := 0; i < 256; i++ {
			eng.After(units.Millisecond+units.Time(i), func() {})
		}
		eng.Run(2 * units.Millisecond)
		flows := make([][]*packet.Packet, slots)
		for i := range flows {
			flows[i] = mkFlow(uint64(1+i), 3)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, pkts := range flows {
			reorderedFlow(o, pkts)
		}
		runtime.ReadMemStats(&m1)
		least = min(least, m1.Mallocs-m0.Mallocs)
		if o.ActiveFlows() != slots || delivered != 3*slots {
			t.Fatalf("%d tombstones, %d delivered; want %d and %d", o.ActiveFlows(), delivered, slots, 3*slots)
		}
		eng.Run(eng.Now() + 2*cfg.Timeout)
		if o.ActiveFlows() != 0 {
			t.Fatalf("%d tombstones survived reclaim", o.ActiveFlows())
		}
	}
	t.Logf("%d fresh slots: %d allocations (least of %d readings)", slots, least, readings)
	if least > 12 {
		t.Fatalf("first use of %d slots cost %d allocations, want at most 12", slots, least)
	}
}

// TestTombstoneExpiresAtDeadline pins a finished flow's afterlife. Its
// tombstone answers stragglers until finishedAt+τ and not from then on,
// whether or not the reclaim queue has collected it yet; the queue holds one
// event for any number of tombstones; and a straggler that outlives τ leaves
// an in-order slot that holds no buffer.
func TestTombstoneExpiresAtDeadline(t *testing.T) {
	if o, r, e := unsafe.Sizeof(orderFlow{}), unsafe.Sizeof(recvFlow{}), unsafe.Sizeof(reclaimEntry{}); o > 24 || r > 32 || e != 16 {
		t.Fatalf("ordering state %d bytes, receive slot %d, reclaim entry %d; want at most 24, at most 32, and 16", o, r, e)
	}
	eng := sim.NewEngine(1)
	cfg := DefaultOrdererConfig()
	tau := cfg.Timeout
	delivered := 0
	o := NewOrderer(eng, cfg, func(*packet.Packet) { delivered++ })

	// Flow 1 finishes at 10 µs. Its first segment comes back twice: one tick
	// before the deadline and at it — the latter by an event scheduled before
	// the finish, so that it runs ahead of the reclaim event of that instant
	// and meets the uncollected tombstone.
	pkts := mkFlow(1, 2)
	finish := 10 * units.Microsecond
	var recreated *orderFlow
	eng.At(finish+tau, func() {
		o.Receive(pkts[0])
		recreated = o.dir.order(1)
	})
	eng.Run(finish)
	o.Receive(pkts[0])
	o.Receive(pkts[1])
	if delivered != 2 || o.ActiveFlows() != 1 {
		t.Fatalf("delivered %d, %d flows; want 2 and the tombstone", delivered, o.ActiveFlows())
	}
	eng.Run(finish + tau - 1)
	o.Receive(pkts[0])
	if st := o.dir.order(1); delivered != 3 || st == nil || !st.finished {
		t.Fatalf("a straggler at finishedAt+τ-1: delivered %d, state %+v; want it passed through a tombstone", delivered, st)
	}
	eng.Run(finish + tau)
	if st := recreated; delivered != 4 || st == nil || st.finished || !st.hasExpected || st.expected != pkts[1].Info.RFS {
		t.Fatalf("a straggler at finishedAt+τ: delivered %d, state %+v; want a new in-order state expecting the second segment", delivered, st)
	}
	// Nothing ends the re-created state: it stays, stranded, with no buffer.
	eng.Run(finish + 3*tau)
	if st := o.dir.order(1); o.ActiveFlows() != 1 || st == nil || st.buf != 0 || o.dir.footprint().OrderBuffers != 0 {
		t.Fatalf("%d flows, state %+v, %d buffers; want one stranded in-order state holding none",
			o.ActiveFlows(), st, o.dir.footprint().OrderBuffers)
	}

	// A thousand single-segment flows finish within one τ: a thousand
	// tombstones, one pending event.
	const n = 1000
	start := eng.Now()
	for i := 0; i < n; i++ {
		eng.Run(start + units.Time(i)*tau/(2*n))
		o.Receive(mkFlow(uint64(100+i), 1)[0])
	}
	fp := o.dir.footprint()
	if fp.Reclaims != n || fp.ReclaimEvents != 1 || eng.Pending() != 1 {
		t.Fatalf("%d finishes: %d queued, %d reclaim events, %d events pending; want %d, 1, 1",
			n, fp.Reclaims, fp.ReclaimEvents, eng.Pending(), n)
	}
	eng.Run(start + tau + tau/2)
	if o.ActiveFlows() != 1 || eng.Pending() != 0 || o.dir.footprint().Reclaims != 0 {
		t.Fatalf("past every deadline: %d flows, %d events pending, %d queued; want the in-order state alone",
			o.ActiveFlows(), eng.Pending(), o.dir.footprint().Reclaims)
	}
}
