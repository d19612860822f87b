package buffer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vertigo/internal/packet"
	"vertigo/internal/units"
)

func dataPkt(rank uint32, payload int) *packet.Packet {
	return &packet.Packet{
		Kind:       packet.Data,
		PayloadLen: payload,
		Marked:     true,
		Info:       packet.FlowInfo{RFS: rank},
	}
}

func TestDropTailFIFOOrder(t *testing.T) {
	q := NewDropTail(1 << 20)
	for i := 0; i < 100; i++ {
		if !q.Push(dataPkt(uint32(100-i), 100)) {
			t.Fatal("push failed below capacity")
		}
	}
	for i := 0; i < 100; i++ {
		p := q.Pop()
		if p == nil || p.Info.RFS != uint32(100-i) {
			t.Fatalf("pop %d: got %v, want rank %d", i, p, 100-i)
		}
	}
	if q.Pop() != nil {
		t.Fatal("pop from empty queue returned a packet")
	}
}

func TestDropTailCapacity(t *testing.T) {
	q := NewDropTail(units.ByteSize(3 * (100 + packet.HeaderLen + packet.ShimHeaderLen)))
	for i := 0; i < 3; i++ {
		if !q.Push(dataPkt(1, 100)) {
			t.Fatalf("push %d failed within capacity", i)
		}
	}
	if q.Push(dataPkt(1, 100)) {
		t.Fatal("push succeeded beyond capacity")
	}
	q.Pop()
	if !q.Push(dataPkt(1, 100)) {
		t.Fatal("push failed after pop freed space")
	}
}

func TestDropTailByteAccounting(t *testing.T) {
	q := NewDropTail(1 << 20)
	p := dataPkt(1, 333)
	q.Push(p)
	if q.Bytes() != p.Size() {
		t.Fatalf("bytes %v, want %v", q.Bytes(), p.Size())
	}
	q.Pop()
	if q.Bytes() != 0 || q.Len() != 0 {
		t.Fatalf("after pop: bytes=%v len=%d, want zero", q.Bytes(), q.Len())
	}
}

func TestDropTailCompaction(t *testing.T) {
	// Exercise the prefix-reclaim path: many pushes and pops interleaved.
	q := NewDropTail(1 << 30)
	next := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			q.Push(dataPkt(uint32(round*40+i), 10))
		}
		for i := 0; i < 35; i++ {
			p := q.Pop()
			if p.Info.RFS != uint32(next) {
				t.Fatalf("FIFO violated after compaction: got %d, want %d", p.Info.RFS, next)
			}
			next++
		}
	}
}

func TestSortedPopAscending(t *testing.T) {
	q := NewSorted(1 << 20)
	ranks := []uint32{500, 100, 900, 300, 700, 200}
	for _, r := range ranks {
		q.Push(dataPkt(r, 100))
	}
	prev := uint32(0)
	for q.Len() > 0 {
		p := q.Pop()
		if p.Info.RFS < prev {
			t.Fatalf("pop order not ascending: %d after %d", p.Info.RFS, prev)
		}
		prev = p.Info.RFS
	}
}

func TestSortedFIFOAmongEqualRanks(t *testing.T) {
	q := NewSorted(1 << 20)
	for i := 0; i < 10; i++ {
		p := dataPkt(42, 100)
		p.ID = uint64(i + 1)
		q.Push(p)
	}
	for i := 0; i < 10; i++ {
		if p := q.Pop(); p.ID != uint64(i+1) {
			t.Fatalf("equal-rank order violated: got ID %d at %d", p.ID, i)
		}
	}
}

func TestSortedTailIsYoungestMaxRank(t *testing.T) {
	q := NewSorted(1 << 20)
	a := dataPkt(100, 100)
	a.ID = 1
	b := dataPkt(100, 100)
	b.ID = 2
	q.Push(a)
	q.Push(b)
	if q.Tail().ID != 2 {
		t.Fatalf("tail ID %d, want the youngest (2)", q.Tail().ID)
	}
	if got := q.ExtractTail(); got.ID != 2 {
		t.Fatalf("ExtractTail ID %d, want 2", got.ID)
	}
	if q.Tail().ID != 1 {
		t.Fatalf("tail after extraction ID %d, want 1", q.Tail().ID)
	}
}

func TestSortedUnmarkedRanksZero(t *testing.T) {
	q := NewSorted(1 << 20)
	q.Push(dataPkt(10, 100))
	ack := &packet.Packet{Kind: packet.Ack}
	q.Push(ack)
	if p := q.Pop(); p != ack {
		t.Fatal("unmarked packet did not jump to the head")
	}
}

func TestForceInsertEvictsLargestRanks(t *testing.T) {
	// Capacity for exactly 3 packets.
	one := dataPkt(1, 100).Size()
	q := NewSorted(3 * one)
	q.Push(dataPkt(10, 100))
	q.Push(dataPkt(20, 100))
	q.Push(dataPkt(30, 100))

	// Inserting rank 15 must evict rank 30 (the tail).
	ev := q.ForceInsert(dataPkt(15, 100), nil)
	if len(ev) != 1 || ev[0].Info.RFS != 30 {
		t.Fatalf("evicted %v, want the rank-30 packet", ev)
	}
	// Inserting rank 99 must evict itself.
	big := dataPkt(99, 100)
	ev = q.ForceInsert(big, nil)
	if len(ev) != 1 || ev[0] != big {
		t.Fatalf("evicted %v, want the arriving rank-99 packet itself", ev)
	}
	if q.Bytes() > q.Cap() {
		t.Fatal("queue exceeds capacity after ForceInsert")
	}
}

func TestForceInsertMayEvictMultiple(t *testing.T) {
	// A big low-rank arrival can push several small high-rank packets out
	// (paper footnote 4).
	small := dataPkt(50, 50)
	q := NewSorted(4 * small.Size())
	q.Push(dataPkt(50, 50))
	q.Push(dataPkt(60, 50))
	q.Push(dataPkt(70, 50))
	big := dataPkt(10, 150) // twice a small packet: evicting one is not enough
	ev := q.ForceInsert(big, nil)
	if len(ev) < 2 {
		t.Fatalf("evicted %d packets, want at least 2 for the oversized arrival", len(ev))
	}
	for _, p := range ev {
		if p.Info.RFS < 50 {
			t.Fatalf("evicted rank %d, must only evict from the tail", p.Info.RFS)
		}
	}
	if q.Bytes() > q.Cap() {
		t.Fatal("queue exceeds capacity")
	}
}

// Property: for any sequence of pushes, pops drain in ascending rank and
// byte accounting is exact.
func TestPropertySortedInvariants(t *testing.T) {
	f := func(ranks []uint32, seed int64) bool {
		q := NewSorted(1 << 30)
		rng := rand.New(rand.NewSource(seed))
		var want units.ByteSize
		for _, r := range ranks {
			p := dataPkt(r, 1+rng.Intn(packet.MSS))
			want += p.Size()
			q.Push(p)
		}
		if q.Bytes() != want || q.Len() != len(ranks) {
			return false
		}
		prev := uint32(0)
		for q.Len() > 0 {
			p := q.Pop()
			if p.Info.RFS < prev {
				return false
			}
			prev = p.Info.RFS
			want -= p.Size()
			if q.Bytes() != want {
				return false
			}
		}
		return q.Bytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: ExtractTail always removes a maximal-rank packet and never
// breaks the ascending pop order of the remainder.
func TestPropertyExtractTailMaximal(t *testing.T) {
	f := func(ranks []uint32) bool {
		if len(ranks) == 0 {
			return true
		}
		q := NewSorted(1 << 30)
		maxRank := uint32(0)
		for _, r := range ranks {
			q.Push(dataPkt(r, 100))
			if r > maxRank {
				maxRank = r
			}
		}
		tail := q.ExtractTail()
		if tail.Info.RFS != maxRank {
			return false
		}
		prev := uint32(0)
		for q.Len() > 0 {
			p := q.Pop()
			if p.Info.RFS < prev {
				return false
			}
			prev = p.Info.RFS
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: ForceInsert never leaves the queue above capacity and only
// evicts ranks >= the minimum surviving rank.
func TestPropertyForceInsertBounded(t *testing.T) {
	f := func(ranks []uint32) bool {
		one := dataPkt(0, 100).Size()
		q := NewSorted(5 * one)
		for _, r := range ranks {
			evicted := q.ForceInsert(dataPkt(r, 100), nil)
			if q.Bytes() > q.Cap() {
				return false
			}
			for _, e := range evicted {
				if tail := q.Tail(); tail != nil && e.Info.RFS < tail.Info.RFS {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFits(t *testing.T) {
	one := dataPkt(0, 100).Size()
	for _, q := range []Queue{NewDropTail(2 * one), NewSorted(2 * one)} {
		if !q.Fits(one) {
			t.Fatal("empty queue reports no room")
		}
		q.Push(dataPkt(1, 100))
		q.Push(dataPkt(2, 100))
		if q.Fits(1) {
			t.Fatal("full queue reports room")
		}
	}
}

// TestBurstCapacityReleased pins the deferred-compaction shrink: a deep
// burst grows the backing array, and once the queue drains the array must be
// released rather than pinning peak memory for the rest of the run.
func TestBurstCapacityReleased(t *testing.T) {
	const burst = 8192
	for _, tc := range []struct {
		name string
		mk   func() Queue
		pcap func(Queue) int
	}{
		{"droptail", func() Queue { return NewDropTail(1 << 40) },
			func(q Queue) int { return cap(q.(*DropTailQueue).pkts) }},
		{"sorted", func() Queue { return NewSorted(1 << 40) },
			func(q Queue) int { return cap(q.(*SortedQueue).pkts) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.mk()
			for i := 0; i < burst; i++ {
				if !q.Push(dataPkt(uint32(i), 100)) {
					t.Fatal("push failed below capacity")
				}
			}
			peak := tc.pcap(q)
			if peak < burst {
				t.Fatalf("backing array cap %d, want >= %d", peak, burst)
			}
			// Drain to a trickle, with light steady-state traffic so the
			// compaction path keeps running.
			for q.Len() > 16 {
				q.Pop()
				if q.Len()%512 == 0 {
					q.Push(dataPkt(1, 100))
					q.Pop()
				}
			}
			if got := tc.pcap(q); got*4 > peak {
				t.Fatalf("%s backing array cap %d after drain, want <= peak/4 (%d)",
					tc.name, got, peak/4)
			}
			if q.Len() != 16 {
				t.Fatalf("live packets %d, want 16", q.Len())
			}
		})
	}
}

// TestSortedTailFastPathOrder pins that the tail-append fast path preserves
// exactly the old insertion semantics: ascending and equal ranks append,
// FIFO among equals, and a smaller rank still finds its sorted slot.
func TestSortedTailFastPathOrder(t *testing.T) {
	q := NewSorted(1 << 30)
	a, b, c, d := dataPkt(5, 100), dataPkt(5, 100), dataPkt(9, 100), dataPkt(3, 100)
	for _, p := range []*packet.Packet{a, b, c, d} {
		q.Push(p)
	}
	want := []*packet.Packet{d, a, b, c}
	for i, w := range want {
		if got := q.Pop(); got != w {
			t.Fatalf("pop %d: got rank %d, want rank %d (FIFO-among-equals violated)",
				i, got.Info.RFS, w.Info.RFS)
		}
	}
}

// TestBusyQueueArraysFollowOccupancy: a queue kept busy by two to four
// packets through 10k of them holds arrays sized to that, not to how long it
// has been busy. Its packet and rank arrays must stay within their 32-entry
// seed under both disciplines: a consumed prefix left to grow to 64 entries
// before compaction doubles them, lap after lap, to 128.
func TestBusyQueueArraysFollowOccupancy(t *testing.T) {
	const pkts = 10000
	for _, tc := range []struct {
		name  string
		q     Queue
		slots func() (pkts, ranks int)
	}{
		{name: "droptail", q: NewDropTail(1 << 30)},
		{name: "sorted", q: NewSorted(1 << 30)},
	} {
		switch q := tc.q.(type) {
		case *DropTailQueue:
			tc.slots = func() (int, int) { return cap(q.pkts), 0 }
		case *SortedQueue:
			tc.slots = func() (int, int) { return cap(q.pkts), cap(q.ranks) }
		}
		rng := rand.New(rand.NewSource(1))
		for pushed := 0; pushed < pkts; {
			if n := tc.q.Len(); n < 2 || n < 4 && rng.Intn(2) == 0 {
				tc.q.Push(dataPkt(uint32(rng.Intn(100)), 100))
				pushed++
			} else {
				tc.q.Pop()
			}
		}
		if p, r := tc.slots(); p > 32 || r > 32 {
			t.Errorf("%s: holds %d packet and %d rank slots for %d packets, want at most 32", tc.name, p, r, tc.q.Len())
		}
	}
}
