package transport

import "testing"

// TestAdmitReusesItsArrays: out-of-order arrivals interleaved with the
// segments that fill their holes keep merging into the same two backing
// arrays. Advancing the cumulative pointer used to reslice the consumed
// prefix away — moving the array's start forward — and the ooo/scratch swap
// then handed that shrunken capacity to the next merge, which reallocated:
// three of every four allocations of the leaf-spine incast workloads.
func TestAdmitReusesItsArrays(t *testing.T) {
	const seg = 1000
	r := &Receiver{rp: &ReceiverPool{}}
	next := int64(0)
	// One round: segments k+1..k+4 arrive ahead of k, which then arrives and
	// lets the pointer sweep over all five — every round leaves ooo empty, by
	// way of a four-interval-deep merge and a full-prefix advance.
	round := func() {
		for _, i := range [...]int64{4, 2, 1, 3} { // intervals are inserted, appended and coalesced
			r.admit(next+i*seg, next+(i+1)*seg)
		}
		if got := r.admit(next, next+seg); got != seg {
			t.Fatalf("hole of %d bytes admitted %d fresh", seg, got)
		}
		next += 5 * seg
		if r.recvNext != next || len(r.ooo) != 0 {
			t.Fatalf("after a round: recvNext %d, %d intervals held; want %d and none", r.recvNext, len(r.ooo), next)
		}
	}
	round() // sizes both arrays
	round()
	if avg := testing.AllocsPerRun(1000, round); avg != 0 {
		t.Fatalf("steady out-of-order admits allocate %.2f objects a round, want 0", avg)
	}
	if cap(r.ooo) != firstIntervals || cap(r.scratch) != firstIntervals || r.rp.ivs.Misses() != 2 {
		t.Fatalf("arrays of %d and %d intervals after %d arena misses; want the two first arrays, %d each", cap(r.ooo), cap(r.scratch), r.rp.ivs.Misses(), firstIntervals)
	}
	// A partial advance keeps what it leaves, in order.
	r.admit(next+2*seg, next+3*seg)
	r.admit(next+5*seg, next+6*seg)
	r.admit(next, next+seg)
	if r.recvNext != next+seg || len(r.ooo) != 2 || r.ooo[0] != (interval{next + 2*seg, next + 3*seg}) || r.ooo[1] != (interval{next + 5*seg, next + 6*seg}) {
		t.Fatalf("partial advance left recvNext %d, intervals %v", r.recvNext-next, r.ooo)
	}
	r.admit(next+seg, next+2*seg)
	if r.recvNext != next+3*seg || len(r.ooo) != 1 || r.ooo[0].lo != next+5*seg {
		t.Fatalf("advance over one of two intervals left recvNext %d, intervals %v", r.recvNext-next, r.ooo)
	}
}
