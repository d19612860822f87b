package buffer

import (
	"fmt"
	"math/rand"
	"testing"

	"vertigo/internal/packet"
	"vertigo/internal/units"
)

// TestSortedQueueMatchesPIEO cross-validates the fabric's SortedQueue
// against the independent PIEO list of pieo_test.go: driven by the same random
// operation sequence, both must release identical rank sequences. Two
// implementations agreeing under random interleavings of insert, pop-min
// and extract-tail is strong evidence neither has an ordering bug. Every so
// often the queue is drained to empty — from the head, from the tail, or
// from both ends in turn, so that the last packet leaves through Pop in some
// cycles and through ExtractTail in others — and refilled with a burst, which
// is where the head index rewinds and the arrays are reclaimed or regrown.
func TestSortedQueueMatchesPIEO(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		sq := NewSorted(1 << 30)
		pl := newPIEOList[*packet.Packet](256)
		id := uint64(0)
		insert := func() {
			id++
			p := &packet.Packet{
				ID: id, Kind: packet.Data, Marked: true,
				PayloadLen: 100,
				Info:       packet.FlowInfo{RFS: uint32(rng.Intn(50))}, // ties likely
			}
			sq.Push(p)
			pl.Insert(pieoItem[*packet.Packet]{Value: p, Rank: p.Info.RFS})
		}
		// remove takes one packet from the given end of both queues.
		remove := func(at string, tail bool) {
			t.Helper()
			var a *packet.Packet
			var b pieoItem[*packet.Packet]
			var ok bool
			if tail {
				a = sq.ExtractTail()
				b, ok = pl.ExtractTail()
			} else {
				a = sq.Pop()
				b, ok = pl.ExtractMin(0)
			}
			if a == nil || !ok {
				t.Fatalf("%s: removal disagreement, tail=%v (nil=%v ok=%v)", at, tail, a == nil, ok)
			}
			if a.Info.RFS != b.Rank || a.ID != b.Value.ID {
				t.Fatalf("%s: mismatch, tail=%v: sorted(%d,#%d) pieo(%d,#%d)",
					at, tail, a.Info.RFS, a.ID, b.Rank, b.Value.ID)
			}
		}
		for op := 0; op < 2000; op++ {
			at := fmt.Sprintf("trial %d op %d", trial, op)
			switch r := rng.Intn(4); {
			case op%200 == 199: // drain to empty, then refill with a burst
				mode := rng.Intn(3)
				for n := 0; pl.Len() > 0; n++ {
					remove(at, mode == 1 || mode == 2 && n%2 == 1)
				}
				if sq.Len() != 0 || sq.Bytes() != 0 || sq.Pop() != nil || sq.ExtractTail() != nil || sq.Tail() != nil {
					t.Fatalf("%s: drained queue not empty", at)
				}
				for n := rng.Intn(150); n > 0; n-- {
					insert()
				}
			case r <= 1 || pl.Len() == 0: // insert (biased so queues stay busy)
				insert()
			default:
				remove(at, r == 3)
			}
			if sq.Len() != pl.Len() {
				t.Fatalf("%s: length mismatch %d vs %d", at, sq.Len(), pl.Len())
			}
		}
	}
}

// TestDropTailDrainRefill is the FIFO's share of the same cycles, against a
// plain slice: bursts of every size around the compaction threshold, drained
// fully or partly, must come out in arrival order with exact byte counts —
// from a FIFO of its own, and from the one a SortedQueue embeds, initialised
// in place the way a fabric port runs drop-tail in its queue header.
func TestDropTailDrainRefill(t *testing.T) {
	t.Run("own", func(t *testing.T) { dropTailDrainRefill(t, NewDropTail(1<<30)) })
	t.Run("embedded", func(t *testing.T) {
		var header SortedQueue // a port's: initialised in place, one discipline from then on
		header.Init(1<<30, new(Mem))
		dropTailDrainRefill(t, header.FIFO())
	})
}

func dropTailDrainRefill(t *testing.T, q *DropTailQueue) {
	rng := rand.New(rand.NewSource(1))
	var ref []*packet.Packet
	for cycle := 0; cycle < 400; cycle++ {
		for n := rng.Intn(200); n > 0; n-- {
			p := dataPkt(0, 1+rng.Intn(1400))
			q.Push(p)
			ref = append(ref, p)
		}
		pops := len(ref)
		if cycle%3 == 2 {
			pops = rng.Intn(len(ref) + 1) // leave a remainder for the next burst to join
		}
		for ; pops > 0; pops-- {
			if p := q.Pop(); p != ref[0] {
				t.Fatalf("cycle %d: popped %p, want %p", cycle, p, ref[0])
			}
			ref = ref[1:]
		}
		var bytes units.ByteSize
		for _, p := range ref {
			bytes += p.Size()
		}
		if q.Len() != len(ref) || q.Bytes() != bytes {
			t.Fatalf("cycle %d: Len %d Bytes %d, want %d and %d", cycle, q.Len(), q.Bytes(), len(ref), bytes)
		}
		if len(ref) == 0 && q.Pop() != nil {
			t.Fatalf("cycle %d: drained FIFO popped a packet", cycle)
		}
	}
}
