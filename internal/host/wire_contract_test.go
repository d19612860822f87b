package host

import (
	"reflect"
	"testing"
	"time"

	"vertigo/internal/packet"
)

// The WireOrderer runs the simulator's Orderer on a private engine that keeps
// the caller's clock. These tests pin the four edge behaviours that follow:
// an orderer comparing deadlines with whatever time each call passes would
// fail every one of them.

var wireEpoch = time.Unix(0, 0)

func at(us float64) time.Time { return wireEpoch.Add(time.Duration(us * float64(time.Microsecond))) }

func keys(segs []WireSegment) []uint64 {
	var ks []uint64
	for _, s := range segs {
		ks = append(ks, s.Key)
	}
	return ks
}

// TestWireOrdererDeadlineNeverBeforeNow: a delivered run can leave at the
// head of the buffer a segment that arrived before the old head, whose
// deadline has passed by then. It is due at the latest now, where the engine
// arms an overdue timer, never reported in the past.
func TestWireOrdererDeadlineNeverBeforeNow(t *testing.T) {
	m := NewWireMarker(DefaultMarkerConfig())
	o := NewWireOrderer(DefaultOrdererConfig()) // τ = 360 µs
	segs := wireSegs(t, m, 1, 8*packet.MSS)
	o.Receive(at(0), segs[0])
	o.Receive(at(1), segs[2]) // held: timer at 361
	o.Receive(at(2), segs[6]) // held, behind a gap
	o.Receive(at(3), segs[4]) // held, ahead of segs[6]
	if got := o.Receive(at(4), segs[1]); len(got) != 2 {
		t.Fatalf("gap fill released %d, want 2", len(got))
	}
	// Head is segs[4] (arrived at 3): due at 363. segs[3] now delivers 3 and
	// 4, leaving segs[6] — arrived at 2, so due at 362 — at the head.
	now := at(362.5)
	if got := o.Receive(now, segs[3]); len(got) != 2 {
		t.Fatalf("second gap fill released %d, want 2", len(got))
	}
	dl, ok := o.NextDeadline()
	if !ok || !dl.Equal(now) {
		t.Fatalf("next deadline %v (%v), want the latest now %v", dl.Sub(wireEpoch), ok, now.Sub(wireEpoch))
	}
	if got := o.Expire(now); len(got) != 1 || got[0].Info != segs[6].Info {
		t.Fatalf("expire at the latest now released %v, want segs[6]", got)
	}
}

// TestWireOrdererExpiresFlowsInDeadlineOrder: one Expire call releases across
// flows in deadline order — here the younger flow's first — and each flow's
// segments in flow order, whatever order the flows were created in.
func TestWireOrdererExpiresFlowsInDeadlineOrder(t *testing.T) {
	m := NewWireMarker(DefaultMarkerConfig())
	o := NewWireOrderer(DefaultOrdererConfig())
	a := wireSegs(t, m, 1, 4*packet.MSS)
	b := wireSegs(t, m, 2, 4*packet.MSS)
	o.Receive(at(0), a[0])
	o.Receive(at(50), b[0])
	o.Receive(at(60), b[2])
	o.Receive(at(61), b[3])
	o.Receive(at(100), a[2]) // flow 1 is older but due later
	got := o.Expire(at(1000))
	if want := []uint64{2, 2, 1}; !reflect.DeepEqual(keys(got), want) {
		t.Fatalf("expire released flows %v, want %v", keys(got), want)
	}
	if got[0].Info != b[2].Info || got[1].Info != b[3].Info {
		t.Fatal("flow 2 released out of flow order")
	}
}

// TestWireOrdererReceiveReleasesWhatWasDueFirst: Receive runs the clock to
// its now before it looks at the segment, so a timeout due by then releases
// ahead of it — and the segment, whose gap the timeout skipped, passes
// straight through as a late one instead of filling the gap. A now earlier
// than the latest seen counts as the latest.
func TestWireOrdererReceiveReleasesWhatWasDueFirst(t *testing.T) {
	m := NewWireMarker(DefaultMarkerConfig())
	o := NewWireOrderer(DefaultOrdererConfig())
	segs := wireSegs(t, m, 1, 4*packet.MSS)
	o.Receive(at(0), segs[0])
	o.Receive(at(0), segs[2]) // held: due at 360
	got := o.Receive(at(400), segs[1])
	if len(got) != 2 || got[0].Info != segs[2].Info || got[1].Info != segs[1].Info {
		t.Fatalf("receive after the deadline released %+v, want segs[2] then segs[1]", got)
	}
	if o.Timeouts != 1 {
		t.Fatalf("timeouts %d, want 1", o.Timeouts)
	}
	// Back in time: held as if it arrived at 400, so due at 760, not 460.
	if got := o.Receive(at(100), WireSegment{Key: 9, Info: packet.FlowInfo{RFS: 1}, Len: 1}); got != nil {
		t.Fatalf("a flow's first-seen unflagged segment released %v", got)
	}
	if dl, _ := o.NextDeadline(); !dl.Equal(at(760)) {
		t.Fatalf("deadline %v, want 760µs", dl.Sub(wireEpoch))
	}
}

// TestWireOrdererTimeoutActsAtItsDeadline: a timeout takes effect at its
// deadline however late the caller polls, so a flow it completes lingers as a
// tombstone for τ from the deadline, not from the poll.
func TestWireOrdererTimeoutActsAtItsDeadline(t *testing.T) {
	m := NewWireMarker(DefaultMarkerConfig())
	o := NewWireOrderer(DefaultOrdererConfig())
	segs := wireSegs(t, m, 1, 2*packet.MSS)
	o.Receive(at(0), segs[1]) // segs[0] is lost: due at 360
	if got := o.Expire(at(1000)); len(got) != 1 {
		t.Fatalf("late poll released %d, want 1", len(got))
	}
	// Completed at 360, reclaimed at 720: gone by 1000.
	if n := o.ActiveFlows(); n != 0 {
		t.Fatalf("%d flows after a poll past deadline + τ, want 0", n)
	}
	if _, ok := o.NextDeadline(); ok {
		t.Fatal("deadline pending after the tombstone's reclaim")
	}
}
