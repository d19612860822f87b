package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"vertigo/internal/units"
)

func TestEventsFireInOrder(t *testing.T) {
	eng := NewEngine(1)
	var got []units.Time
	for _, d := range []units.Time{50, 10, 30, 20, 40} {
		d := d
		eng.At(d, func() { got = append(got, d) })
	}
	eng.Run(units.Second)
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestTiesFireInScheduleOrder(t *testing.T) {
	eng := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		eng.At(42, func() { got = append(got, i) })
	}
	eng.Run(units.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order violated at %d: %v", i, got[:i+1])
		}
	}
}

func TestNowAdvances(t *testing.T) {
	eng := NewEngine(1)
	var at units.Time
	eng.At(100, func() { at = eng.Now() })
	end := eng.Run(500)
	if at != 100 {
		t.Fatalf("event saw Now()=%v, want 100", at)
	}
	if end != 500 {
		t.Fatalf("Run returned %v, want 500 (advance to deadline)", end)
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	eng := NewEngine(1)
	fired := 0
	eng.At(100, func() { fired++ })
	eng.At(200, func() { fired++ })
	eng.Run(150)
	if fired != 1 {
		t.Fatalf("fired %d events before deadline 150, want 1", fired)
	}
	if eng.Pending() != 1 {
		t.Fatalf("pending %d, want 1", eng.Pending())
	}
	eng.Run(300)
	if fired != 2 {
		t.Fatalf("fired %d after resume, want 2", fired)
	}
}

func TestSchedulingDuringEvent(t *testing.T) {
	eng := NewEngine(1)
	var got []units.Time
	eng.At(10, func() {
		got = append(got, eng.Now())
		eng.After(5, func() { got = append(got, eng.Now()) })
		eng.At(eng.Now(), func() { got = append(got, eng.Now()) }) // same instant
	})
	eng.Run(units.Second)
	want := []units.Time{10, 10, 15}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	eng := NewEngine(1)
	eng.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		eng.At(50, func() {})
	})
	eng.Run(units.Second)
}

func TestTimerCancel(t *testing.T) {
	eng := NewEngine(1)
	fired := false
	tm := eng.At(100, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer not pending after scheduling")
	}
	if !tm.Cancel() {
		t.Fatal("first cancel reported not-pending")
	}
	if tm.Cancel() {
		t.Fatal("second cancel reported pending")
	}
	eng.Run(units.Second)
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerCancelInsideEarlierEvent(t *testing.T) {
	eng := NewEngine(1)
	fired := false
	var tm Timer
	eng.At(10, func() { tm.Cancel() })
	tm = eng.At(20, func() { fired = true })
	eng.Run(units.Second)
	if fired {
		t.Fatal("timer fired despite cancellation at t=10")
	}
}

func TestZeroTimerSafe(t *testing.T) {
	var tm Timer
	if tm.Cancel() {
		t.Error("zero timer reported pending on Cancel")
	}
	if tm.Pending() {
		t.Error("zero timer reported Pending")
	}
	if tm.At() != 0 {
		t.Errorf("zero timer At() = %v, want 0", tm.At())
	}
}

func TestTimerAtAfterFire(t *testing.T) {
	eng := NewEngine(1)
	tm := eng.At(100, func() {})
	if tm.At() != 100 {
		t.Fatalf("At() = %v before firing, want 100", tm.At())
	}
	eng.Run(units.Second)
	// The event has fired and may have been recycled for another timer:
	// the stale handle must report an inert state, not the new tenant's.
	if tm.At() != 0 || tm.Pending() || tm.Cancel() {
		t.Fatalf("fired timer not inert: At=%v Pending=%v", tm.At(), tm.Pending())
	}
}

// TestRecycledEventDoesNotConfuseStaleTimer pins the generation check: a
// timer held across its event's recycling must not cancel the event's next
// incarnation.
func TestRecycledEventDoesNotConfuseStaleTimer(t *testing.T) {
	eng := NewEngine(1)
	var stale Timer
	fired := false
	stale = eng.At(10, func() {})
	eng.Run(20)
	// The event backing stale is now on the free list; this At reuses it.
	eng.At(30, func() { fired = true })
	if stale.Cancel() {
		t.Fatal("stale timer cancelled a recycled event")
	}
	eng.Run(units.Second)
	if !fired {
		t.Fatal("recycled event did not fire (stale handle interfered)")
	}
}

// TestEngineReusesEvents pins the free list: steady-state schedule/fire
// cycles must not allocate.
func TestEngineReusesEvents(t *testing.T) {
	eng := NewEngine(1)
	fn := func() {}
	// Warm up the free list and the heap's backing array.
	for i := 0; i < 64; i++ {
		eng.After(units.Time(i), fn)
	}
	eng.Run(1 << 20)
	avg := testing.AllocsPerRun(200, func() {
		eng.After(100, fn)
		eng.Run(eng.Now() + 200)
	})
	if avg > 0 {
		t.Fatalf("schedule/fire allocates %.2f per event, want 0", avg)
	}
}

func TestStop(t *testing.T) {
	eng := NewEngine(1)
	fired := 0
	eng.At(10, func() { fired++; eng.Stop() })
	eng.At(20, func() { fired++ })
	eng.Run(units.Second)
	if fired != 1 {
		t.Fatalf("fired %d, want 1 (Stop should halt the loop)", fired)
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewEngine(7), NewEngine(7)
	for i := 0; i < 1000; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

// Property: any set of scheduled times fires in sorted order.
func TestPropertyFiringOrderSorted(t *testing.T) {
	f := func(delays []uint16) bool {
		eng := NewEngine(3)
		var got []units.Time
		for _, d := range delays {
			d := units.Time(d)
			eng.At(d, func() { got = append(got, d) })
		}
		eng.Run(units.Time(1 << 20))
		if len(got) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset fires exactly the complement.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(delays []uint16, seed int64) bool {
		eng := NewEngine(5)
		rng := rand.New(rand.NewSource(seed))
		fired := make(map[int]bool)
		timers := make([]Timer, len(delays))
		for i, d := range delays {
			i := i
			timers[i] = eng.At(units.Time(d), func() { fired[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := range timers {
			if rng.Intn(2) == 0 {
				timers[i].Cancel()
				cancelled[i] = true
			}
		}
		eng.Run(units.Time(1 << 20))
		for i := range delays {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPendingExcludesCancelled pins the live-event counter: with lazy
// cancellation the tombstones stay in the heap, but Pending, PeakPending and
// the progress lines built on them must keep reporting real pending work.
func TestPendingExcludesCancelled(t *testing.T) {
	eng := NewEngine(1)
	timers := make([]Timer, 10)
	for i := range timers {
		timers[i] = eng.At(units.Time(100+i), func() {})
	}
	if eng.Pending() != 10 {
		t.Fatalf("Pending() = %d after scheduling 10, want 10", eng.Pending())
	}
	for i := 0; i < 4; i++ {
		if !timers[i].Cancel() {
			t.Fatalf("cancel %d reported not-pending", i)
		}
	}
	if eng.Pending() != 6 {
		t.Fatalf("Pending() = %d after 4 cancels, want 6", eng.Pending())
	}
	eng.Run(units.Second)
	if eng.Pending() != 0 {
		t.Fatalf("Pending() = %d after run, want 0", eng.Pending())
	}
	st := eng.Stats()
	if st.Events != 6 {
		t.Fatalf("Events = %d, want 6", st.Events)
	}
	if st.TombstonedPops != 4 {
		t.Fatalf("TombstonedPops = %d, want 4", st.TombstonedPops)
	}
	if st.PeakPending != 10 {
		t.Fatalf("PeakPending = %d, want 10", st.PeakPending)
	}
}

// TestCancelDuringOwnHandler pins the pre-rewrite semantics: by the time a
// handler runs, its own timer is already inert, so cancelling it reports
// false and does not disturb the (already recycled) frame.
func TestCancelDuringOwnHandler(t *testing.T) {
	eng := NewEngine(1)
	var tm Timer
	cancelled := true
	tm = eng.At(10, func() { cancelled = tm.Cancel() })
	eng.Run(units.Second)
	if cancelled {
		t.Fatal("cancelling a timer inside its own handler reported pending")
	}
}

// TestCancelledTimerInert pins the observable state of a lazily-cancelled
// timer while its tombstone is still sitting in the heap.
func TestCancelledTimerInert(t *testing.T) {
	eng := NewEngine(1)
	tm := eng.At(100, func() { t.Error("cancelled event fired") })
	tm.Cancel()
	// Tombstone not yet reaped: the handle must already read as dead.
	if tm.Pending() {
		t.Fatal("cancelled timer still Pending")
	}
	if tm.At() != 0 {
		t.Fatalf("cancelled timer At() = %v, want 0", tm.At())
	}
	if tm.Cancel() {
		t.Fatal("second cancel reported pending")
	}
	eng.Run(units.Second)
}

// TestSchedOrderingMatchesAt pins that Sched events share the (time, seq)
// tie-break sequence with At events: interleaved same-instant events fire in
// call order regardless of which API scheduled them.
func TestSchedOrderingMatchesAt(t *testing.T) {
	eng := NewEngine(1)
	var got []int
	for i := 0; i < 20; i++ {
		i := i
		if i%2 == 0 {
			eng.Sched(42, func() { got = append(got, i) })
		} else {
			eng.At(42, func() { got = append(got, i) })
		}
	}
	eng.Run(units.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order violated at %d: %v", i, got[:i+1])
		}
	}
	if len(got) != 20 {
		t.Fatalf("fired %d events, want 20", len(got))
	}
}

// TestSchedChainReusesFrame pins the self-rescheduling fast path: a Sched
// handler rescheduling itself reuses its own frame, so a long chain touches
// neither the allocator nor the free list.
func TestSchedChainReusesFrame(t *testing.T) {
	eng := NewEngine(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < 1000 {
			eng.SchedAfter(10, tick)
		}
	}
	eng.Sched(0, tick)
	eng.Run(units.Second)
	if fired != 1000 {
		t.Fatalf("fired %d, want 1000", fired)
	}
	st := eng.Stats()
	if st.Scheduled != 1000 {
		t.Fatalf("Scheduled = %d, want 1000", st.Scheduled)
	}
	// Only the first Sched allocated a frame; 999 reschedules rode it in
	// place without a free-list round trip.
	if st.FreeListHits != 0 {
		t.Fatalf("FreeListHits = %d, want 0 (chain must bypass the free list)", st.FreeListHits)
	}
}

func TestSchedPastPanics(t *testing.T) {
	eng := NewEngine(1)
	eng.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("Sched in the past did not panic")
			}
		}()
		eng.Sched(50, func() {})
	})
	eng.Run(units.Second)
}

// TestStaleTimerAfterChainReuse pins gen safety across the chain fast path:
// a frame that once backed a Timer and is later recycled into a Sched chain
// must stay invisible to the stale handle for the chain's whole lifetime.
func TestStaleTimerAfterChainReuse(t *testing.T) {
	eng := NewEngine(1)
	stale := eng.At(10, func() {})
	eng.Run(20) // fires; frame now on the free list with gen bumped
	hops := 0
	var hop func()
	hop = func() {
		hops++
		if stale.Cancel() || stale.Pending() || stale.At() != 0 {
			t.Fatal("stale timer observed a chained frame")
		}
		if hops < 10 {
			eng.SchedAfter(5, hop)
		}
	}
	eng.Sched(30, hop) // reuses the recycled frame from the free list
	eng.Run(units.Second)
	if hops != 10 {
		t.Fatalf("chain fired %d hops, want 10", hops)
	}
}

// TestEventFrameIsOneCacheLine pins the frame layout: two handlers, the
// argument and the schedule stamps fit 64 bytes because the sequence number
// lives in the heap node alone.
func TestEventFrameIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 64 {
		t.Fatalf("event frame is %d bytes, want 64", n)
	}
}

// TestArgTimer walks an argument event through a Timer's whole life: it
// reports Pending and At like a plain one, Cancel keeps it from firing, a
// fired one hands its handler the argument it was scheduled with, and its
// frame — recycled into a plain event — is invisible to the stale handle and
// does not fire the old handler.
func TestArgTimer(t *testing.T) {
	eng := NewEngine(1)
	var got []uint64
	h := func(arg uint64) { got = append(got, arg) }

	a := eng.AtArg(10, h, 7)
	b := eng.AfterArg(10, h, 8) // same instant: schedule order decides
	c := eng.AtArg(10, h, 9)
	if !a.Pending() || a.At() != 10 || eng.Pending() != 3 {
		t.Fatalf("pending arg timer: Pending=%v At=%v engine pending=%d", a.Pending(), a.At(), eng.Pending())
	}
	if !b.Cancel() || b.Pending() || b.At() != 0 || b.Cancel() {
		t.Fatal("cancelled arg timer still observable or cancellable twice")
	}
	eng.Run(20)
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("arg handlers saw %v, want [7 9]", got)
	}
	if a.Pending() || a.At() != 0 || a.Cancel() || c.Cancel() {
		t.Fatal("fired arg timer not inert")
	}

	// The three frames are on the free list; plain events reuse them.
	plain := 0
	for i := 0; i < 3; i++ {
		eng.At(30, func() { plain++ })
	}
	if a.Cancel() || b.Cancel() || c.Cancel() || a.Pending() {
		t.Fatal("stale arg timer acted on a recycled frame")
	}
	eng.Run(40)
	if plain != 3 || len(got) != 2 {
		t.Fatalf("recycled frames: %d plain fires (want 3), arg handler ran %d times (want 2)", plain, len(got))
	}

	// And back: a frame that carried a closure carries an argument next.
	eng.AtArg(50, h, 11)
	eng.Run(60)
	if len(got) != 3 || got[2] != 11 {
		t.Fatalf("arg event on a frame recycled from a plain one saw %v", got)
	}
}

// TestArgPathZeroAllocs pins what AtArg and SchedArg are for: once the free
// list is warm, scheduling, cancelling and firing per-slot events through one
// shared handler allocates nothing, whatever the slot number — a
// fire-and-forget chain included, which rearms its frame in place.
func TestArgPathZeroAllocs(t *testing.T) {
	eng := NewEngine(1)
	var sum uint64
	h := func(arg uint64) { sum += arg }
	var hop ArgHandler
	hop = func(arg uint64) {
		if sum += arg; arg&3 != 0 {
			eng.SchedArg(eng.Now()+10, hop, arg-1)
		}
	}
	for i := 0; i < 64; i++ {
		eng.AfterArg(units.Time(i), h, uint64(i))
	}
	eng.Run(1 << 20)
	slot := uint64(0)
	avg := testing.AllocsPerRun(200, func() {
		slot++
		tm := eng.AfterArg(50, h, slot)
		eng.AfterArg(100, h, slot<<20)
		eng.SchedArg(eng.Now()+20, hop, slot<<2|3) // four hops on one frame
		tm.Cancel()
		eng.Run(eng.Now() + 200)
	})
	if avg > 0 {
		t.Fatalf("arg schedule/cancel/fire allocates %.2f per cycle, want 0", avg)
	}
}

// ringCap is the calendar's footprint in nodes: the capacity of every bucket
// array, whatever it holds.
func ringCap(e *Engine) (nodes int) {
	for _, b := range e.ring {
		nodes += cap(b)
	}
	return nodes
}

// TestRingMemoryFollowsDenseWindow drives the engine the way a 1024-host
// fat-tree does: 256 events in every 32 ns bucket, each rescheduling itself
// 2 µs ahead as a busy port does, for four laps of the ring. Every slot is
// that dense as the cursor passes, but only the 64 buckets of the window are
// at any instant, so the bucket arrays must total a small multiple of the
// pending set — not 2,048 times the densest bucket, which is what a ring whose
// buckets each kept the array they grew comes to (~525k nodes here). The
// sort's scratch array is one bucket's worth.
func TestRingMemoryFollowsDenseWindow(t *testing.T) {
	const (
		perBucket = 256
		ahead     = 64 // buckets: 2,048 ns
		period    = units.Time(ahead << bucketShift)
	)
	eng := NewEngine(1)
	var tick ArgHandler
	tick = func(slot uint64) { eng.SchedArg(eng.Now()+period, tick, slot) }
	for i := 0; i < perBucket*ahead; i++ {
		eng.SchedArg(units.Time(i/perBucket<<bucketShift+i%(1<<bucketShift)), tick, uint64(i))
	}
	eng.Run(4 * ringSpan)
	pending := eng.Stats().PeakPending
	if pending != perBucket*ahead {
		t.Fatalf("peak pending %d, want %d", pending, perBucket*ahead)
	}
	got := ringCap(eng)
	t.Logf("%d pending, bucket arrays hold %d nodes", pending, got)
	if got > 4*pending {
		t.Errorf("bucket arrays hold %d nodes after four dense laps, want at most 4 x the %d pending", got, pending)
	}
	// The counting sort's scratch array trades places with the buckets it
	// sorts: it is the size of the densest bucket's array, and no bigger.
	if c := cap(eng.sortBuf); c < perBucket || c > 2*perBucket {
		t.Errorf("sort scratch holds %d nodes, want the densest bucket's %d to %d", c, perBucket, 2*perBucket)
	}
	// The arrays go round: whatever the free list could not supply in the
	// first lap it has by now.
	misses := eng.nodes.Misses()
	eng.Run(8 * ringSpan)
	if d := eng.nodes.Misses() - misses; d != 0 {
		t.Errorf("four more laps allocated %d bucket arrays, want the first laps' reused", d)
	}
}

// TestRingLeavesSparseBucketsAlone: at leaf-spine density — a couple of dozen
// events in a bucket at the worst of a burst — buckets keep the arrays they
// grew, and steady-state scheduling never visits the free list.
func TestRingLeavesSparseBucketsAlone(t *testing.T) {
	const perBucket, ahead = 24, 64
	period := units.Time(ahead << bucketShift)
	eng := NewEngine(1)
	var tick ArgHandler
	tick = func(slot uint64) { eng.SchedArg(eng.Now()+period, tick, slot) }
	for i := 0; i < perBucket*ahead; i++ {
		eng.SchedArg(units.Time(i/perBucket<<bucketShift+i%(1<<bucketShift)), tick, uint64(i))
	}
	eng.Run(ringSpan) // every slot has grown to hold its 24
	gets := eng.nodes.Hits() + eng.nodes.Misses()
	eng.Run(4 * ringSpan)
	if d := eng.nodes.Hits() + eng.nodes.Misses() - gets; d != 0 {
		t.Errorf("three sparse laps drew %d arrays from the free list, want 0: sparse buckets must keep theirs", d)
	}
}

// TestCancelPathZeroAllocs pins the full schedule/cancel/reap cycle at zero
// allocations once the free list is warm.
func TestCancelPathZeroAllocs(t *testing.T) {
	eng := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.After(units.Time(i), fn)
	}
	eng.Run(1 << 20)
	avg := testing.AllocsPerRun(200, func() {
		tm := eng.After(50, fn)
		eng.After(100, fn)
		tm.Cancel()
		eng.Run(eng.Now() + 200)
	})
	if avg > 0 {
		t.Fatalf("schedule/cancel/fire allocates %.2f per cycle, want 0", avg)
	}
}

// TestRearmedFarTimersDoNotPinFrames: K timers past the ring's span, each
// re-armed N times between short Run windows — a TCP sender's RTO reset on
// every ACK, with packets in flight — leave a tombstone in the overflow heap
// per re-arm. Cancel compacts the heap once a quarter of it is dead, so the
// dead never exceed a third of the K live and the engine carves at most
// 4K/3 frames, plus the rest of one slab; the K survivors still fire in
// order, and no tombstone is left counted.
func TestRearmedFarTimersDoNotPinFrames(t *testing.T) {
	const K, N = 1000, 40
	eng := NewEngine(1)
	var fired []uint64
	fire := func(k uint64) { fired = append(fired, k) }
	// Packets keep the ring busy, as in a run: the cursor follows now
	// instead of jumping to the overflow heap's first deadline. (Timer-backed,
	// so that every schedule either reuses a freed frame or carves one.)
	ticking := true
	var tick Handler
	tick = func() {
		if ticking {
			eng.After(100, tick)
		}
	}
	eng.After(100, tick)
	rto := units.Time(3 * nBuckets << bucketShift)
	timers := make([]Timer, K)
	for k := range timers {
		timers[k] = eng.AfterArg(rto, fire, uint64(k))
	}
	for round := 0; round < N; round++ {
		eng.Run(eng.Now() + units.Microsecond)
		for k := range timers {
			if !timers[k].Cancel() {
				t.Fatalf("round %d: timer %d not pending", round, k)
			}
			timers[k] = eng.AfterArg(rto+units.Time(k), fire, uint64(k))
		}
	}
	st := eng.Stats()
	if carved := st.Scheduled - st.FreeListHits; carved > K+K/3+frameSlab {
		t.Fatalf("%d re-arms of %d far timers carved %d frames, want at most %d", N, K, carved, K+K/3+frameSlab)
	}
	if st.HeapSweeps == 0 || len(eng.overflow) > K+K/3 || eng.overDead*4 >= len(eng.overflow) {
		t.Fatalf("overflow heap holds %d nodes, %d dead, after %d compactions", len(eng.overflow), eng.overDead, st.HeapSweeps)
	}
	ticking = false
	eng.Run(units.Second)
	if len(fired) != K || eng.overDead != 0 || len(eng.overflow) != 0 {
		t.Fatalf("fired %d of %d timers; overflow left %d nodes, %d counted dead", len(fired), K, len(eng.overflow), eng.overDead)
	}
	for k, got := range fired {
		if got != uint64(k) {
			t.Fatalf("fire %d was timer %d", k, got)
		}
	}
}

// TestMigrateCompactsQuarterDeadHeap: live timers migrating out of the
// overflow heap leave its tombstones behind, and once those are a quarter of
// what stays, migrate compacts it as Cancel would. Twenty of 100 far timers
// are cancelled — too few for Cancel to compact — and the cursor's jump to
// the first migrates the 32 within a ring span, leaving 20 dead of 68.
func TestMigrateCompactsQuarterDeadHeap(t *testing.T) {
	const K, dead = 100, 20
	eng := NewEngine(1)
	var fired []uint64
	fire := func(k uint64) { fired = append(fired, k) }
	base := units.Time(2 * nBuckets << bucketShift)
	timers := make([]Timer, K)
	for k := range timers {
		timers[k] = eng.AtArg(base+units.Time(k*64<<bucketShift), fire, uint64(k))
	}
	for k := K - dead; k < K; k++ {
		timers[k].Cancel()
	}
	if eng.overDead != dead || eng.Stats().HeapSweeps != 0 {
		t.Fatalf("after %d cancels: %d counted dead, %d compactions", dead, eng.overDead, eng.Stats().HeapSweeps)
	}
	eng.Run(base)
	if len(fired) != 1 || eng.overDead != 0 || eng.Stats().HeapSweeps != 1 {
		t.Fatalf("fired %d; overflow heap holds %d nodes, %d counted dead, after %d compactions; want 1 fired and one compaction",
			len(fired), len(eng.overflow), eng.overDead, eng.Stats().HeapSweeps)
	}
	eng.Run(units.Second)
	if len(fired) != K-dead {
		t.Fatalf("fired %d of %d live timers", len(fired), K-dead)
	}
	for k, got := range fired {
		if got != uint64(k) {
			t.Fatalf("fire %d was timer %d", k, got)
		}
	}
}

// TestSortedDrainAfterRewind: a slot holding two dense laps — far-wrap nodes
// scheduled while Run left the cursor parked ahead, then the cursor's own
// lap after a schedule behind it rewinds it — cannot be counting-sorted on
// its instants alone: the laps share them. Its first drain leaves the far
// lap in descending order, ties included, which a lap later is not the
// counting sort's either. Both must fall back to the comparison sort, and
// everything fires in (at, seq) order.
func TestSortedDrainAfterRewind(t *testing.T) {
	const perLap = 2 * insertionMax
	eng := NewEngine(1)
	type sched struct {
		at units.Time
		id uint64
	}
	var want []sched
	var fired []uint64
	fire := func(id uint64) {
		if eng.Now() != want[id].at {
			t.Errorf("event %d fired at %v, want %v", id, eng.Now(), want[id].at)
		}
		fired = append(fired, id)
	}
	at := func(t units.Time) {
		id := uint64(len(want))
		want = append(want, sched{t, id})
		eng.AtArg(t, fire, id)
	}
	const parked = 100 // bucket the cursor parks on
	at(parked << bucketShift)
	eng.Run(10)
	if eng.curB != parked {
		t.Fatalf("cursor at bucket %d after Run, want it parked at %d", eng.curB, parked)
	}
	// Bucket 1 lies behind the cursor; bucket 1 + nBuckets, within a span of
	// it, goes into the same ring slot.
	for i := 0; i < perLap; i++ {
		at(units.Time((1+nBuckets)<<bucketShift + i%4))
	}
	for i := 0; i < perLap; i++ {
		at(units.Time(1<<bucketShift + i%4))
	}
	if eng.curB != 1 {
		t.Fatalf("cursor at bucket %d after a schedule behind it, want it rewound to 1", eng.curB)
	}
	// The cursor's lap first: a far-lap node sorted last would leave the
	// rest of it stranded a lap on.
	eng.Run(2 << bucketShift)
	if len(fired) != perLap {
		t.Fatalf("fired %d events by the end of bucket 1, want its %d", len(fired), perLap)
	}
	eng.Run(units.Second)
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(fired) != len(want) {
		t.Fatalf("fired %d of %d events", len(fired), len(want))
	}
	for i, w := range want {
		if fired[i] != w.id {
			t.Fatalf("fire %d was event %d, want %d (at %v)", i, fired[i], w.id, w.at)
		}
	}
}

// TestOnPublishCadence: the publish hook runs every 16 Ki events inside Run
// and when Run returns, never per event; a later OnPublish replaces it and
// nil removes it.
func TestOnPublishCadence(t *testing.T) {
	eng := NewEngine(1)
	var at []uint64
	eng.OnPublish(func() { t.Fatal("replaced hook ran") })
	eng.OnPublish(func() { at = append(at, eng.Events()) })
	for i := 0; i < 40_000; i++ {
		eng.Sched(units.Time(i), func() {})
	}
	eng.Run(units.Second)
	// Before events 0, 16384 and 32768, and at exit.
	if want := []uint64{0, 16384, 32768, 40000}; !reflect.DeepEqual(at, want) {
		t.Fatalf("hook ran at events %v, want %v", at, want)
	}
	eng.OnPublish(nil)
	eng.Sched(2*units.Second, func() {})
	eng.Run(3 * units.Second)
	if len(at) != 4 {
		t.Fatalf("removed hook ran %d more times", len(at)-4)
	}
}

func TestEventCount(t *testing.T) {
	eng := NewEngine(1)
	for i := 0; i < 10; i++ {
		eng.At(units.Time(i), func() {})
	}
	eng.Run(units.Second)
	if eng.Events() != 10 {
		t.Fatalf("Events() = %d, want 10", eng.Events())
	}
}

func TestEngineStats(t *testing.T) {
	eng := NewEngine(1)
	// First wave: 10 fresh events, nothing recycled yet.
	for i := 0; i < 10; i++ {
		eng.At(units.Time(i), func() {})
	}
	eng.Run(units.Second)
	st := eng.Stats()
	if st.Events != 10 || st.Scheduled != 10 {
		t.Fatalf("after first wave: %+v", st)
	}
	if st.FreeListHits != 0 {
		t.Fatalf("fresh events reported free-list hits: %+v", st)
	}
	if st.PeakPending != 10 {
		t.Fatalf("peak pending %d, want 10", st.PeakPending)
	}
	// Second wave: 5 events, all served from the recycled 10.
	for i := 0; i < 5; i++ {
		eng.After(units.Time(i), func() {})
	}
	eng.Run(2 * units.Second)
	st = eng.Stats()
	if st.Events != 15 || st.Scheduled != 15 || st.FreeListHits != 5 {
		t.Fatalf("after second wave: %+v", st)
	}
	if st.PeakPending != 10 {
		t.Fatalf("peak pending %d, want 10 (second wave was smaller)", st.PeakPending)
	}
	if got := st.FreeListHitRate(); got != 5.0/15.0 {
		t.Fatalf("hit rate %v, want 1/3", got)
	}
}

func TestEngineStatsZero(t *testing.T) {
	var st EngineStats
	if st.FreeListHitRate() != 0 {
		t.Fatal("zero stats hit rate not 0")
	}
	if got := NewEngine(1).Stats(); got != (EngineStats{}) {
		t.Fatalf("fresh engine stats %+v, want zeros", got)
	}
}
