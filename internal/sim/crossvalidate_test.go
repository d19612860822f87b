package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"vertigo/internal/units"
)

// This file cross-validates the calendar scheduler — unordered ring buckets
// sorted once as the cursor reaches them and drained from their end, a
// 4-ary overflow heap, lazy cancellation — against a deliberately naive
// reference scheduler: an unsorted slice scanned for the minimum (at, seq)
// on every step. The reference is too slow to simulate anything but
// transparently correct; random At/After/Cancel/Run/PeekTime interleavings
// must produce identical fire orders and identical Timer observations on
// both. Dense scripts pile hundreds of events into single 32 ns buckets,
// the regime a 1024-host fat-tree puts the engine in. On the engine every
// other timer goes through AfterArg — one handler for the whole script, the
// timer's number as the argument — and every third fire-and-forget event
// through SchedArg, so plain and argument events share buckets, ties and
// frames, recycled or rearmed in place; the reference knows only closures.

// refEvent is one scheduled callback in the reference scheduler.
type refEvent struct {
	at   units.Time
	seq  uint64
	fn   func()
	dead bool
	done bool
}

// refSched is the sorted-on-demand reference scheduler.
type refSched struct {
	now units.Time
	seq uint64
	evs []*refEvent
}

func (r *refSched) At(t units.Time, fn func()) *refEvent {
	if t < r.now {
		panic("refSched: scheduling event in the past")
	}
	ev := &refEvent{at: t, seq: r.seq, fn: fn}
	r.seq++
	r.evs = append(r.evs, ev)
	return ev
}

func (r *refSched) After(d units.Time, fn func()) *refEvent {
	if d < 0 {
		d = 0
	}
	return r.At(r.now+d, fn)
}

// Cancel tombstones ev, reporting whether it was still pending.
func (r *refSched) Cancel(ev *refEvent) bool {
	if ev == nil || ev.dead || ev.done {
		return false
	}
	ev.dead = true
	return true
}

func (r *refSched) Pending(ev *refEvent) bool {
	return ev != nil && !ev.dead && !ev.done
}

func (r *refSched) TimerAt(ev *refEvent) units.Time {
	if !r.Pending(ev) {
		return 0
	}
	return ev.at
}

// PeekTime returns the earliest pending fire time, as Engine.PeekTime does.
func (r *refSched) PeekTime() (units.Time, bool) {
	var at units.Time
	found := false
	for _, ev := range r.evs {
		if !ev.dead && !ev.done && (!found || ev.at < at) {
			at, found = ev.at, true
		}
	}
	return at, found
}

func (r *refSched) pendingCount() int {
	n := 0
	for _, ev := range r.evs {
		if !ev.dead && !ev.done {
			n++
		}
	}
	return n
}

// Run fires events in (at, seq) order up to and including until, advancing
// now to until if nothing later remains, exactly as Engine.Run does.
func (r *refSched) Run(until units.Time) units.Time {
	for {
		var next *refEvent
		for _, ev := range r.evs {
			if ev.dead || ev.done {
				continue
			}
			if next == nil || ev.at < next.at || (ev.at == next.at && ev.seq < next.seq) {
				next = ev
			}
		}
		if next == nil || next.at > until {
			break
		}
		next.done = true
		r.now = next.at
		next.fn()
	}
	if r.now < until {
		r.now = until
	}
	return r.now
}

// pair drives the engine and the reference through the same operations and
// fails the test at the first observable divergence. Everything a handler
// does is decided when it is scheduled, so both sides act alike whichever
// runs first.
type pair struct {
	t   *testing.T
	tag string
	eng *Engine
	ref *refSched

	engLog, refLog []int // fire order, plus in-handler cancel outcomes
	checked        int   // log prefix already compared equal
	engTimers      []Timer
	refTimers      []*refEvent
	id             int

	// The engine side's argument handlers, built once: engFire(id) is timer
	// id firing, engSched(id) fire-and-forget event id, engChild(id) the
	// child either scheduled. hands[id] is what event id does when it fires.
	hands                       []inHandler
	engFire, engSched, engChild ArgHandler
}

func newPair(t *testing.T, tag string) *pair {
	p := &pair{t: t, tag: tag, eng: NewEngine(1), ref: &refSched{}}
	p.engChild = func(id uint64) { p.engLog = append(p.engLog, -int(id)-1) }
	p.engSched = func(id uint64) {
		p.engLog = append(p.engLog, int(id))
		if h := p.hands[id]; h.nest >= 0 {
			// The child rearms the firing frame in place, in the form its
			// parent did not take.
			if id%3 == 0 {
				p.eng.SchedAfter(h.nest, func() { p.engChild(id) })
			} else {
				p.eng.SchedArg(p.eng.Now()+h.nest, p.engChild, id)
			}
		}
	}
	p.engFire = func(id uint64) {
		h := p.hands[id]
		p.engLog = append(p.engLog, int(id))
		if h.nest >= 0 {
			// The child takes the form its parent did not.
			if id&1 == 0 {
				p.eng.AfterArg(h.nest, p.engChild, id)
			} else {
				p.eng.After(h.nest, func() { p.engChild(id) })
			}
		}
		for i := h.cancelLo; i < h.cancelHi && i < len(p.engTimers); i++ {
			if p.engTimers[i].Cancel() {
				p.engLog = append(p.engLog, cancelMark+i)
			}
		}
	}
	return p
}

// inHandler is what a scheduled handler does when it fires, besides logging.
type inHandler struct {
	nest               units.Time // >= 0: schedule a child this far ahead
	cancelLo, cancelHi int        // cancel timers [cancelLo, cancelHi) that exist by then
}

var plain = inHandler{nest: -1}

const cancelMark = 1 << 30 // log entries at or above it record a successful in-handler cancel

// newID numbers the next event and records what it does when it fires.
func (p *pair) newID(h inHandler) int {
	p.hands = append(p.hands, h)
	p.id++
	return p.id - 1
}

// after schedules a Timer-backed event d ahead on both sides: an argument
// event on the engine when its number is odd, a closure otherwise.
func (p *pair) after(d units.Time, h inHandler) {
	myID := p.newID(h)
	if myID&1 == 1 {
		p.engTimers = append(p.engTimers, p.eng.AfterArg(d, p.engFire, uint64(myID)))
	} else {
		p.engTimers = append(p.engTimers, p.eng.After(d, func() { p.engFire(uint64(myID)) }))
	}
	p.refTimers = append(p.refTimers, p.ref.After(d, func() {
		p.refLog = append(p.refLog, myID)
		if h.nest >= 0 {
			p.ref.After(h.nest, func() { p.refLog = append(p.refLog, -myID-1) })
		}
		for i := h.cancelLo; i < h.cancelHi && i < len(p.refTimers); i++ {
			if p.ref.Cancel(p.refTimers[i]) {
				p.refLog = append(p.refLog, cancelMark+i)
			}
		}
	}))
}

// sched schedules a fire-and-forget event d ahead on the engine — an argument
// event when its number divides by three, a closure otherwise — and a plain
// one on the reference. With nest >= 0 it schedules a child that far ahead
// when it fires.
func (p *pair) sched(d, nest units.Time) {
	myID := p.newID(inHandler{nest: nest})
	if myID%3 == 0 {
		p.eng.SchedArg(p.eng.Now()+d, p.engSched, uint64(myID))
	} else {
		p.eng.SchedAfter(d, func() { p.engSched(uint64(myID)) })
	}
	p.ref.After(d, func() {
		p.refLog = append(p.refLog, myID)
		if nest >= 0 {
			p.ref.After(nest, func() { p.refLog = append(p.refLog, -myID-1) })
		}
	})
}

func (p *pair) cancel(i int) {
	p.t.Helper()
	if gotE, gotR := p.engTimers[i].Cancel(), p.ref.Cancel(p.refTimers[i]); gotE != gotR {
		p.t.Fatalf("%s: Cancel(%d) engine=%v ref=%v", p.tag, i, gotE, gotR)
	}
}

// run advances both sides d past now and compares where they ended.
func (p *pair) run(d units.Time) {
	p.t.Helper()
	endE := p.eng.Run(p.eng.Now() + d)
	endR := p.ref.Run(p.ref.now + d)
	if endE != endR {
		p.t.Fatalf("%s: Run end engine=%v ref=%v", p.tag, endE, endR)
	}
	p.sameLog()
}

func (p *pair) peek() {
	p.t.Helper()
	atE, okE := p.eng.PeekTime()
	atR, okR := p.ref.PeekTime()
	if atE != atR || okE != okR {
		p.t.Fatalf("%s: PeekTime engine=%v,%v ref=%v,%v", p.tag, atE, okE, atR, okR)
	}
}

// probe compares timer i's observable state and the pending counts.
func (p *pair) probe(i int) {
	p.t.Helper()
	if p1, p2 := p.engTimers[i].Pending(), p.ref.Pending(p.refTimers[i]); p1 != p2 {
		p.t.Fatalf("%s: Pending(%d) engine=%v ref=%v", p.tag, i, p1, p2)
	}
	if a1, a2 := p.engTimers[i].At(), p.ref.TimerAt(p.refTimers[i]); a1 != a2 {
		p.t.Fatalf("%s: At(%d) engine=%v ref=%v", p.tag, i, a1, a2)
	}
	if pe, pr := p.eng.Pending(), p.ref.pendingCount(); pe != pr {
		p.t.Fatalf("%s: Pending() engine=%d ref=%d", p.tag, pe, pr)
	}
	dead := 0
	for _, nd := range p.eng.overflow {
		if !nd.ev.parked {
			p.t.Fatalf("%s: overflow node at %v not marked parked", p.tag, nd.at)
		}
		if nd.ev.dead {
			dead++
		}
	}
	if dead != p.eng.overDead || (dead > 0 && 4*dead >= len(p.eng.overflow)) {
		p.t.Fatalf("%s: overflow heap holds %d tombstones of %d nodes, engine counts %d", p.tag, dead, len(p.eng.overflow), p.eng.overDead)
	}
}

// sameLog compares what the two sides logged since the last call.
func (p *pair) sameLog() {
	p.t.Helper()
	for ; p.checked < len(p.engLog) && p.checked < len(p.refLog); p.checked++ {
		if i := p.checked; p.engLog[i] != p.refLog[i] {
			p.t.Fatalf("%s: fire order diverges at %d: engine=%d ref=%d", p.tag, i, p.engLog[i], p.refLog[i])
		}
	}
	if len(p.engLog) != len(p.refLog) {
		p.t.Fatalf("%s: engine logged %d entries, ref %d", p.tag, len(p.engLog), len(p.refLog))
	}
}

// drain runs everything still scheduled and compares the complete logs.
func (p *pair) drain() {
	p.t.Helper()
	p.run(units.Second)
	if n := p.eng.Pending(); n != 0 {
		p.t.Fatalf("%s: %d events pending after drain", p.tag, n)
	}
}

// toBucketStart is the delay from now to the start of the bucket ahead.
func (p *pair) toBucketStart(ahead int64) units.Time {
	b := int64(p.eng.Now())>>bucketShift + ahead
	return units.Time(b<<bucketShift) - p.eng.Now()
}

const ringSpan = units.Time(nBuckets << bucketShift)

// runScript executes ops pseudo-random operations derived from seed on both
// schedulers. A dense script adds the operations that put the engine where a
// k=16 fat-tree does: bursts of 300+ tie-heavy events inside one bucket whose
// handlers schedule into the bucket being drained — at its current minimum
// instant, its last one and in between — and cancel out of it (the node due
// next, sometimes enough at once to tombstone most of it mid-drain), the
// burst's minimum sometimes cancelled before the cursor arrives; events near
// and past the ring span, which end up sharing slots with a later lap once a
// long Run window parks the cursor and a schedule rewinds it; far timers
// cancelled after a rewind, on both sides of the ring's edge, against the
// engine's count of overflow tombstones (see probe); overflow timers that
// migrate into a bucket where direct schedules then join them at the same
// instants; a dense bucket sharing its slot with a dense far-wrap lap after
// a rewind, which the counting sort must hand to the comparison sort twice —
// for the far-wrap nodes, and a lap later for their descending ties; and
// PeekTime between windows.
func runScript(t *testing.T, seed int64, ops int, dense bool) {
	t.Helper()
	p := newPair(t, "")
	// Both sides must make the same choices, so all randomness comes from
	// streams consumed identically for both. The sorted-drain operations —
	// the burst's minimum-instant, last-instant and next-minimum handlers,
	// and the operations after each op (see sortedDrainOp) — draw from a
	// second stream, so that rng makes the same draws, and a seed replays
	// the same operations, as before they existed.
	rng := rand.New(rand.NewSource(seed))
	xrng := rand.New(rand.NewSource(^seed))

	for op := 0; op < ops; op++ {
		p.tag = fmt.Sprintf("seed %d op %d", seed, op)
		k := rng.Intn(10)
		if dense && rng.Intn(3) == 0 {
			k = 10 + rng.Intn(6)
		}
		switch {
		case k < 4: // plain schedule, heavy tie density to stress seq order
			p.after(units.Time(rng.Intn(50)), plain)
		case k < 5: // schedule with a nested in-handler schedule
			d := units.Time(rng.Intn(50))
			p.after(d, inHandler{nest: d / 2})
		case k < 6: // fire-and-forget on the engine, plain event on the ref
			p.sched(units.Time(rng.Intn(50)), units.Time(rng.Intn(24)-12))
		case k < 9: // cancel a random timer (often already fired or dead)
			if len(p.engTimers) == 0 {
				continue
			}
			p.cancel(rng.Intn(len(p.engTimers)))
		case k < 10: // advance time
			p.run(units.Time(rng.Intn(40)))
		case k == 10: // burst into one bucket, a few buckets ahead
			n := 300 + rng.Intn(64)
			base := p.toBucketStart(int64(rng.Intn(3)))
			if base < 0 {
				base = 0 // bucket 0 ahead started before now: spill into it and the next
			}
			first := len(p.engTimers)
			hs, kinds, ds := make([]inHandler, n), make([]int, n), make([]units.Time, n)
			for i := range hs {
				hs[i] = plain
				kinds[i] = rng.Intn(16)
				switch kinds[i] {
				case 0, 1, 2: // child lands in the bucket being drained, or the next
					hs[i].nest = units.Time(rng.Intn(12))
				case 3, 4, 5: // cancel a node that has not surfaced (or has)
					hs[i].cancelLo = first + rng.Intn(n)
					hs[i].cancelHi = hs[i].cancelLo + 1
				case 6: // cancel the whole burst
					if rng.Intn(8) == 0 {
						hs[i].cancelLo, hs[i].cancelHi = first, first+n
					}
				}
				ds[i] = base + units.Time(rng.Intn(1<<bucketShift))
			}
			// fireOrder lists the burst in (at, seq) order; next[i] is the
			// burst timer due after timer i, the bucket's minimum once i fired.
			fireOrder := make([]int, n)
			for i := range fireOrder {
				fireOrder[i] = i
			}
			sort.SliceStable(fireOrder, func(a, b int) bool { return ds[fireOrder[a]] < ds[fireOrder[b]] })
			next := make([]int, n)
			for j, i := range fireOrder {
				next[i] = fireOrder[(j+1)%n]
			}
			for i, h := range hs {
				switch kinds[i] {
				case 7: // child at the drained bucket's current minimum instant, or its last
					if at := p.eng.Now() + ds[i]; xrng.Intn(2) == 0 {
						h.nest = 0
					} else {
						h.nest = (at | (1<<bucketShift - 1)) - at
					}
				case 8: // cancel the bucket's minimum once this one has fired
					h.cancelLo = first + next[i]
					h.cancelHi = h.cancelLo + 1
				}
				p.after(ds[i], h)
			}
			if xrng.Intn(4) == 0 { // the burst's minimum, before the cursor arrives
				p.cancel(first + fireOrder[0])
			}
		case k == 11: // near the ring's far edge, and past it into overflow
			p.after(ringSpan-units.Time(rng.Intn(64<<bucketShift))+units.Time(rng.Intn(3))*ringSpan/2, plain)
		case k == 12: // long window: laps the ring or parks the cursor far ahead
			p.run(units.Time(rng.Intn(int(2 * ringSpan))))
		case k == 13: // stop mid-bucket
			p.run(units.Time(rng.Intn(8)))
		case k == 14: // far timers either side of the ring's edge, a rewind, then cancels
			p.run(units.Time(rng.Intn(4 << bucketShift))) // may park the cursor past now
			edge := max(p.eng.curB, int64(p.eng.Now())>>bucketShift) + nBuckets
			first, n := len(p.engTimers), 1+rng.Intn(8)
			for i := 0; i < n; i++ {
				at := units.Time((edge+int64(rng.Intn(6)-3))<<bucketShift + int64(rng.Intn(1<<bucketShift)))
				p.after(at-p.eng.Now(), plain)
			}
			// A near event rewinds a parked cursor: the far timers that went
			// into the ring now lie a full span past it, those in the overflow
			// heap further still, and only the latter count as its dead.
			p.after(units.Time(rng.Intn(8)), plain)
			for i := first; i < first+n; i++ {
				if rng.Intn(4) != 0 {
					p.cancel(i)
				}
			}
		default:
			p.peek()
		}
		if len(p.engTimers) > 0 {
			p.probe(rng.Intn(len(p.engTimers)))
		}
		if dense && xrng.Intn(12) == 0 {
			p.tag = fmt.Sprintf("seed %d op %d sorted drain", seed, op)
			p.sortedDrainOp(xrng)
			if len(p.engTimers) > 0 {
				p.probe(xrng.Intn(len(p.engTimers)))
			}
		}
	}
	p.tag = fmt.Sprintf("seed %d drain", seed)
	p.drain()
}

// sortedDrainOp is one of the dense operations aimed at sortBucket's paths:
// overflow timers that migrate into a bucket where direct schedules then
// join them at the same instants, or a dense bucket sharing its slot with a
// dense far-wrap lap after a rewind, which the counting sort must hand to the
// comparison sort twice — for the far-wrap nodes, and a lap later for their
// descending ties.
func (p *pair) sortedDrainOp(rng *rand.Rand) {
	p.t.Helper()
	if rng.Intn(2) == 0 {
		b := max(p.eng.curB, int64(p.eng.Now())>>bucketShift) + nBuckets + int64(rng.Intn(8))
		in := func() units.Time { return units.Time(b<<bucketShift+int64(rng.Intn(4))) - p.eng.Now() }
		for i, n := 0, 6+rng.Intn(12); i < n; i++ {
			p.after(in(), plain)
		}
		// The cursor's arrival at the pacer's bucket migrates bucket b.
		walk := units.Time((b-nBuckets+1)<<bucketShift) - p.eng.Now()
		p.after(walk, plain)
		p.run(walk + units.Time(rng.Intn(64)))
		for i, n := 0, 6+rng.Intn(12); i < n; i++ {
			p.after(in(), plain)
		}
		return
	}
	p.run(units.Time(rng.Intn(4 << bucketShift))) // may park the cursor past now
	r, c := int64(p.eng.Now())>>bucketShift+1, p.eng.curB
	if c <= r {
		return // not parked: nothing to rewind
	}
	// Bucket f lies within a span of the parked cursor, so it goes into the
	// ring, and a full span past r, where a schedule rewinds it.
	f := r + nBuckets + int64(rng.Intn(int(c-r)))
	in := func(b int64) units.Time { return units.Time(b<<bucketShift+int64(rng.Intn(4))) - p.eng.Now() }
	for i, n := 0, 13+rng.Intn(8); i < n; i++ {
		p.after(in(f), plain)
	}
	p.after(in(r), plain)
	for i, n := 0, 13+rng.Intn(8); i < n; i++ {
		p.after(in(f-nBuckets), plain)
	}
}

// TestCrossValidateAgainstReference runs many random interleavings. Each
// script mixes tie-heavy scheduling, nested in-handler scheduling,
// fire-and-forget events, cancellations of live, fired and dead timers, and
// incremental Run windows.
func TestCrossValidateAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		runScript(t, seed, 300, false)
	}
}

// TestCrossValidateDense runs the dense-bucket scripts (see runScript).
func TestCrossValidateDense(t *testing.T) {
	n := int64(40)
	if testing.Short() {
		n = 8
	}
	for seed := int64(0); seed < n; seed++ {
		runScript(t, seed, 120, true)
	}
}

// TestCrossValidateDeep runs a few long scripts so tombstones pile up across
// many Run windows before being reaped.
func TestCrossValidateDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("long scripts")
	}
	for seed := int64(1000); seed < 1010; seed++ {
		runScript(t, seed, 5000, false)
	}
}

// FuzzCrossValidate lets the fuzzer hunt for interleavings the fixed seeds
// miss: the input bytes seed the same script generator, sparse or dense.
func FuzzCrossValidate(f *testing.F) {
	for _, s := range []int64{0, 1, 42, 1 << 32} {
		f.Add(s, uint16(200), false)
		f.Add(s, uint16(60), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, ops uint16, dense bool) {
		if dense {
			runScript(t, seed, int(ops)%200, true)
		} else {
			runScript(t, seed, int(ops)%2000, false)
		}
	})
}
