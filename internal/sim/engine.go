// Package sim implements the discrete-event simulation engine that drives
// every experiment in this repository. The engine is single-threaded and
// fully deterministic: events scheduled for the same instant fire in the
// order they were scheduled, and all randomness flows from one seeded
// source, so a (config, seed) pair always produces identical results.
//
// The scheduler is a calendar queue over recycled *event frames, ordered by
// (time, seq): a ring of fixed-width time buckets absorbs the near-future
// events that dominate a packet simulation (serialization, propagation and
// host-processing delays, all within tens of microseconds), making schedule
// an O(1) append. A bucket stays unordered until the cursor reaches it; it is
// then sorted once into descending (at, seq) order and drained from its end,
// so firing an event costs a slice shrink. A bucket's times are whole
// nanoseconds within one 32 ns span, and direct schedules append in seq
// order, so a dense bucket — a couple of hundred nodes on a k=16 fat-tree —
// sorts by a stable counting pass over its 32 instants, with no compares;
// only a bucket the counting pass finds out of that shape (far-wrap nodes
// left by a cursor rewind, seqs out of order within an instant) takes a
// comparison sort. Events beyond the ring's span — retransmit timers, sampler
// ticks — park in a hand-rolled 4-ary min-heap and migrate into the ring as
// the cursor approaches them.
// Every extraction selects the minimum (at, seq) key, so fire order is the
// same total order a single heap would produce and replacing the structure
// cannot perturb a run.
// Cancellation is lazy: Timer.Cancel tombstones the frame in place and the
// scheduler reaps it when it surfaces at its bucket's end, when it would
// migrate out of the overflow heap, or when a quarter of that heap is dead
// and Cancel filters it, so the cancel path — which TCP retransmit timers hit
// on every ACK — is O(1) amortized.
package sim

import (
	"math/rand"
	"slices"
	"time"

	"vertigo/internal/arena"
	"vertigo/internal/obs"
	"vertigo/internal/units"
)

// Handler is a callback invoked when an event fires.
type Handler func()

// ArgHandler is a callback invoked with the argument its event was scheduled
// with (see AtArg): one handler built per component serves every slot of a
// slab, the argument saying which slot fired.
type ArgHandler func(arg uint64)

// event is a scheduled callback. Events are recycled through the engine's
// free list once fired or reaped; gen distinguishes incarnations so that
// a Timer held across its event's recycling can never act on the new tenant.
// A tombstoned (dead) event stays in its bucket until it surfaces at the
// bucket's end, where locate discards it without firing; one in the overflow
// heap until it would migrate, or until Cancel compacts the heap (see Cancel).
//
// Exactly one of fn and afn is set (schedule writes both, so a frame rearmed
// in place cannot keep the other from its last life). The tie-breaking
// schedule sequence number lives only in the frame's heapNode, which is what
// keeps the frame at 64 bytes with a second handler and its argument aboard.
type event struct {
	at      units.Time
	fn      Handler
	afn     ArgHandler // argument-carrying handler (AtArg, SchedArg), fired as afn(arg)
	arg     uint64
	gen     uint64     // incarnation counter, bumped on recycle
	schedAt units.Time // sim time the event was scheduled, for the flight recorder
	dead    bool       // tombstone: cancelled, reaped lazily at pop
	chain   bool       // fire-and-forget (Sched, SchedArg): frame may self-reschedule in place
	parked  bool       // in the overflow heap: set by schedule, cleared by migrate or compact
	// Pad to 64 bytes: frames are carved from contiguous slabs (see alloc),
	// and a frame that straddles two cache lines costs two misses per fire.
	_ [13]byte
}

// heapNode is one calendar/heap slot: the (at, seq) sort key inlined next
// to the frame pointer, so sorts and sifts read consecutive memory instead
// of dereferencing a scattered *event per probe.
type heapNode struct {
	at  units.Time
	seq uint64
	ev  *event
}

// Calendar geometry. Bucket width is tuned to the simulator's event
// density (about one event per 6ns of simulated time in the leaf-spine
// benchmark scenario): 32ns buckets hold a handful of events each, and
// 2048 of them span 64µs — comfortably past every per-packet delay, so
// only long-deadline timers take the overflow-heap detour. A 1024-host
// fat-tree puts ~120–190 events in a bucket; one counting sort on arrival
// (see sortBucket) makes each pop a slice shrink, and only the
// ~100 buckets between the cursor and the fabric's 2 µs scheduling horizon
// are that full at once, so bucket arrays follow that window round the ring
// (see bucketKeep) instead of every slot keeping its worst burst.
const (
	bucketShift = 5            // log2 bucket width in ns
	nBuckets    = 1 << 11      // ring size (power of two)
	ringMask    = nBuckets - 1 // bucket index mask
)

// Engine is a discrete-event scheduler.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	// ring is the calendar: bucket i holds pending events whose bucket
	// number (at >> bucketShift) is congruent to i mod nBuckets. Buckets
	// are unordered until the cursor reaches them. They may contain
	// tombstones, reaped when they surface, and far-wrap nodes (bucket
	// number on a later lap of the ring than the cursor's), which sort
	// behind every node of the current lap by their larger at.
	ring    [][]heapNode
	ringCnt int   // nodes currently in the ring, tombstones included
	curB    int64 // cursor: no live node's bucket number is below curB
	// sorted marks the cursor's bucket as ordered descending on (at, seq),
	// its minimum last: locate sorts it on arrival, schedule inserts late
	// arrivals in place, and anything that moves the cursor clears it.
	sorted bool
	// nodes holds bucket arrays between tenants (see bucketKeep).
	nodes arena.Pool[heapNode]
	// sortBuf is the counting sort's output array, swapped with the bucket
	// it sorted: it grows to the densest bucket and no further.
	sortBuf []heapNode
	// overflow is a 4-ary min-heap on (at, seq) holding events scheduled
	// at least a full ring span past the cursor; migrate moves them into
	// the ring as the cursor approaches. overDead of them are tombstones.
	overflow []heapNode
	overDead int
	now      units.Time
	asOf     units.Time // the as-of clock while set (see SetAsOf), else -1
	seq      uint64
	seed     int64
	rng      *rand.Rand
	stopped  bool
	fired    uint64
	live     int      // scheduled minus tombstoned: the real pending work
	free     []*event // recycled events: At/After/Sched allocate from here
	slab     []event  // uncarved tail of the newest frame slab
	cur      *event   // firing chainable frame, reusable in place by Sched

	// Self-instrumentation (see Stats).
	freeHits    uint64 // alloc calls served from the free list
	tombPops    uint64 // tombstoned events reaped at a bucket's end, at migration or by compact
	compacts    uint64 // overflow-heap compactions triggered by Cancel
	peakPending int    // high-water mark of live scheduled events

	// Wall-clock watchdog (see SetWallDeadline).
	wallDeadline time.Time
	deadlineHit  bool

	// Event-budget cap (see SetMaxEvents).
	maxEvents    uint64
	maxEventsHit bool

	publish func()              // see OnPublish
	flight  *obs.FlightRecorder // crash flight recorder, nil when disabled
}

// bucketCap is each ring bucket's preallocated capacity. Carving all
// buckets from one backing array up front keeps steady-state scheduling
// allocation-free from the first event. A bucket that outgrows its array
// draws a larger one from the engine's size-classed free list (room), and
// hands back any array of more than bucketKeep nodes when the cursor leaves
// it drained (locate): the next burst, whichever slot it lands in, reuses it.
// The arrays a leaf-spine run grows — 32 nodes, for the couple of dozen
// events its worst bursts put in a bucket — stay put and never round-trip
// the free list; on a 1024-host fat-tree, where every bucket holds a few
// hundred as the cursor reaches it, the ring's memory is that of the ~100
// buckets dense at any instant, not 2,048 times the densest bucket ever seen
// (0.7 MB at the end of fattree16_churn, where 16.8 MB stood).
const (
	bucketCap  = 4
	bucketKeep = 64
)

// NewEngine returns an engine whose randomness is derived from seed.
func NewEngine(seed int64) *Engine {
	ring := make([][]heapNode, nBuckets)
	backing := make([]heapNode, nBuckets*bucketCap)
	for i := range ring {
		ring[i] = backing[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
	}
	return &Engine{seed: seed, rng: rand.New(rand.NewSource(seed)), ring: ring, asOf: -1}
}

// room returns ring bucket s with space for one more node.
func (e *Engine) room(s int64) []heapNode {
	if b := e.ring[s]; len(b) < cap(b) {
		return b
	}
	return e.grow(s)
}

// grow moves full bucket s to an array of twice the size from the free list
// and gives the old one back.
func (e *Engine) grow(s int64) []heapNode {
	return e.nodes.Grow(e.ring[s], bucketCap)
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Seed returns the seed the engine was built with. Components that keep
// private positional random streams (per-port jitter, see internal/xrand)
// derive their stream seeds from it so a (config, seed) pair still pins
// every draw in the simulation.
func (e *Engine) Seed() int64 { return e.seed }

// AsOf returns the instant the work in progress is accounted to: Now, except
// between SetAsOf and ClearAsOf. A lazy component that performs, inside a
// later event, work that was due at an earlier instant (a port replaying the
// pops its wire owed, see internal/fabric) brackets each piece with the
// instant it belongs to; whatever timestamps that work — a telemetry probe,
// the flight recorder — reads AsOf and records the true time. Scheduling
// always goes by Now.
func (e *Engine) AsOf() units.Time {
	if e.asOf >= 0 {
		return e.asOf
	}
	return e.now
}

// SetAsOf starts accounting work to instant t, at or before Now.
func (e *Engine) SetAsOf(t units.Time) { e.asOf = t }

// ClearAsOf returns the as-of clock to Now.
func (e *Engine) ClearAsOf() { e.asOf = -1 }

// Rand returns the engine's deterministic random source: the workload
// generators' stream and nobody else's, so the seed alone fixes the offered
// workload. The fabric draws from positional xrand streams (see fabric.New).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.fired }

// Pending returns the number of events currently scheduled and not
// cancelled. Tombstoned events still sitting in the heap are not counted.
func (e *Engine) Pending() int { return e.live }

// frameSlab is the number of event frames carved from one allocation, as
// packet.Pool does for packets: a run whose pending set keeps growing pays
// one malloc per 256 frames instead of one each.
const frameSlab = 256

// alloc takes an event off the free list, or carves a fresh one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.freeHits++
		return ev
	}
	if len(e.slab) == 0 {
		e.slab = make([]event, frameSlab)
	}
	ev := &e.slab[0]
	e.slab = e.slab[1:]
	return ev
}

// recycle returns a fired or reaped event to the free list. Bumping gen
// invalidates every Timer still pointing at the event.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.afn = nil, nil
	ev.dead = false
	e.free = append(e.free, ev)
}

// heapPush appends nd to the 4-ary min-heap h, sifting it up with inlined
// (at, seq) comparisons. seq values are unique, so ties cannot occur and
// strict comparisons suffice.
func heapPush(h []heapNode, nd heapNode) []heapNode {
	at, seq := nd.at, nd.seq
	h = append(h, heapNode{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		pn := h[p]
		if pn.at < at || (pn.at == at && pn.seq < seq) {
			break
		}
		h[i] = pn
		i = p
	}
	h[i] = nd
	return h
}

// siftDown restores 4-ary min-heap order below index i of h after h[i] was
// replaced: it sifts that node down through the at-most-four children per
// level with inlined (at, seq) comparisons over the contiguous node array.
func siftDown(h []heapNode, i int) {
	n := len(h)
	nd := h[i]
	at, seq := nd.at, nd.seq
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		mAt, mSeq := h[c].at, h[c].seq
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if h[j].at < mAt || (h[j].at == mAt && h[j].seq < mSeq) {
				m, mAt, mSeq = j, h[j].at, h[j].seq
			}
		}
		if at < mAt || (at == mAt && seq < mSeq) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = nd
}

// heapify orders h as a 4-ary min-heap on (at, seq) in place.
func heapify(h []heapNode) {
	for i := (len(h) - 2) >> 2; i >= 0; i-- {
		siftDown(h, i)
	}
}

// heapPop removes the minimum (at, seq) node — the root — from heap h.
func heapPop(h []heapNode) []heapNode {
	n := len(h) - 1
	h[0], h[n] = h[n], heapNode{}
	h = h[:n]
	if n > 1 {
		siftDown(h, 0)
	}
	return h
}

// after reports whether node a orders after node b on (at, seq).
func after(a, b *heapNode) bool {
	return a.at > b.at || (a.at == b.at && a.seq > b.seq)
}

// insertionMax is the largest bucket sortBucket orders by insertion; past it
// the counting pass pays for itself. Measured on a 2-core Xeon with buckets
// of random instants: insertion takes 37–60 ns at 8 nodes against the
// counting pass's 55–75, the two meet at 12 (about 80–100 ns each), and at
// 16 insertion takes 150–200 ns against 115–130. slices.SortFunc, which
// also sorts by insertion at this size but through its comparison closure,
// takes 44 ns at 4 nodes against 19 and 126 ns at 8.
const insertionMax = 12

// sortBucket orders bucket s — the cursor's — descending on (at, seq), its
// minimum last, so that every pop is a shrink from the end.
//
// A bucket of more than insertionMax nodes is counting-sorted on its 32
// instants (at's low bucketShift bits), stably, into sortBuf, which then
// trades places with the bucket's array. That order is exact — (at, seq)
// itself — when every node carries the cursor's bucket number and, within
// each instant, the nodes stand in increasing seq: direct schedules append
// in seq order, and migration appends the overflow heap's nodes in (at, seq)
// order before any direct schedule can reach the bucket. The counting pass
// checks both and leaves anything else — far-wrap nodes a cursor rewind put
// in the slot, or a lap's leftovers still in the descending order of their
// last drain — to a comparison sort.
func (e *Engine) sortBucket(s int64) {
	b := e.ring[s]
	n := len(b)
	if n <= insertionMax {
		for i := 1; i < n; i++ {
			nd := b[i]
			j := i
			for ; j > 0 && after(&nd, &b[j-1]); j-- {
				b[j] = b[j-1]
			}
			b[j] = nd
		}
		return
	}
	const instants = 1 << bucketShift
	var (
		end  [instants]int32  // nodes at each instant, then where its run ends
		last [instants]uint64 // 1 + the seq of the last node seen at each instant
	)
	for i := range b {
		nd := &b[i]
		k := nd.at & (instants - 1)
		if int64(nd.at)>>bucketShift != e.curB || nd.seq < last[k] {
			slices.SortFunc(b, func(x, y heapNode) int {
				if after(&x, &y) {
					return -1
				}
				return 1 // seqs are unique: no two nodes compare equal
			})
			return
		}
		last[k] = nd.seq + 1
		end[k]++
	}
	// Descending: the latest instant's run first. Each node goes to the
	// highest free index of its instant's run, so the first (lowest seq)
	// ends up last.
	var pos int32
	for k := instants - 1; k >= 0; k-- {
		pos += end[k]
		end[k] = pos
	}
	if cap(e.sortBuf) < n {
		e.nodes.Put(e.sortBuf)
		e.sortBuf = e.nodes.Get(n)
	}
	out := e.sortBuf[:n]
	for _, nd := range b {
		k := nd.at & (instants - 1)
		end[k]--
		out[end[k]] = nd
	}
	e.ring[s], e.sortBuf = out, b[:0]
}

// insertSorted puts nd, the newest schedule, into the sorted bucket b (with
// room for one more): at the first index whose at is not after nd's — nd's
// seq being the largest, it goes ahead of every node at its own instant. The
// nodes behind that index are the nearest-future ones, so the move is short.
func insertSorted(b []heapNode, nd heapNode) []heapNode {
	lo, hi := 0, len(b)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b[m].at > nd.at {
			lo = m + 1
		} else {
			hi = m
		}
	}
	b = append(b, heapNode{})
	copy(b[lo+1:], b[lo:])
	b[lo] = nd
	return b
}

// migrate moves overflow events into the ring as long as their bucket lies
// within a ring span of the cursor, and reaps the tombstones among them and,
// if what stays behind is a quarter dead, the rest.
// Called whenever the cursor advances, so the overflow invariant (bucket >=
// curB + nBuckets) holds between calls and the ring always contains the
// global minimum when it is non-empty. The cursor having just moved, no
// bucket is sorted yet (sorted is false), so a plain append is right even
// for the cursor's own slot.
func (e *Engine) migrate() {
	for len(e.overflow) > 0 && int64(e.overflow[0].at)>>bucketShift < e.curB+nBuckets {
		nd := e.overflow[0]
		e.overflow = heapPop(e.overflow)
		nd.ev.parked = false
		if nd.ev.dead {
			e.overDead--
			e.tombPops++
			e.recycle(nd.ev)
			continue
		}
		s := (int64(nd.at) >> bucketShift) & ringMask
		e.ring[s] = append(e.room(s), nd)
		e.ringCnt++
	}
	// Live nodes leaving shrink the heap around its tombstones: once they
	// are a quarter of it, compact, as Cancel does.
	if e.overDead > 0 && 4*e.overDead >= len(e.overflow) {
		e.compact()
	}
}

// compact filters every tombstone out of the overflow heap, recycles the
// frames, and re-heapifies the survivors in place. Cancel triggers it once a
// quarter of the heap is dead, as does migrate when live nodes leaving make
// it so, so the cost is O(n) but amortized O(1) per cancel; without it,
// long-deadline timers re-armed at high rate (TCP RTOs reset on every ACK)
// would pile dead frames up in the heap until their deadlines came within a
// ring span. The ring needs no such pass: a bucket drains, reaping its
// tombstones, within one ring span of simulated time. Removal cannot change
// fire order: extraction selects by the (at, seq) total order, never by
// position.
func (e *Engine) compact() {
	h := e.overflow
	kept := h[:0]
	for _, nd := range h {
		if nd.ev.dead {
			nd.ev.parked = false
			e.tombPops++
			e.recycle(nd.ev)
		} else {
			kept = append(kept, nd)
		}
	}
	clear(h[len(kept):])
	heapify(kept)
	e.overflow = kept
	e.overDead = 0
	e.compacts++
}

// schedule allocates (or reuses) a frame for the event — fn, or afn(arg) —
// and pushes it.
func (e *Engine) schedule(t units.Time, fn Handler, afn ArgHandler, arg uint64, chain bool) *event {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	var ev *event
	if chain && e.cur != nil {
		// Self-rescheduling fast path: the firing fire-and-forget frame is
		// reused in place, skipping the free-list round trip. No Timer can
		// reference a chainable frame, so gen need not move.
		ev = e.cur
		e.cur = nil
	} else {
		ev = e.alloc()
	}
	ev.at, ev.fn, ev.afn, ev.arg, ev.chain = t, fn, afn, arg, chain
	ev.schedAt = e.now
	nd := heapNode{at: t, seq: e.seq, ev: ev}
	e.seq++
	b := int64(t) >> bucketShift
	if b < e.curB {
		// Run can park the cursor past now when it stops short of the next
		// event; a schedule landing between now and the cursor rewinds it.
		// Nodes already in the ring keep working — a node whose lap the
		// cursor has not reached sorts behind the ones it has.
		e.curB = b
		e.sorted = false
	}
	s := b & ringMask
	switch {
	case b-e.curB >= nBuckets:
		ev.parked = true
		e.overflow = heapPush(e.overflow, nd)
	case e.sorted && b == e.curB:
		// The cursor's bucket is being drained in sorted order: insert.
		e.ring[s] = insertSorted(e.room(s), nd)
		e.ringCnt++
	default:
		e.ring[s] = append(e.room(s), nd)
		e.ringCnt++
	}
	e.live++
	if e.live > e.peakPending {
		e.peakPending = e.live
	}
	return ev
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a modelling bug rather than a recoverable condition.
func (e *Engine) At(t units.Time, fn Handler) Timer {
	ev := e.schedule(t, fn, nil, 0, false)
	return Timer{engine: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d units.Time, fn Handler) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AtArg is At for an argument-carrying handler: fn(arg) runs at absolute time
// t. Handler and argument ride in the event frame, so a component that keeps
// its state in slabs schedules per-slot timers through one handler built at
// construction and the slot number as arg, where At would need a closure per
// slot to say which one fired. Ordering, cancellation and recycling are At's:
// both draw from the same sequence counter and frame free list.
func (e *Engine) AtArg(t units.Time, fn ArgHandler, arg uint64) Timer {
	ev := e.schedule(t, nil, fn, arg, false)
	return Timer{engine: e, ev: ev, gen: ev.gen}
}

// AfterArg schedules fn(arg) to run d after the current time; see AtArg.
func (e *Engine) AfterArg(d units.Time, fn ArgHandler, arg uint64) Timer {
	if d < 0 {
		d = 0
	}
	return e.AtArg(e.now+d, fn, arg)
}

// Sched schedules fn to run at absolute time t with no Timer handle: the
// event cannot be cancelled or observed. Ordering is identical to At — the
// same (time, seq) tie-break, drawn from the same sequence counter. When
// called from inside a handler that was itself scheduled by Sched, the
// firing event's frame is reused in place, so a saturated transmit chain
// rides a single self-rescheduling event. Like At, scheduling in the past
// panics.
func (e *Engine) Sched(t units.Time, fn Handler) {
	e.schedule(t, fn, nil, 0, true)
}

// SchedArg is Sched for an argument-carrying handler, as AtArg is At's: fn(arg)
// runs at absolute time t with no Timer handle, and a firing fire-and-forget
// frame — whichever of Sched and SchedArg armed it — is reused in place. A
// component whose ports or slots live in one slab schedules all of them
// through one handler and the slot's index.
func (e *Engine) SchedArg(t units.Time, fn ArgHandler, arg uint64) {
	e.schedule(t, nil, fn, arg, true)
}

// SchedAfter schedules fn to run d after the current time; see Sched.
func (e *Engine) SchedAfter(d units.Time, fn Handler) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, fn, nil, 0, true)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// SetWallDeadline arms a wall-clock watchdog: Run aborts (as if Stop were
// called) once real time exceeds now+d, and DeadlineExceeded reports true.
// The check runs every few thousand events, so determinism of the executed
// prefix is unaffected — only where the run is truncated depends on the
// wall clock, and callers treat truncation as a failure, never as a result.
// A non-positive d disarms the watchdog.
func (e *Engine) SetWallDeadline(d time.Duration) {
	if d <= 0 {
		e.wallDeadline = time.Time{}
		return
	}
	e.wallDeadline = time.Now().Add(d)
}

// DeadlineExceeded reports whether a Run was aborted by the wall-clock
// watchdog armed with SetWallDeadline.
func (e *Engine) DeadlineExceeded() bool { return e.deadlineHit }

// SetMaxEvents arms an event-budget cap: Run aborts once at least n events
// have fired. Unlike the wall-clock watchdog the cap is a pure function of
// the event count, so where a capped run is truncated is deterministic —
// a runaway scenario aborts at the same event on every machine. The check
// shares the watchdog's once-per-16Ki-events cadence, so the abort lands on
// the first check at or past n, never mid-stride through the hot loop.
// Zero disarms the cap. Callers treat a capped run as a failure, never as
// a result.
func (e *Engine) SetMaxEvents(n uint64) {
	e.maxEvents = n
}

// MaxEventsExceeded reports whether a Run was aborted by the event-budget
// cap armed with SetMaxEvents.
func (e *Engine) MaxEventsExceeded() bool { return e.maxEventsHit }

// wallCheckMask throttles the watchdog to one clock read per 16 Ki events.
const wallCheckMask = 1<<14 - 1

// locate finds the minimum (at, seq) pending node and leaves it at the end
// of the cursor's bucket, whose slot it returns; ok is false when nothing is
// pending anywhere. It jumps or advances the cursor to the next populated
// bucket and sorts that bucket on arrival. Tombstones are reaped as they
// surface (live was already decremented when Cancel tombstoned them). A
// last node on a later lap of the ring — far-wrap nodes share the slot but
// carry a larger at than anything on the cursor's lap — means the bucket has
// nothing left for this lap.
func (e *Engine) locate() (s int64, ok bool) {
	for {
		if e.ringCnt == 0 {
			if len(e.overflow) == 0 {
				return 0, false
			}
			e.curB = int64(e.overflow[0].at) >> bucketShift
			e.sorted = false
			e.migrate()
		}
		s = e.curB & ringMask
		b := e.ring[s]
		if len(b) > 0 {
			if !e.sorted {
				e.sortBucket(s)
				e.sorted = true
				b = e.ring[s]
			}
			for n := len(b) - 1; n >= 0 && b[n].ev.dead; n-- {
				e.tombPops++
				e.recycle(b[n].ev)
				b[n] = heapNode{}
				b = b[:n]
				e.ringCnt--
			}
			e.ring[s] = b
			if n := len(b) - 1; n >= 0 && int64(b[n].at)>>bucketShift == e.curB {
				return s, true
			}
		}
		// A lightly loaded run walks dozens of empty buckets per event, so
		// this step stays a few instructions: no call unless there is
		// something to hand back or something that could migrate.
		if len(b) == 0 && cap(b) > bucketKeep {
			e.release(s)
		}
		e.curB++
		e.sorted = false
		if len(e.overflow) > 0 {
			e.migrate()
		}
	}
}

// release hands the array of bucket s — drained, the cursor leaving it, and
// grown past bucketKeep by a burst — to the free list, for whichever bucket
// fills next; Put clears it. (A cursor that jumps off an empty ring leaves
// its bucket's array where it is; the walk finds it a lap later.)
func (e *Engine) release(s int64) {
	e.nodes.Put(e.ring[s])
	e.ring[s] = nil
}

// Run executes events in order until the queue is empty, until Stop is
// called, until the wall-clock watchdog fires, or until the next event would
// fire after the until deadline. It returns the time at which the run ended.
func (e *Engine) Run(until units.Time) units.Time {
	e.stopped = false
	watchdog := !e.wallDeadline.IsZero()
	for !e.stopped {
		s, ok := e.locate()
		if !ok {
			break // nothing pending anywhere
		}
		b := e.ring[s]
		n := len(b) - 1
		mAt := b[n].at
		if mAt > until {
			break
		}
		if e.fired&wallCheckMask == 0 {
			// Piggyback the publish hook on the watchdog cadence: one batch
			// of registry adds per 16 Ki events keeps /metrics live without
			// putting atomic traffic on the per-event path.
			if e.publish != nil {
				e.publish()
			}
			if watchdog && time.Now().After(e.wallDeadline) {
				e.deadlineHit = true
				e.flight.Record(obs.FlightWatchdog, int64(e.now), int64(e.fired), 0, 0)
				e.stopped = true
				break
			}
			if e.maxEvents > 0 && e.fired >= e.maxEvents {
				e.maxEventsHit = true
				e.flight.Record(obs.FlightWatchdog, int64(e.now), int64(e.fired), int64(e.maxEvents), 0)
				e.stopped = true
				break
			}
		}
		ev, seq := b[n].ev, b[n].seq
		b[n] = heapNode{}
		e.ring[s] = b[:n]
		e.ringCnt--
		e.live--
		e.now = mAt
		e.fired++
		if e.flight != nil {
			e.flight.Record(obs.FlightEvent, int64(mAt), int64(ev.schedAt), int64(e.live), int64(seq))
		}
		fn := ev.fn
		if ev.chain {
			// Fire-and-forget frame: leave it parked in cur so the handler's
			// first Sched can rearm it in place. Recycling is deferred — no
			// Timer exists that could observe the frame mid-fire.
			e.cur = ev
			if afn := ev.afn; afn != nil {
				afn(ev.arg)
			} else {
				fn()
			}
			if e.cur != nil { // handler did not reschedule the frame
				e.recycle(ev)
				e.cur = nil
			}
		} else {
			// Timer-backed event: recycle before firing so the handle is
			// already inert (and the frame reusable) inside its own handler.
			afn, arg := ev.afn, ev.arg
			e.recycle(ev)
			if afn != nil {
				afn(arg)
			} else {
				fn()
			}
		}
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
	if e.publish != nil {
		e.publish() // runs shorter than the publish cadence still surface
	}
	return e.now
}

// PeekTime returns the fire time of the next pending event without running
// it, and false when nothing is scheduled. It shares Run's locate step — reaping surfaced tombstones and
// advancing the bucket cursor, both of which Run would do anyway — so a
// subsequent Run observes exactly the state it would have reached itself.
func (e *Engine) PeekTime() (units.Time, bool) {
	s, ok := e.locate()
	if !ok {
		return 0, false
	}
	b := e.ring[s]
	return b[len(b)-1].at, true
}

// EngineStats snapshots the engine's self-instrumentation: how much work a
// run did and how well the event free list recycled. Events/sec derived from
// Events and wall time is the simulator's standing throughput signal.
type EngineStats struct {
	Events         uint64 `json:"events"`          // handlers fired
	Scheduled      uint64 `json:"scheduled"`       // events scheduled via At/After/Sched
	FreeListHits   uint64 `json:"free_list_hits"`  // scheduled events reusing a recycled frame
	TombstonedPops uint64 `json:"tombstoned_pops"` // lazily-cancelled events reaped at pop, migration or compaction
	HeapSweeps     uint64 `json:"heap_sweeps"`     // overflow-heap compactions triggered by Cancel
	PeakPending    int    `json:"peak_pending"`    // high-water mark of live pending events
}

// FreeListHitRate returns the fraction of scheduled events that reused a
// recycled frame rather than allocating (0 when nothing was scheduled).
func (s EngineStats) FreeListHitRate() float64 {
	if s.Scheduled == 0 {
		return 0
	}
	return float64(s.FreeListHits) / float64(s.Scheduled)
}

// Stats returns the engine's instrumentation counters. The sequence counter
// doubles as the scheduled-event count: it increments once per At/After/Sched
// (and their Arg forms).
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Events:         e.fired,
		Scheduled:      e.seq,
		FreeListHits:   e.freeHits,
		TombstonedPops: e.tombPops,
		HeapSweeps:     e.compacts,
		PeakPending:    e.peakPending,
	}
}

// Timer is a handle to a scheduled event that can be cancelled. Timers are
// values: the zero Timer is valid and behaves like one whose event already
// fired (Cancel and Pending report false, At reports 0).
type Timer struct {
	engine *Engine
	ev     *event
	gen    uint64
}

// valid reports whether the timer still refers to its own event (the event
// has not been recycled for a later scheduling).
func (t Timer) valid() bool {
	return t.ev != nil && t.ev.gen == t.gen
}

// Cancel prevents the event from firing. Cancelling a zero, already-fired or
// already-cancelled timer is a no-op. Reports whether the event was pending.
//
// Cancellation is lazy: the event is tombstoned in place and reaped when it
// surfaces at its bucket's end, so Cancel is O(1) — no re-sift on the path
// retransmit timers hit on every ACK. A tombstone in the overflow heap is
// counted; once a quarter of the heap is dead, Cancel compacts it, so
// re-armed far timers pin at most a third again as many frames as are live.
func (t Timer) Cancel() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.dead {
		return false
	}
	ev.dead = true
	e := t.engine
	e.live--
	if ev.parked {
		if e.overDead++; 4*e.overDead >= len(e.overflow) {
			e.compact()
		}
	}
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t Timer) Pending() bool {
	return t.valid() && !t.ev.dead
}

// At returns the time the timer is scheduled to fire, or 0 for a zero Timer
// or one whose event has already fired or been cancelled.
func (t Timer) At() units.Time {
	if !t.valid() || t.ev.dead {
		return 0
	}
	return t.ev.at
}
