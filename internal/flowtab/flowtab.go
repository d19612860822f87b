// Package flowtab provides the flow-state tables used on the per-packet
// datapaths: an open-addressing hash table over uint64 flow keys with
// slab-allocated values and a one-entry last-hit cache, a paged byte array
// for per-segment counters, and a paged bitset for keys that need only be
// remembered. All are designed around the access pattern the simulator and
// the wire components share — long trains of packets hitting the same flow,
// bounded live-flow populations with heavy churn, and a hard determinism
// requirement (iteration order must not depend on hash seeds or allocation
// addresses).
//
// Compared with map[uint64]*T on these paths, Table[T] removes the pointer
// chase to a separately heap-allocated value (values live in slab pages),
// the per-insert allocation (freed slots are recycled through a free list
// threaded through the slots themselves), and the repeated hashing of a hot
// key (the last-hit cache turns packet trains into two loads and a
// compare). None of the operations allocate in steady state.
//
// Tables are not safe for concurrent use; in the simulator each engine
// owns its tables, matching the one-goroutine-per-run sweep model.
package flowtab

import "vertigo/internal/arena"

// ref is an index into the value slab; -1 marks an empty probe slot. Where a
// field's zero value must mean "none" (Table.free, Table.last, a free slot's
// link) it holds the ref plus one.
type ref = int32

const noRef ref = -1

// The slab grows a page at a time and a page never moves, so a table that
// serves a whole simulation — tens of thousands of values of a hundred bytes
// and more — leaves no doubled-and-abandoned arrays behind it, and a pointer
// into it stays good.
const (
	pageBits = 7
	pageLen  = 1 << pageBits
)

// page is pageLen slots of the slab. What a probe compares, the headers, is
// kept apart from the values so that it stays dense — four slots to a cache
// line whatever a value weighs — and a probe touches a value only on a hit.
type page[T any] struct {
	hdr [pageLen]hdr
	val [pageLen]T
}

// hdr names a slot's occupant. A free slot is not live, and its key field
// links the free list: one plus the free slot under it, zero at the bottom.
type hdr struct {
	key  uint64
	live bool
}

// Table is an open-addressing hash table from uint64 keys to values of
// type T stored in slab pages. A *T obtained from Get/Put stays valid until
// that key is deleted. The zero value is an empty table.
type Table[T any] struct {
	// index is the power-of-two probe array holding slab refs.
	index []ref
	mask  uint64
	// pages hold slots 0..n-1 in order. Freed slots keep their value bytes
	// so PutReuse can hand back warm state (buffers, pages) to the next
	// occupant.
	pages []*page[T]
	n     int
	// free is one plus the top of the LIFO of deleted slots awaiting reuse.
	free  ref
	count int
	// last is one plus the slab slot of the most recent hit: packet trains
	// on one flow skip the probe loop entirely.
	last ref
}

// New returns a table whose probe array is pre-sized for about capacity
// live entries.
func New[T any](capacity int) *Table[T] {
	n := 16
	for n*3 < capacity*4 { // keep load factor under 3/4 at capacity
		n *= 2
	}
	t := &Table[T]{}
	t.reindex(n)
	return t
}

// hash is the splitmix64 finalizer: full-avalanche, seedless (the same
// key hashes identically in every run, part of the determinism story).
func hash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// home is the probe slot key hashes to.
func (t *Table[T]) home(key uint64) uint64 { return hash(key) & t.mask }

func (t *Table[T]) at(r ref) *T   { return &t.pages[r>>pageBits].val[r&(pageLen-1)] }
func (t *Table[T]) hd(r ref) *hdr { return &t.pages[r>>pageBits].hdr[r&(pageLen-1)] }

// Len reports the number of live entries.
func (t *Table[T]) Len() int { return t.count }

// find returns the slab slot of key, or noRef.
func (t *Table[T]) find(key uint64) ref {
	if r := t.last - 1; r >= 0 && *t.hd(r) == (hdr{key, true}) {
		return r
	}
	if t.count == 0 {
		return noRef
	}
	for i := t.home(key); ; i = (i + 1) & t.mask {
		r := t.index[i]
		if r == noRef {
			return noRef
		}
		if *t.hd(r) == (hdr{key, true}) {
			t.last = r + 1
			return r
		}
	}
}

func (t *Table[T]) put(key uint64, zero bool) (*T, bool) {
	// Room for one more first, so that one probe run both looks the key up
	// and finds where it goes.
	if (t.count+1)*4 > len(t.index)*3 {
		t.reindex(max(2*len(t.index), 16))
	}
	i := t.home(key)
	for ; t.index[i] != noRef; i = (i + 1) & t.mask {
		if r := t.index[i]; *t.hd(r) == (hdr{key, true}) {
			t.last = r + 1
			return t.at(r), true
		}
	}
	var r ref
	if t.free != 0 {
		r = t.free - 1
		t.free = ref(t.hd(r).key)
		if zero {
			var z T
			*t.at(r) = z
		}
	} else {
		r = ref(t.n)
		if t.n>>pageBits == len(t.pages) {
			t.pages = append(t.pages, new(page[T]))
		}
		t.n++
	}
	*t.hd(r) = hdr{key, true}
	t.index[i] = r
	t.count++
	t.last = r + 1
	return t.at(r), false
}

// link enters live slot r, which is not in the probe array, into it.
func (t *Table[T]) link(r ref) {
	i := t.home(t.hd(r).key)
	for t.index[i] != noRef {
		i = (i + 1) & t.mask
	}
	t.index[i] = r
}

// reindex replaces the probe array with one of n slots and re-enters the
// slab. Slab slots, and therefore iteration order and value pointers, are
// unchanged.
func (t *Table[T]) reindex(n int) {
	t.index = make([]ref, n)
	t.mask = uint64(n - 1)
	for i := range t.index {
		t.index[i] = noRef
	}
	for r := ref(0); int(r) < t.n; r++ {
		if t.hd(r).live {
			t.link(r)
		}
	}
}

// Delete removes key, reporting whether it was present. The slab slot goes
// on the free list, which is threaded through the free slots' headers and so
// costs nothing to push on; its value bytes are retained for PutReuse.
func (t *Table[T]) Delete(key uint64) bool {
	if t.count == 0 {
		return false
	}
	for i := t.home(key); ; i = (i + 1) & t.mask {
		r := t.index[i]
		if r == noRef {
			return false
		}
		if h := t.hd(r); *h == (hdr{key, true}) {
			*h = hdr{key: uint64(t.free)}
			t.free = r + 1
			t.count--
			t.unlink(i)
			return true
		}
	}
}

// unlink removes probe slot i with backward-shift deletion, keeping every
// remaining entry reachable without tombstones.
func (t *Table[T]) unlink(i uint64) {
	j := i
	for {
		t.index[i] = noRef
		for {
			j = (j + 1) & t.mask
			r := t.index[j]
			if r == noRef {
				return
			}
			// Move r back to the freed slot unless its ideal position
			// lies cyclically between the freed slot and its current one
			// (in which case moving would break its probe chain).
			k := t.home(t.hd(r).key)
			if (j-k)&t.mask >= (j-i)&t.mask {
				t.index[i] = r
				i = j
				break
			}
		}
	}
}

// Get returns a pointer to key's value, or nil if absent.
func (t *Table[T]) Get(key uint64) *T {
	if r := t.find(key); r != noRef {
		return t.at(r)
	}
	return nil
}

// Put returns a pointer to key's value, inserting a zeroed entry if
// absent. existed reports whether the key was already present.
func (t *Table[T]) Put(key uint64) (v *T, existed bool) { return t.put(key, true) }

// PutReuse is Put, except that a freshly inserted entry occupying a
// recycled slot keeps the previous occupant's value bytes instead of
// being zeroed. Callers use it to hand grown buffers (the marker's retx
// pages) to the next flow; they must reset every semantic field themselves.
func (t *Table[T]) PutReuse(key uint64) (v *T, existed bool) { return t.put(key, false) }

// Range calls f for each live entry in slab order — the order keys were
// first inserted, with freed slots reused LIFO — which is a pure
// function of the operation history, never of hash values or addresses:
// the determinism guarantee sweeps rely on. f may delete the entry it
// was called with; entries inserted during iteration into fresh slots
// are visited, into recycled slots behind the cursor are not. Returning
// false stops the walk.
func (t *Table[T]) Range(f func(key uint64, v *T) bool) {
	for r := ref(0); int(r) < t.n; r++ {
		if h := t.hd(r); h.live && !f(h.key, t.at(r)) {
			return
		}
	}
}

// pageShift sizes PagedU8 pages: at most 512 counters (= 512 MSS segments,
// ~750 KB of flow) per page.
const pageShift = 9

const pageMask = (1 << pageShift) - 1

// PagedU8 is a sparse []uint8 indexed by segment number, used for the
// per-flow retransmission counters that replaced map[int64]uint8: a flow
// with no retransmissions has no page, and pages come from, and go back to,
// an arena shared by the flows of a simulation. A page holds 512 counters,
// or fewer when its owner has fewer: Set is told how many there are (a
// flow's segment count), so a 28-segment flow's page is 32 bytes. The page
// list outlives Release, so a recycled flow slot reuses it.
type PagedU8 struct {
	pages [][]uint8
}

// Get returns the counter at index i (0 if its page was never written).
func (p *PagedU8) Get(i int64) uint8 {
	pg := i >> pageShift
	if pg >= int64(len(p.pages)) {
		return 0
	}
	if b, j := p.pages[pg], i&pageMask; j < int64(len(b)) {
		return b[j]
	}
	return 0
}

// Set stores v at index i of n counters, taking i's page from src on first
// touch.
func (p *PagedU8) Set(i int64, v uint8, n int64, src *arena.Pool[uint8]) {
	pg, j := i>>pageShift, i&pageMask
	for int64(len(p.pages)) <= pg {
		p.pages = append(p.pages, nil)
	}
	b := p.pages[pg]
	if j >= int64(len(b)) { // no page yet, or an index past the n given
		size := max(min(n-pg<<pageShift, 1<<pageShift), j+1)
		nb := src.Get(int(size))[:size]
		copy(nb, b)
		src.Put(b)
		b, p.pages[pg] = nb, nb
	}
	b[j] = v
}

// Release gives every page back to src, zeroing all counters.
func (p *PagedU8) Release(src *arena.Pool[uint8]) {
	for i, b := range p.pages {
		src.Put(b)
		p.pages[i] = nil
	}
	p.pages = p.pages[:0]
}

// bitsShift sizes Bits pages: 4,096 keys per 512-byte page.
const (
	bitsShift = 12
	bitsWords = 1 << bitsShift / 64
)

// Bits is a sparse set of uint64 keys: one bit per key, in 4,096-bit pages
// that a Table finds by the key's high bits. A page is allocated when the
// first of its keys is set and never freed, so keys minted by a counter —
// flow IDs — cost about one bit per minted key, whatever their spread. Keys
// cannot be cleared. The zero value is an empty set.
type Bits struct {
	pages Table[[bitsWords]uint64]
}

// Set adds key to the set.
func (b *Bits) Set(key uint64) {
	pg, _ := b.pages.Put(key >> bitsShift)
	pg[key>>6&(bitsWords-1)] |= 1 << (key & 63)
}

// Has reports whether key was set.
func (b *Bits) Has(key uint64) bool {
	pg := b.pages.Get(key >> bitsShift)
	return pg != nil && pg[key>>6&(bitsWords-1)]&(1<<(key&63)) != 0
}

// Pages returns the number of pages allocated.
func (b *Bits) Pages() int { return b.pages.Len() }
