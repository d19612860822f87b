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
// One table can serve many owners: a View is one owner's key space in a
// table it shares with others, which is how a simulation keeps one table per
// kind of flow state instead of one per host (the host package's directory).
//
// Tables are not safe for concurrent use; in the simulator each engine
// owns its tables, matching the one-goroutine-per-run sweep model.
package flowtab

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

// hdr names a slot's occupant. tag is one plus the owner of a live slot (see
// View; the table's own keys have owner 0) and zero for a free one, whose key
// field then links the free list: one plus the free slot under it, zero at
// the bottom.
type hdr struct {
	key uint64
	tag uint32
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

// home is the probe slot (key, tag) hashes to. Tag 1 — a table's own key
// space — hashes as the bare key; other owners' keys are spread apart from it
// and from each other.
func (t *Table[T]) home(key uint64, tag uint32) uint64 {
	return hash(key+uint64(tag-1)*0x9e3779b97f4a7c15) & t.mask
}

func (t *Table[T]) at(r ref) *T   { return &t.pages[r>>pageBits].val[r&(pageLen-1)] }
func (t *Table[T]) hd(r ref) *hdr { return &t.pages[r>>pageBits].hdr[r&(pageLen-1)] }

// Len reports the number of live entries, every owner's together.
func (t *Table[T]) Len() int { return t.count }

// find returns the slab slot of tag's key, or noRef.
func (t *Table[T]) find(key uint64, tag uint32) ref {
	if r := t.last - 1; r >= 0 && *t.hd(r) == (hdr{key, tag}) {
		return r
	}
	if t.count == 0 {
		return noRef
	}
	for i := t.home(key, tag); ; i = (i + 1) & t.mask {
		r := t.index[i]
		if r == noRef {
			return noRef
		}
		if *t.hd(r) == (hdr{key, tag}) {
			t.last = r + 1
			return r
		}
	}
}

func (t *Table[T]) get(key uint64, tag uint32) *T {
	if r := t.find(key, tag); r != noRef {
		return t.at(r)
	}
	return nil
}

func (t *Table[T]) put(key uint64, tag uint32, zero bool) (*T, bool) {
	// Room for one more first, so that one probe run both looks the key up
	// and finds where it goes.
	if (t.count+1)*4 > len(t.index)*3 {
		t.reindex(max(2*len(t.index), 16))
	}
	i := t.home(key, tag)
	for ; t.index[i] != noRef; i = (i + 1) & t.mask {
		if r := t.index[i]; *t.hd(r) == (hdr{key, tag}) {
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
	*t.hd(r) = hdr{key, tag}
	t.index[i] = r
	t.count++
	t.last = r + 1
	return t.at(r), false
}

// link enters live slot r, which is not in the probe array, into it.
func (t *Table[T]) link(r ref) {
	h := t.hd(r)
	i := t.home(h.key, h.tag)
	for t.index[i] != noRef {
		i = (i + 1) & t.mask
	}
	t.index[i] = r
}

// reindex replaces the probe array with one of n slots and re-enters the
// slab. Slab slots (and therefore iteration order and Ref values) are
// unchanged.
func (t *Table[T]) reindex(n int) {
	t.index = make([]ref, n)
	t.mask = uint64(n - 1)
	for i := range t.index {
		t.index[i] = noRef
	}
	for r := ref(0); int(r) < t.n; r++ {
		if t.hd(r).tag != 0 {
			t.link(r)
		}
	}
}

func (t *Table[T]) delete(key uint64, tag uint32) bool {
	if t.count == 0 {
		return false
	}
	for i := t.home(key, tag); ; i = (i + 1) & t.mask {
		r := t.index[i]
		if r == noRef {
			return false
		}
		if h := t.hd(r); *h == (hdr{key, tag}) {
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
			h := t.hd(r)
			k := t.home(h.key, h.tag)
			if (j-k)&t.mask >= (j-i)&t.mask {
				t.index[i] = r
				i = j
				break
			}
		}
	}
}

// Get returns a pointer to key's value, or nil if absent.
func (t *Table[T]) Get(key uint64) *T { return t.get(key, 1) }

// Put returns a pointer to key's value, inserting a zeroed entry if
// absent. existed reports whether the key was already present.
func (t *Table[T]) Put(key uint64) (v *T, existed bool) { return t.put(key, 1, true) }

// PutReuse is Put, except that a freshly inserted entry occupying a
// recycled slot keeps the previous occupant's value bytes instead of
// being zeroed. Callers use it to hand grown buffers (the marker's retx
// pages) to the next flow; they must reset every semantic field themselves.
func (t *Table[T]) PutReuse(key uint64) (v *T, existed bool) { return t.put(key, 1, false) }

// Delete removes key, reporting whether it was present. The slab slot goes
// on the free list, which is threaded through the free slots' headers and so
// costs nothing to push on; its value bytes are retained for PutReuse.
func (t *Table[T]) Delete(key uint64) bool { return t.delete(key, 1) }

// Ref returns a stable handle for key, or -1 if absent. A ref stays
// valid for the lifetime of the table and survives slab growth; after
// the key is deleted, AtRef on it reports ok=false (and a slot recycled
// to a different key reports that key). Refs let per-entry callbacks
// (timer arguments) outlive the occupant they were made for.
func (t *Table[T]) Ref(key uint64) int32 { return t.find(key, 1) }

// AtRef resolves a handle from Ref to its current key, that key's owner
// (zero for the table's own keys) and the value.
func (t *Table[T]) AtRef(r int32) (key uint64, owner uint32, v *T, ok bool) {
	if r < 0 || int(r) >= t.n || t.hd(r).tag == 0 {
		return 0, 0, nil, false
	}
	h := t.hd(r)
	return h.key, h.tag - 1, t.at(r), true
}

// View is one owner's key space in a table shared by many: two owners' equal
// keys are different entries, and a slot one owner's key vacates is recycled
// to whichever owner inserts next — a burst-grown value warms the next flow
// anywhere, not the next flow of the same owner. Owner 0 is the table's own
// key space, the one Table's methods address. The shared table's Len, Range
// and AtRef see every owner's entries.
type View[T any] struct {
	t   *Table[T]
	tag uint32 // the owner plus one, as in hdr.tag
}

// View returns owner's view of t.
func (t *Table[T]) View(owner uint32) View[T] { return View[T]{t, owner + 1} }

// Get is Table.Get among the owner's keys.
func (v View[T]) Get(key uint64) *T { return v.t.get(key, v.tag) }

// Put is Table.Put among the owner's keys.
func (v View[T]) Put(key uint64) (*T, bool) { return v.t.put(key, v.tag, true) }

// PutReuse is Table.PutReuse among the owner's keys.
func (v View[T]) PutReuse(key uint64) (*T, bool) { return v.t.put(key, v.tag, false) }

// Delete is Table.Delete among the owner's keys.
func (v View[T]) Delete(key uint64) bool { return v.t.delete(key, v.tag) }

// Ref is Table.Ref among the owner's keys; resolve it with the shared
// table's AtRef.
func (v View[T]) Ref(key uint64) int32 { return v.t.find(key, v.tag) }

// Range calls f for each live entry in slab order — the order keys were
// first inserted, with freed slots reused LIFO — which is a pure
// function of the operation history, never of hash values or addresses:
// the determinism guarantee sweeps rely on. f may delete the entry it
// was called with; entries inserted during iteration into fresh slots
// are visited, into recycled slots behind the cursor are not. Returning
// false stops the walk.
func (t *Table[T]) Range(f func(key uint64, v *T) bool) {
	for r := ref(0); int(r) < t.n; r++ {
		if h := t.hd(r); h.tag != 0 && !f(h.key, t.at(r)) {
			return
		}
	}
}

// Reset drops every entry while keeping the slab and probe array for
// reuse. Value bytes are retained (as with Delete).
func (t *Table[T]) Reset() {
	for i := range t.index {
		t.index[i] = noRef
	}
	// Rebuild the free list so the lowest slots are handed out first,
	// matching a fresh table's allocation order.
	t.free = 0
	for r := ref(t.n) - 1; r >= 0; r-- {
		*t.hd(r) = hdr{key: uint64(t.free)}
		t.free = r + 1
	}
	t.count = 0
	t.last = 0
}

// pageShift sizes PagedU8 pages: 512 counters (= 512 MSS segments,
// ~750 KB of flow) per 512-byte page.
const pageShift = 9

const pageMask = (1 << pageShift) - 1

// PagedU8 is a sparse []uint8 indexed by segment number, used for the
// per-flow retransmission counters that replaced map[int64]uint8: flows
// with no retransmissions never allocate a page, and pages are retained
// across Reset so a recycled flow slot reuses its predecessor's memory.
type PagedU8 struct {
	pages [][]uint8
}

// Get returns the counter at index i (0 if its page was never written).
func (p *PagedU8) Get(i int64) uint8 {
	pg := i >> pageShift
	if pg >= int64(len(p.pages)) || p.pages[pg] == nil {
		return 0
	}
	return p.pages[pg][i&pageMask]
}

// Set stores v at index i, allocating the page on first touch.
func (p *PagedU8) Set(i int64, v uint8) {
	pg := i >> pageShift
	for int64(len(p.pages)) <= pg {
		p.pages = append(p.pages, nil)
	}
	b := p.pages[pg]
	if b == nil {
		b = make([]uint8, 1<<pageShift)
		p.pages[pg] = b
	}
	b[i&pageMask] = v
}

// Reset zeroes all counters, keeping allocated pages for the next flow.
func (p *PagedU8) Reset() {
	for _, b := range p.pages {
		if b != nil {
			clear(b)
		}
	}
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
