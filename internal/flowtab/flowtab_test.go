package flowtab

import (
	"math/rand"
	"testing"

	"vertigo/internal/arena"
)

// TestTableBasics covers the single-key lifecycle.
func TestTableBasics(t *testing.T) {
	tb := New[int](0)
	if tb.Len() != 0 || tb.Get(7) != nil {
		t.Fatal("empty table not empty")
	}
	v, existed := tb.Put(7)
	if existed || v == nil || *v != 0 {
		t.Fatalf("Put(7) = %v, %v", v, existed)
	}
	*v = 42
	if g := tb.Get(7); g == nil || *g != 42 {
		t.Fatalf("Get(7) = %v", g)
	}
	v2, existed := tb.Put(7)
	if !existed || *v2 != 42 {
		t.Fatalf("second Put(7) = %v, %v", v2, existed)
	}
	if !tb.Delete(7) || tb.Delete(7) || tb.Get(7) != nil || tb.Len() != 0 {
		t.Fatal("Delete lifecycle broken")
	}
}

// TestTableZeroKey checks that key 0 is an ordinary key (many map-backed
// tables special-case it; flowtab must not, flow IDs can be anything).
func TestTableZeroKey(t *testing.T) {
	tb := New[string](4)
	v, _ := tb.Put(0)
	*v = "zero"
	if g := tb.Get(0); g == nil || *g != "zero" {
		t.Fatalf("Get(0) = %v", g)
	}
	if !tb.Delete(0) || tb.Get(0) != nil {
		t.Fatal("Delete(0) broken")
	}
}

// TestTableVsMap is the property test: a long random operation sequence
// applied to both a Table and a plain map must agree on every lookup,
// length, and membership answer, across enough churn to exercise slot
// recycling, growth, and backward-shift deletion.
func TestTableVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := New[int64](0)
	ref := make(map[uint64]int64)
	const keySpace = 512 // small: forces collisions and re-insertion of deleted keys
	for op := 0; op < 200000; op++ {
		key := uint64(rng.Intn(keySpace))
		switch rng.Intn(4) {
		case 0: // insert/overwrite
			val := rng.Int63()
			v, existed := tb.Put(key)
			if _, inRef := ref[key]; existed != inRef {
				t.Fatalf("op %d: Put(%d) existed=%v, map says %v", op, key, existed, inRef)
			}
			*v = val
			ref[key] = val
		case 1: // delete
			_, inRef := ref[key]
			if got := tb.Delete(key); got != inRef {
				t.Fatalf("op %d: Delete(%d) = %v, map says %v", op, key, got, inRef)
			}
			delete(ref, key)
		case 2: // lookup
			v := tb.Get(key)
			val, inRef := ref[key]
			if (v != nil) != inRef {
				t.Fatalf("op %d: Get(%d) present=%v, map says %v", op, key, v != nil, inRef)
			}
			if v != nil && *v != val {
				t.Fatalf("op %d: Get(%d) = %d, map says %d", op, key, *v, val)
			}
		case 3: // full iteration agrees with the map
			if tb.Len() != len(ref) {
				t.Fatalf("op %d: Len %d != map %d", op, tb.Len(), len(ref))
			}
			if op%1000 != 0 {
				continue
			}
			seen := make(map[uint64]int64)
			tb.Range(func(k uint64, v *int64) bool {
				if _, dup := seen[k]; dup {
					t.Fatalf("op %d: Range yielded %d twice", op, k)
				}
				seen[k] = *v
				return true
			})
			if len(seen) != len(ref) {
				t.Fatalf("op %d: Range yielded %d keys, want %d", op, len(seen), len(ref))
			}
			for k, v := range ref {
				if sv, ok := seen[k]; !ok || sv != v {
					t.Fatalf("op %d: Range missing/wrong key %d", op, k)
				}
			}
		}
	}
}

// TestTableRangeDeterministic runs the same operation sequence twice and
// requires Range to yield identical key orders — the sweeps-are-byte-
// identical guarantee depends on iteration order being a pure function
// of the operation history.
func TestTableRangeDeterministic(t *testing.T) {
	build := func() []uint64 {
		tb := New[int](3) // odd capacity: exercises growth mid-sequence
		rng := rand.New(rand.NewSource(7))
		for op := 0; op < 20000; op++ {
			key := uint64(rng.Intn(300))
			if rng.Intn(3) == 0 {
				tb.Delete(key)
			} else {
				v, _ := tb.Put(key)
				*v = op
			}
		}
		var order []uint64
		tb.Range(func(k uint64, _ *int) bool {
			order = append(order, k)
			return true
		})
		return order
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("runs disagree on length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestTableRangeInsertionOrder pins the order contract precisely for a
// churn-free history: slab order is first-insertion order.
func TestTableRangeInsertionOrder(t *testing.T) {
	tb := New[int](0)
	keys := []uint64{9, 2, 71, 33, 5, 1 << 40}
	for _, k := range keys {
		tb.Put(k)
	}
	var got []uint64
	tb.Range(func(k uint64, _ *int) bool { got = append(got, k); return true })
	for i, k := range keys {
		if got[i] != k {
			t.Fatalf("Range[%d] = %d, want insertion order %v", i, got[i], keys)
		}
	}
}

// TestTableRangeDeleteCurrent checks the one mutation Range supports:
// deleting the entry the callback was invoked with.
func TestTableRangeDeleteCurrent(t *testing.T) {
	tb := New[int](0)
	for k := uint64(0); k < 100; k++ {
		tb.Put(k)
	}
	tb.Range(func(k uint64, _ *int) bool {
		if k%2 == 0 {
			tb.Delete(k)
		}
		return true
	})
	if tb.Len() != 50 {
		t.Fatalf("Len = %d after deleting evens, want 50", tb.Len())
	}
	tb.Range(func(k uint64, _ *int) bool {
		if k%2 == 0 {
			t.Fatalf("even key %d survived", k)
		}
		return true
	})
}

// TestTableRefStability: a value pointer survives slab growth, and a slot
// its key vacates is recycled LIFO: the next insert gets the same pointer.
func TestTableRefStability(t *testing.T) {
	tb := New[int](0)
	v, _ := tb.Put(10)
	*v = 1
	for k := uint64(100); k < 1100; k++ { // force several growths
		tb.Put(k)
	}
	if w := tb.Get(10); w != v || *v != 1 {
		t.Fatalf("Get after growth = %p, want %p holding 1", w, v)
	}
	tb.Delete(10)
	if tb.Get(10) != nil {
		t.Fatal("Get after delete found the key")
	}
	if w, _ := tb.Put(9999); w != v {
		t.Fatalf("recycled slot %p, want %p", w, v)
	}
}

// TestTablePutReuse: a recycled slot keeps its value bytes with PutReuse
// and is zeroed with Put.
func TestTablePutReuse(t *testing.T) {
	type state struct{ buf []int }
	tb := New[state](0)
	v, _ := tb.Put(1)
	v.buf = append(v.buf, 1, 2, 3)
	tb.Delete(1)

	v2, existed := tb.PutReuse(2)
	if existed {
		t.Fatal("PutReuse(2) existed")
	}
	if cap(v2.buf) < 3 {
		t.Fatalf("PutReuse did not recycle buffer (cap %d)", cap(v2.buf))
	}
	tb.Delete(2)

	v3, _ := tb.Put(3)
	if v3.buf != nil {
		t.Fatal("Put handed out non-zero value")
	}
}

// TestTableSteadyStateAllocs: the per-packet operations must not
// allocate once the table has reached its working size.
func TestTableSteadyStateAllocs(t *testing.T) {
	tb := New[[4]int64](256)
	for k := uint64(0); k < 128; k++ {
		tb.Put(k)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tb.Get(64)
		tb.Delete(64)
		tb.Put(64)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Delete/Put = %v allocs, want 0", allocs)
	}
}

// TestPagedU8 covers the sparse counter array: pages sized by the counters
// their owner has, an index past them, and pages given back by Release and
// taken again from the arena.
func TestPagedU8(t *testing.T) {
	var src arena.Pool[uint8]
	var p PagedU8
	if p.Get(0) != 0 || p.Get(1<<20) != 0 {
		t.Fatal("zero value not zero")
	}
	const n = 5010 // counters: nine full pages and a tenth of 402
	p.Set(3, 7, n, &src)
	p.Set(512, 9, n, &src)  // second page
	p.Set(5000, 1, n, &src) // last page, skipping some
	if p.Get(3) != 7 || p.Get(512) != 9 || p.Get(5000) != 1 || p.Get(4) != 0 || p.Get(5009) != 0 {
		t.Fatal("Set/Get broken")
	}
	if p.pages[1] == nil || p.pages[3] != nil || len(p.pages[0]) != 1<<pageShift || len(p.pages[9]) != n-9<<pageShift {
		t.Fatal("unexpected page allocation pattern")
	}
	p.Set(5100, 2, n, &src) // past the n given: the last page widens
	if p.Get(5000) != 1 || p.Get(5100) != 2 || len(p.pages) != 10 {
		t.Fatal("widened page lost a counter")
	}
	p.Release(&src)
	if p.Get(3) != 0 || p.Get(512) != 0 || p.Get(5000) != 0 || len(p.pages) != 0 {
		t.Fatal("Release left counters")
	}
	var small PagedU8
	small.Set(27, 1, 28, &src) // a 28-segment flow
	if len(small.pages[0]) != 28 {
		t.Fatalf("28-counter page holds %d", len(small.pages[0]))
	}
	small.Release(&src)
	allocs := testing.AllocsPerRun(100, func() {
		p.Set(3, 1, n, &src)
		p.Set(5000, 2, n, &src)
		p.Release(&src)
	})
	if allocs != 0 {
		t.Fatalf("Set after Release = %v allocs, want 0: pages come back from the arena", allocs)
	}
}

// TestPagedU8Random cross-checks against a map over a clustered index
// distribution (like real retx offsets), releasing now and then.
func TestPagedU8Random(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var src arena.Pool[uint8]
	var p PagedU8
	ref := make(map[int64]uint8)
	const n = 1<<14 - 100
	for op := 0; op < 50000; op++ {
		i := int64(rng.Intn(n))
		switch r := rng.Intn(1000); {
		case r == 0:
			p.Release(&src)
			clear(ref)
		case r < 500:
			v := uint8(rng.Intn(256))
			p.Set(i, v, n, &src)
			ref[i] = v
		default:
			if p.Get(i) != ref[i] {
				t.Fatalf("op %d: Get(%d) = %d, want %d", op, i, p.Get(i), ref[i])
			}
		}
	}
}

// TestBitsSetsWhatItWasGiven: keys set are found, their neighbours and keys
// on untouched pages are not, and a page is allocated per 4,096-key block
// touched — the bits of keys as far apart as a counter's and a hash's.
func TestBitsSetsWhatItWasGiven(t *testing.T) {
	var b Bits
	keys := []uint64{0, 1, 63, 64, 4095, 4096, 1 << 40, ^uint64(0)}
	for _, k := range keys {
		if b.Has(k) {
			t.Fatalf("empty set has %d", k)
		}
		b.Set(k)
	}
	for _, k := range keys {
		if !b.Has(k) {
			t.Fatalf("set lost %d", k)
		}
	}
	for _, k := range []uint64{2, 62, 65, 4094, 4097, 1<<40 + 1, 8192, ^uint64(0) - 1} {
		if b.Has(k) {
			t.Fatalf("set has %d, never set", k)
		}
	}
	if got := b.Pages(); got != 4 {
		t.Fatalf("%d pages, want 4 (blocks 0, 1, 2^28 and the last)", got)
	}
}

// TestSlabGrowsInPages: a table never moves a value — a pointer from its
// first Put stays good through any number of inserts — and growth costs one
// page per pageLen inserts plus the probe array's doublings, not a copy of
// everything so far.
func TestSlabGrowsInPages(t *testing.T) {
	var tb Table[[4]int64]
	v, _ := tb.Put(0)
	v[0] = 42
	const more = 64 * pageLen
	allocs := testing.AllocsPerRun(1, func() {
		for k := uint64(1); k <= more; k++ {
			tb.Put(k)
		}
	})
	if w := tb.Get(0); w != v || v[0] != 42 {
		t.Fatalf("value moved from %p to %p while the table grew", v, w)
	}
	if allocs > more/pageLen+24 { // a page per pageLen inserts, a probe array per doubling, the page list
		t.Fatalf("%d inserts made %.0f allocations, want about one per %d", more, allocs, pageLen)
	}
}

// TestZeroTableAndDeleteAllocateNothing: an empty table is its header — no
// probe array, no page — and answers reads; Delete pushes on a free list
// threaded through the slots, so a table that only shrinks never allocates.
func TestZeroTableAndDeleteAllocateNothing(t *testing.T) {
	var tb Table[int]
	if tb.Get(1) != nil || tb.Delete(1) || tb.Len() != 0 {
		t.Fatal("zero table is not an empty table")
	}
	if tb.index != nil || tb.pages != nil {
		t.Fatal("reads made a zero table allocate")
	}
	for k := uint64(0); k < 4096; k++ {
		tb.Put(k)
	}
	k := uint64(0)
	if allocs := testing.AllocsPerRun(4096, func() { tb.Delete(k); k++ }); allocs != 0 {
		t.Fatalf("Delete allocates %.2f objects a call, want 0", allocs)
	}
}
