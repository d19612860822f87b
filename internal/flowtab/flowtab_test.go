package flowtab

import (
	"math/rand"
	"testing"
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

// TestTableRefStability: refs survive slab growth and report staleness
// after delete / recycling to a different key.
func TestTableRefStability(t *testing.T) {
	tb := New[int](0)
	v, _ := tb.Put(10)
	*v = 1
	r := tb.Ref(10)
	if r < 0 {
		t.Fatal("Ref(10) < 0")
	}
	for k := uint64(100); k < 1100; k++ { // force several growths
		tb.Put(k)
	}
	if k, _, v, ok := tb.AtRef(r); !ok || k != 10 || *v != 1 {
		t.Fatalf("AtRef after growth = %d, %v, %v", k, v, ok)
	}
	tb.Delete(10)
	if _, _, _, ok := tb.AtRef(r); ok {
		t.Fatal("AtRef ok after delete")
	}
	// The freed slot is recycled LIFO: the next insert lands on it.
	tb.Put(9999)
	if k, _, _, ok := tb.AtRef(r); !ok || k != 9999 {
		t.Fatalf("recycled AtRef = %d, %v, want 9999", k, ok)
	}
	if tb.Ref(12345) != -1 {
		t.Fatal("Ref of absent key != -1")
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

// TestTableReset keeps capacity but drops all entries.
func TestTableReset(t *testing.T) {
	tb := New[int](0)
	for k := uint64(0); k < 50; k++ {
		v, _ := tb.Put(k)
		*v = int(k)
	}
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tb.Len())
	}
	for k := uint64(0); k < 50; k++ {
		if tb.Get(k) != nil {
			t.Fatalf("key %d survived Reset", k)
		}
	}
	// Table still works and recycles slots lowest-first like a fresh one.
	v, existed := tb.Put(7)
	if existed || v == nil {
		t.Fatal("Put after Reset broken")
	}
	if r := tb.Ref(7); r != 0 {
		t.Fatalf("first slot after Reset = %d, want 0", r)
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

// TestPagedU8 covers the sparse counter array incl. page reuse on Reset.
func TestPagedU8(t *testing.T) {
	var p PagedU8
	if p.Get(0) != 0 || p.Get(1<<20) != 0 {
		t.Fatal("zero value not zero")
	}
	p.Set(3, 7)
	p.Set(512, 9)  // second page
	p.Set(5000, 1) // later page, skipping some
	if p.Get(3) != 7 || p.Get(512) != 9 || p.Get(5000) != 1 || p.Get(4) != 0 {
		t.Fatal("Set/Get broken")
	}
	if p.pages[1] == nil || p.pages[3] != nil {
		t.Fatal("unexpected page allocation pattern")
	}
	p.Reset()
	if p.Get(3) != 0 || p.Get(512) != 0 || p.Get(5000) != 0 {
		t.Fatal("Reset left counters")
	}
	if p.pages[0] == nil {
		t.Fatal("Reset dropped pages")
	}
	allocs := testing.AllocsPerRun(100, func() { p.Set(3, 1); p.Set(5000, 2) })
	if allocs != 0 {
		t.Fatalf("Set on touched pages = %v allocs, want 0", allocs)
	}
}

// TestPagedU8Random cross-checks against a map over a clustered index
// distribution (like real retx offsets).
func TestPagedU8Random(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var p PagedU8
	ref := make(map[int64]uint8)
	for op := 0; op < 50000; op++ {
		i := int64(rng.Intn(1 << 14))
		if rng.Intn(2) == 0 {
			v := uint8(rng.Intn(256))
			p.Set(i, v)
			ref[i] = v
		} else if p.Get(i) != ref[i] {
			t.Fatalf("op %d: Get(%d) = %d, want %d", op, i, p.Get(i), ref[i])
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
