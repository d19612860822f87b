package flowtab

import (
	"math/rand"
	"testing"
)

// viewsVsPrivate drives one shared table through a view per owner and, beside
// it, one private table per owner with the same byte-coded operation stream,
// and requires the two to agree operation for operation. Each operation is
// two bytes: op = a>>5 (put, put-reuse, get, delete, ref, and three more puts
// to keep the tables busy), owner = a&3, key = b&15 — four owners on sixteen
// keys, so equal keys under different owners, and slots one owner vacates
// going to another, are the common case.
func viewsVsPrivate(t *testing.T, ops []byte) {
	const owners = 4
	var shared Table[uint32]
	private := make([]*Table[uint32], owners)
	for o := range private {
		private[o] = New[uint32](0)
	}
	vacated := noRef // the shared slot the latest delete freed, if no insert has taken it yet
	for n := 0; n+1 < len(ops); n += 2 {
		owner, key := uint32(ops[n]&3), uint64(ops[n+1]&15)
		view, own := shared.View(owner), private[owner]
		switch op := ops[n] >> 5; op {
		case 2: // get
			v, w := view.Get(key), own.Get(key)
			if (v == nil) != (w == nil) || v != nil && *v != *w {
				t.Fatalf("op %d: owner %d Get(%d): shared %v, private %v", n/2, owner, key, v, w)
			}
		case 3: // delete
			r := view.Ref(key)
			d, e := view.Delete(key), own.Delete(key)
			if d != e || d != (r != noRef) {
				t.Fatalf("op %d: owner %d Delete(%d): shared %v, private %v, ref before %d", n/2, owner, key, d, e, r)
			}
			if d {
				vacated = r
			}
		case 4: // ref: resolves to the key, its owner and its value
			r, q := view.Ref(key), own.Ref(key)
			if (r == noRef) != (q == noRef) {
				t.Fatalf("op %d: owner %d Ref(%d): shared %d, private %d", n/2, owner, key, r, q)
			}
			if r == noRef {
				continue
			}
			k, o, v, ok := shared.AtRef(r)
			_, _, w, _ := own.AtRef(q)
			if !ok || k != key || o != owner || *v != *w {
				t.Fatalf("op %d: AtRef(%d) = key %d owner %d value %d ok %v, want key %d owner %d value %d",
					n/2, r, k, o, *v, ok, key, owner, *w)
			}
		default: // put (op 1: put-reuse), value derived from position
			put, putOwn := view.Put, own.Put
			if op == 1 {
				put, putOwn = view.PutReuse, own.PutReuse
			}
			v, existed := put(key)
			w, existedOwn := putOwn(key)
			if existed != existedOwn {
				t.Fatalf("op %d: owner %d Put(%d): shared existed=%v, private %v", n/2, owner, key, existed, existedOwn)
			}
			if !existed {
				if op != 1 && *v != 0 {
					t.Fatalf("op %d: owner %d Put(%d) handed out a non-zero value %d", n/2, owner, key, *v)
				}
				if r := view.Ref(key); vacated != noRef && r != vacated {
					t.Fatalf("op %d: owner %d's insert took slot %d, not the slot %d the last delete vacated", n/2, owner, r, vacated)
				}
				vacated = noRef
			}
			*v, *w = uint32(n), uint32(n)
		}
		sum := 0
		for _, p := range private {
			sum += p.Len()
		}
		if shared.Len() != sum {
			t.Fatalf("op %d: shared table holds %d entries, the private ones %d together", n/2, shared.Len(), sum)
		}
	}
	// Every owner's entries, and no others, are in the shared table.
	seen := 0
	shared.Range(func(uint64, *uint32) bool { seen++; return true })
	for o, p := range private {
		p.Range(func(key uint64, w *uint32) bool {
			seen--
			if v := shared.View(uint32(o)).Get(key); v == nil || *v != *w {
				t.Fatalf("owner %d key %d: shared %v, private %d", o, key, v, *w)
			}
			return true
		})
	}
	if seen != 0 {
		t.Fatalf("shared Range saw %d entries no private table holds", seen)
	}
}

func TestSharedViewsMatchPrivateTables(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := make([]byte, 200000)
	rng.Read(ops)
	viewsVsPrivate(t, ops)
}

func FuzzSharedViewsVsPrivateTables(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x01, 0x01, 0x60, 0x01, 0x02, 0x01, 0x81, 0x01})
	f.Add([]byte("equal keys under four owners, deleted and put back in another order"))
	f.Fuzz(viewsVsPrivate)
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
	if tb.Get(1) != nil || tb.Delete(1) || tb.Ref(1) != noRef || tb.Len() != 0 {
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
