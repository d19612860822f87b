package cuckoo

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// denseFilter is the flat-array filter the table of occupied buckets
// replaced, kept here as the reference for what every operation must answer:
// same geometry, same hashing, same kick stream, one [4]uint16 per bucket
// allocated up front. It also counts its non-empty buckets and notes the
// buckets each operation writes, so that a test can hold the filter's table
// to them operation by operation.
type denseFilter struct {
	buckets  []bucket
	mask     uint64
	count    int
	nonEmpty int      // buckets holding a fingerprint
	touched  []uint64 // buckets written since the last check
	rng      *rand.Rand
	draws    int // kick-stream position
}

func newDense(capacity int) *denseFilter {
	p := New(capacity) // geometry only
	n := int(p.mask + 1)
	return &denseFilter{buckets: make([]bucket, n), mask: p.mask, rng: rand.New(rand.NewSource(int64(n)))}
}

func (d *denseFilter) hash(key uint64) (uint16, uint64, uint64) {
	g := Filter{mask: d.mask}
	fp, i1 := g.fingerprint(key)
	return fp, i1, g.altIndex(i1, fp)
}

func (d *denseFilter) intn(n int) int { d.draws++; return d.rng.Intn(n) }

// set writes fp to slot s of bucket i, keeping the tallies.
func (d *denseFilter) set(i uint64, s int, fp uint16) {
	before := d.buckets[i] != (bucket{})
	d.buckets[i][s] = fp
	switch after := d.buckets[i] != (bucket{}); {
	case after && !before:
		d.nonEmpty++
	case before && !after:
		d.nonEmpty--
	}
	d.touched = append(d.touched, i)
}

func (d *denseFilter) place(i uint64, fp uint16) bool {
	for s := range d.buckets[i] {
		if d.buckets[i][s] == 0 {
			d.set(i, s, fp)
			return true
		}
	}
	return false
}

func (d *denseFilter) has(i uint64, fp uint16) bool {
	for _, v := range d.buckets[i] {
		if v == fp {
			return true
		}
	}
	return false
}

func (d *denseFilter) Insert(key uint64) bool {
	fp, i1, i2 := d.hash(key)
	if d.place(i1, fp) || d.place(i2, fp) {
		d.count++
		return true
	}
	i := i1
	if d.intn(2) == 1 {
		i = i2
	}
	g := Filter{mask: d.mask}
	for k := 0; k < maxKicks; k++ {
		s := d.intn(slotsPerBucket)
		old := d.buckets[i][s]
		d.set(i, s, fp)
		fp = old
		i = g.altIndex(i, fp)
		if d.place(i, fp) {
			d.count++
			return true
		}
	}
	return false
}

func (d *denseFilter) Contains(key uint64) bool {
	fp, i1, i2 := d.hash(key)
	return d.has(i1, fp) || d.has(i2, fp)
}

func (d *denseFilter) ContainsOrAdd(key uint64) (bool, bool) {
	if d.Contains(key) {
		return true, true
	}
	return false, d.Insert(key)
}

func (d *denseFilter) Delete(key uint64) bool {
	fp, i1, i2 := d.hash(key)
	return d.dropAt(i1, fp) || d.dropAt(i2, fp)
}

// dropAt clears one copy of fp from bucket i.
func (d *denseFilter) dropAt(i uint64, fp uint16) bool {
	for s, v := range d.buckets[i] {
		if v == fp {
			d.set(i, s, 0)
			d.count--
			return true
		}
	}
	return false
}

// sameKickPosition draws one value from both kick streams: equal values
// mean the filter's lazily built stream sits where the reference's eagerly
// built one does (both then stay in step, one draw further on).
func sameKickPosition(t *testing.T, f *Filter, d *denseFilter) {
	t.Helper()
	if f.rng == nil {
		if d.draws != 0 {
			t.Fatalf("reference drew %d kick values, filter none", d.draws)
		}
		return
	}
	if got, want := f.rng.Int63(), d.rng.Int63(); got != want {
		t.Fatalf("kick streams diverged after %d reference draws", d.draws)
	}
}

// fullScanSlots is the table size up to which sameBuckets scans the whole
// table after every operation. A larger one is scanned once every
// fullScanEvery operations, or every quarter-table's worth of them, so that
// the scans cost a few slots an operation; in between it is checked at the
// buckets each operation wrote.
const (
	fullScanSlots = 1 << 8
	fullScanEvery = 256
)

// fullScanDue reports whether the check after operation op scans f's whole
// table.
func fullScanDue(op int, f *Filter) bool {
	return len(f.table) <= fullScanSlots || op%max(fullScanEvery, len(f.table)/4) == 0
}

// sameBuckets checks that f's occupied slots are exactly d's non-empty
// buckets: as many, every bucket d wrote since the last check present in f
// exactly when it is non-empty in d, and, with full, each slot's bucket as d
// holds it and reachable from its probe start.
func sameBuckets(t *testing.T, f *Filter, d *denseFilter, full bool) {
	t.Helper()
	if f.used != d.nonEmpty {
		t.Fatalf("%d occupied slots, reference has %d non-empty buckets", f.used, d.nonEmpty)
	}
	if full {
		n := 0
		for h, s := range f.table {
			if s.ref == 0 {
				continue
			}
			n++
			i := uint64(s.ref - 1)
			if s.b == (bucket{}) || s.b != d.buckets[i] {
				t.Fatalf("slot %d holds bucket %d = %v, reference %v", h, i, s.b, d.buckets[i])
			}
			if g, _ := f.find(i); g != uint64(h) {
				t.Fatalf("bucket %d sits in slot %d but probes to %d", i, h, g)
			}
		}
		if n != f.used {
			t.Fatalf("%d occupied slots, %d counted", n, f.used)
		}
	}
	for _, i := range d.touched {
		_, b := f.find(i)
		var got bucket
		if b != nil {
			got = *b
		}
		if (b != nil) != (d.buckets[i] != bucket{}) || got != d.buckets[i] {
			t.Fatalf("bucket %d = %v (stored %v), reference %v", i, got, b != nil, d.buckets[i])
		}
	}
	d.touched = d.touched[:0]
}

// TestFilterMatchesFlat drives the filter and the flat reference through the
// same random insert / contains / delete / ContainsOrAdd script, up to 95%
// of the slots and so through long kick chains and failed inserts: every
// answer, Len, the kick stream and the occupied buckets must agree
// throughout. Then it drains both, and the table shrinks back to its
// smallest size.
func TestFilterMatchesFlat(t *testing.T) {
	for _, capacity := range []int{4, 100, 3000, 1 << 16} {
		f, d := New(capacity), newDense(capacity)
		slots := int(f.mask+1) * slotsPerBucket
		rng := rand.New(rand.NewSource(int64(capacity)))
		keys := make([]uint64, 0, slots)
		op := 0
		check := func() {
			t.Helper()
			if f.Len() != d.count {
				t.Fatalf("cap %d: Len = %d, dense %d", capacity, f.Len(), d.count)
			}
			sameBuckets(t, f, d, fullScanDue(op, f))
			op++
		}
		fill := func(target int) {
			for n := 0; f.Len() < target && n < 20*slots; n++ {
				var key uint64
				if len(keys) > 0 && rng.Intn(3) == 0 {
					key = keys[rng.Intn(len(keys))]
				} else {
					key = rng.Uint64()
				}
				switch rng.Intn(8) {
				case 0, 1, 2:
					got, want := f.Insert(key), d.Insert(key)
					if got != want {
						t.Fatalf("cap %d: Insert(%#x) = %v, dense %v at len %d", capacity, key, got, want, d.count)
					}
					keys = append(keys, key)
				case 3, 4:
					gp, gok := f.ContainsOrAdd(key)
					wp, wok := d.ContainsOrAdd(key)
					if gp != wp || gok != wok {
						t.Fatalf("cap %d: ContainsOrAdd(%#x) = %v,%v, dense %v,%v", capacity, key, gp, gok, wp, wok)
					}
					keys = append(keys, key)
				case 5, 6:
					if got, want := f.Contains(key), d.Contains(key); got != want {
						t.Fatalf("cap %d: Contains(%#x) = %v, dense %v", capacity, key, got, want)
					}
				default:
					if got, want := f.Delete(key), d.Delete(key); got != want {
						t.Fatalf("cap %d: Delete(%#x) = %v, dense %v", capacity, key, got, want)
					}
				}
				check()
			}
			if capacity > 4 && f.Len() < target {
				t.Fatalf("cap %d: script stalled at %d of %d items", capacity, f.Len(), target)
			}
			sameKickPosition(t, f, d)
		}
		fill(slots / 2)
		fill(slots * 95 / 100)
		if capacity > 4 && d.draws == 0 {
			t.Fatalf("cap %d: script never kicked", capacity)
		}
		// Overfill: inserts now fail after 500 kicks, each failure dropping
		// whichever fingerprint the chain ended on — the same one on both.
		failed := 0
		for k := 0; k < slots/4+8; k++ {
			key := rng.Uint64()
			got, want := f.Insert(key), d.Insert(key)
			if got != want {
				t.Fatalf("cap %d: overfill Insert = %v, dense %v", capacity, got, want)
			}
			if !got {
				failed++
			}
			check()
		}
		if failed == 0 || f.Len() != d.count {
			t.Fatalf("cap %d: overfill failed %d inserts, Len %d vs dense %d", capacity, failed, f.Len(), d.count)
		}
		sameKickPosition(t, f, d)
		sameBuckets(t, f, d, true)
		// Drain every fingerprint still held, bucket by bucket: the table
		// shrinks back to its smallest size, and nothing reads as present.
		for i := range d.buckets {
			for _, fp := range d.buckets[i] {
				if fp == 0 {
					continue
				}
				h, b := f.find(uint64(i))
				if !b.drop(fp) || !d.dropAt(uint64(i), fp) {
					t.Fatalf("cap %d: fingerprint %#x of bucket %d missing", capacity, fp, i)
				}
				f.count--
				if *b == (bucket{}) {
					f.remove(h)
				}
				check()
			}
		}
		if f.used != 0 || len(f.table) != minTable || f.Len() != 0 || f.Contains(keys[0]) {
			t.Fatalf("cap %d: drained table keeps %d slots, %d occupied, %d keys; want %d, none", capacity, len(f.table), f.used, f.Len(), minTable)
		}
	}
}

// TestAbsentLookupsAllocateNothing: lookups and deletes of keys whose
// buckets hold nothing answer false without storing the bucket or moving the
// table — a marker that only ever sees first transmissions of a few flows
// must not grow its table through EndFlow's deletes.
func TestAbsentLookupsAllocateNothing(t *testing.T) {
	empty, one := New(1<<16), New(1<<16)
	one.Insert(1)
	for _, f := range []*Filter{empty, one} {
		table, used := &f.table[0], f.used
		key := uint64(1 << 32)
		allocs := testing.AllocsPerRun(1000, func() {
			key++
			if f.Contains(key) {
				return // a false positive against the resident key is legal
			}
			f.Delete(key)
		})
		if allocs != 0 || &f.table[0] != table || f.used != used {
			t.Fatalf("absent lookups: %.1f allocs/op, occupied %d -> %d", allocs, used, f.used)
		}
	}
}

// footprint is what filter f holds in bytes: its table, unless it is the
// shared noTable.
func footprint(f *Filter) int {
	if len(f.table) < minTable {
		return 0
	}
	return cap(f.table) * int(unsafe.Sizeof(slot{}))
}

// TestFootprintFollowsOccupiedBuckets pins the point of the table: an idle
// filter costs nothing past its header; a filter's table is sized by its
// occupied buckets — between two and four slots each, past the smallest
// table — whatever its capacity, so a default host filter holding a
// fattree16_churn host's whole run of signatures costs a few KiB where the
// flat array cost 256 KiB; and filling then draining it returns the table
// to its smallest size.
func TestFootprintFollowsOccupiedBuckets(t *testing.T) {
	f := New(1 << 16)
	if got := footprint(f); got != 0 || f.Contains(7) || f.Delete(7) {
		t.Errorf("idle filter holds %d B, want nothing before the first insert", got)
	}
	f.Insert(1 << 40)
	if f.used != 1 || len(f.table) != minTable {
		t.Errorf("one key: %d occupied of %d slots, want 1 of %d", f.used, len(f.table), minTable)
	}
	f.Delete(1 << 40)
	if f.used != 0 || len(f.table) != minTable {
		t.Errorf("after insert and delete: %d occupied of %d slots, want the bucket removed", f.used, len(f.table))
	}
	// A table doubles as it would pass half full, so while filling it
	// keeps two to four slots an occupied bucket; it halves under an
	// eighth full, so while draining up to eight.
	bounded := func(what string, most int) {
		t.Helper()
		if n := len(f.table); n > max(minTable, most*f.used) || n < 2*f.used {
			t.Errorf("%s: %d slots for %d occupied buckets, want between 2 and %d each", what, n, f.used, most)
		}
	}
	for k := uint64(0); k < 225; k++ { // a fattree16_churn host's whole run
		f.Insert(k)
	}
	bounded("225 keys", 4)
	if got := footprint(f); got > 12<<10 {
		t.Errorf("225 keys hold %d B in %d occupied buckets, want under 12 KiB", got, f.used)
	}
	for k := uint64(225); k < 1<<15; k++ {
		f.Insert(k)
		if k&(k+1) == 0 {
			bounded("filling", 4)
		}
	}
	for k := uint64(0); k < 1<<15; k++ {
		if !f.Delete(k) {
			t.Fatalf("key %d missing", k)
		}
		if k&(k+1) == 0 {
			bounded("draining", 8)
		}
	}
	if f.used != 0 || len(f.table) != minTable || f.Len() != 0 {
		t.Fatalf("drained filter keeps %d slots, %d occupied, %d keys; want %d, none", len(f.table), f.used, f.Len(), minTable)
	}
}

// TestLargeFilterStoresOnlyItsBuckets: a filter of any capacity costs the
// table of its occupied buckets — 512 keys in a filter of a hundred million
// signatures take a table of at most four slots a key — and every key
// inserted is found, and deleted, as in a small one.
func TestLargeFilterStoresOnlyItsBuckets(t *testing.T) {
	for _, capacity := range []int{1 << 22, 1 << 27} {
		f := New(capacity)
		const keys = 1 << 9
		for k := uint64(0); k < keys; k++ {
			if !f.Insert(k) {
				t.Fatalf("cap %d: insert %d failed", capacity, k)
			}
		}
		if f.mask < 1<<19 || len(f.table) > 4*keys {
			t.Fatalf("cap %d: %d occupied of %d buckets stored in %d slots", capacity, f.used, f.mask+1, len(f.table))
		}
		for k := uint64(0); k < keys; k++ {
			if !f.Contains(k) {
				t.Fatalf("cap %d: false negative for %d", capacity, k)
			}
		}
		for k := uint64(0); k < keys; k++ {
			if !f.Delete(k) {
				t.Fatalf("cap %d: delete %d failed", capacity, k)
			}
		}
		if f.used != 0 || len(f.table) != minTable {
			t.Fatalf("cap %d: %d buckets still stored in %d slots after deleting every key", capacity, f.used, len(f.table))
		}
	}
}

// TestFootprintIndependentOfRunLength: a fixed live set churned round after
// round — every round deletes the previous round's keys and inserts as many
// new ones, as a host's flows come and go — holds no more at round 100 than
// at round 1: buckets emptied by the deletes leave the table.
func TestFootprintIndependentOfRunLength(t *testing.T) {
	const live = 64
	f := New(1 << 16)
	var first int
	for round := 1; round <= 100; round++ {
		base := uint64(round) << 20
		for k := uint64(0); k < live && round > 1; k++ {
			if !f.Delete(base - 1<<20 + k) {
				t.Fatalf("round %d: key %d of the previous round missing", round, k)
			}
		}
		for k := uint64(0); k < live; k++ {
			f.Insert(base + k)
		}
		if round == 1 {
			first = footprint(f)
		}
		if f.Len() != live || f.used > live {
			t.Fatalf("round %d: %d keys over %d buckets, want %d keys", round, f.Len(), f.used, live)
		}
	}
	if got := footprint(f); got > first {
		t.Fatalf("round 100 holds %d B, round 1 %d B", got, first)
	}
}

// TestSharedArenaMatchesPrivate: filters drawing their tables from one arena
// behave, operation for operation, as filters that allocate their own, and
// no two filters are handed the same table.
func TestSharedArenaMatchesPrivate(t *testing.T) {
	var src Arena
	const filters = 8
	shared, private := make([]Filter, filters), make([]*Filter, filters)
	for i := range shared {
		shared[i].Init(1<<16, &src)
		private[i] = New(1 << 16)
	}
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 40000; op++ {
		i, key := rng.Intn(filters), uint64(rng.Intn(4000))
		switch rng.Intn(3) {
		case 0:
			p1, ok1 := shared[i].ContainsOrAdd(key)
			p2, ok2 := private[i].ContainsOrAdd(key)
			if p1 != p2 || ok1 != ok2 {
				t.Fatalf("op %d: ContainsOrAdd(%d) on filter %d: shared %v/%v, private %v/%v", op, key, i, p1, ok1, p2, ok2)
			}
		case 1:
			if a, b := shared[i].Delete(key), private[i].Delete(key); a != b {
				t.Fatalf("op %d: Delete(%d) on filter %d: shared %v, private %v", op, key, i, a, b)
			}
		case 2:
			if a, b := shared[i].Contains(key), private[i].Contains(key); a != b {
				t.Fatalf("op %d: Contains(%d) on filter %d: shared %v, private %v", op, key, i, a, b)
			}
		}
	}
	seen := map[*slot]int{}
	for i := range shared {
		if shared[i].Len() != private[i].Len() || shared[i].used != private[i].used {
			t.Fatalf("filter %d: shared holds %d keys in %d buckets, private %d in %d", i,
				shared[i].Len(), shared[i].used, private[i].Len(), private[i].used)
		}
		tb := &shared[i].table[0]
		if j, dup := seen[tb]; dup {
			t.Fatalf("filters %d and %d were handed the same table", j, i)
		}
		seen[tb] = i
	}
	if src.Hits() == 0 {
		t.Fatal("no table was handed back and reused: the test does not cross a resize")
	}
}

// TestSharedArenaAllocsPerFilter: a thousand filters on one arena — a
// fat-tree's hosts — cost a bounded number of mallocs each however their
// tables grow and shrink: small tables are carved from shared chunks, and
// each outgrown one serves the next filter growing through its size.
func TestSharedArenaAllocsPerFilter(t *testing.T) {
	const filters, keys = 1024, 24
	var src Arena
	fs := make([]Filter, filters)
	least := ^uint64(0)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range fs {
			fs[i].Init(1<<16, &src)
			base := uint64(round)<<32 | uint64(i)<<16
			for k := uint64(0); k < keys; k++ {
				fs[i].Insert(base + k)
			}
			for k := uint64(0); k < keys/2; k++ {
				fs[i].Delete(base + k)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	// The filters re-initialised each round strand their tables; the arena
	// carves each round's from a chunk per 2,048 slots. The least of three
	// readings sheds the runtime's own mallocs under a parallel test run.
	if per := float64(least) / filters; per > 0.25 {
		t.Fatalf("%d filters cost %d mallocs, %.2f each; want a chunk's worth per many filters", filters, least, per)
	}
}

// scripts are FuzzFilterMatchesFlat's checked-in inputs: capacities from one
// bucket to 1<<17 signatures and beyond.
var scripts = []struct {
	capLog uint8
	seed   int64
	ops    uint16
}{
	{0, 1, 2000}, {3, 2, 6000}, {6, 3, 12000}, {8, 4, 30000}, {14, 5, 20000}, {14, 6, 60000}, {27, 7, 8000}, {40, 8, 5000},
}

// FuzzFilterMatchesFlat drives the filter and the flat reference through one
// scripted mix of Insert, ContainsOrAdd, Contains and Delete, phase after
// phase: each phase fills toward, or drains down to, a target load — a
// sparse handful of keys, up to half the slots, or past 95% into kick chains
// and failed inserts — and churns around it once there. Filling doubles the
// table; draining empties buckets, whose slots go by backward shift, and
// halves it. Every answer, Len, the kick-stream position and, after every
// operation, the occupied buckets must agree.
func FuzzFilterMatchesFlat(f *testing.F) {
	for _, c := range scripts {
		f.Add(c.capLog, c.seed, c.ops)
	}
	f.Fuzz(func(t *testing.T, capLog uint8, seed int64, ops uint16) {
		runScript(t, capLog, seed, ops)
	})
}

// TestScriptsCover pins what the checked-in scripts exercise between them:
// buckets removed, tables grown and shrunk, kick chains, failed inserts.
func TestScriptsCover(t *testing.T) {
	var all scriptCover
	for _, c := range scripts {
		got := runScript(t, c.capLog, c.seed, c.ops)
		all.removed += got.removed
		all.grown += got.grown
		all.shrunk += got.shrunk
		all.kicks += got.kicks
		all.failed += got.failed
	}
	if all.removed == 0 || all.grown == 0 || all.shrunk == 0 || all.kicks == 0 || all.failed == 0 {
		t.Fatalf("scripts cover %+v, want some of each", all)
	}
}

// scriptCover tallies what a script exercised.
type scriptCover struct {
	removed, grown, shrunk, kicks, failed int
}

// runScript runs one FuzzFilterMatchesFlat script; see there.
func runScript(t *testing.T, capLog uint8, seed int64, ops uint16) (cov scriptCover) {
	t.Helper()
	capacity := 4<<(capLog%15) + int(capLog/15)*37
	pf, d := New(capacity), newDense(capacity)
	slots := int(pf.mask+1) * slotsPerBucket
	rng := rand.New(rand.NewSource(seed))
	var keys []uint64 // inserted and not yet deleted, duplicates included
	target := 0
	for op := 0; op < int(ops); op++ {
		if op%1024 == 0 || pf.Len() == target && rng.Intn(64) == 0 {
			sameKickPosition(t, pf, d)
			switch rng.Intn(6) {
			case 0, 1: // a handful of keys per bucket in eight
				target = rng.Intn(int(pf.mask)/8 + 2)
			case 2:
				target = rng.Intn(slots/2 + 1)
			case 3:
				target = slots * (95 + rng.Intn(6)) / 100
			default:
				target = 0
			}
		}
		grow := pf.Len() < target
		var key uint64
		if len(keys) > 0 && (!grow || rng.Intn(4) == 0) {
			j := rng.Intn(len(keys))
			key = keys[j]
			if !grow {
				keys[j] = keys[len(keys)-1]
				keys = keys[:len(keys)-1]
			}
		} else {
			key = rng.Uint64()
		}
		used, size, draws := pf.used, len(pf.table), d.draws
		switch r := rng.Intn(8); {
		case !grow && r < 6:
			if got, want := pf.Delete(key), d.Delete(key); got != want {
				t.Fatalf("op %d: Delete(%#x) = %v, dense %v", op, key, got, want)
			}
		case r < 3:
			got, want := pf.Insert(key), d.Insert(key)
			if got != want {
				t.Fatalf("op %d: Insert(%#x) = %v, dense %v at len %d", op, key, got, want, d.count)
			}
			if got {
				keys = append(keys, key)
			} else {
				cov.failed++
			}
		case r < 6:
			gp, gok := pf.ContainsOrAdd(key)
			wp, wok := d.ContainsOrAdd(key)
			if gp != wp || gok != wok {
				t.Fatalf("op %d: ContainsOrAdd(%#x) = %v,%v, dense %v,%v", op, key, gp, gok, wp, wok)
			}
			if !gp && gok {
				keys = append(keys, key)
			}
		default:
			if got, want := pf.Contains(key), d.Contains(key); got != want {
				t.Fatalf("op %d: Contains(%#x) = %v, dense %v", op, key, got, want)
			}
		}
		if pf.Len() != d.count {
			t.Fatalf("op %d: Len = %d, dense %d", op, pf.Len(), d.count)
		}
		sameBuckets(t, pf, d, fullScanDue(op, pf))
		switch {
		case pf.used < used:
			cov.removed++
		case len(pf.table) > size && size >= minTable:
			cov.grown++
		}
		if len(pf.table) < size {
			cov.shrunk++
		}
		if d.draws > draws {
			cov.kicks++
		}
	}
	sameKickPosition(t, pf, d)
	sameBuckets(t, pf, d, true)
	return cov
}
