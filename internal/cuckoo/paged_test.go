package cuckoo

import (
	"math/rand"
	"testing"
)

// denseFilter is the flat-array filter the paged one replaced, kept here as
// the reference for what every operation must answer: same geometry, same
// hashing, same kick stream, one [4]uint16 per bucket allocated up front.
type denseFilter struct {
	buckets []bucket
	mask    uint64
	count   int
	rng     *rand.Rand
	draws   int // kick-stream position
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

func (d *denseFilter) place(i uint64, fp uint16) bool {
	for s := range d.buckets[i] {
		if d.buckets[i][s] == 0 {
			d.buckets[i][s] = fp
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
		fp, d.buckets[i][s] = d.buckets[i][s], fp
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
	for _, i := range []uint64{i1, i2} {
		for s := range d.buckets[i] {
			if d.buckets[i][s] == fp {
				d.buckets[i][s] = 0
				d.count--
				return true
			}
		}
	}
	return false
}

// sameKickPosition draws one value from both kick streams: equal values
// mean the paged filter's lazily built stream sits where the reference's
// eagerly built one does (both then stay in step, one draw further on).
func sameKickPosition(t *testing.T, f *Filter, d *denseFilter) {
	t.Helper()
	if f.rng == nil {
		if d.draws != 0 {
			t.Fatalf("reference drew %d kick values, paged filter none", d.draws)
		}
		return
	}
	if got, want := f.rng.Int63(), d.rng.Int63(); got != want {
		t.Fatalf("kick streams diverged after %d reference draws", d.draws)
	}
}

// TestPagedMatchesDense drives the paged filter and the dense reference
// through the same random insert / contains / delete / ContainsOrAdd script,
// up to 95% of the slots and so through long kick chains and failed inserts:
// every answer, Len and the kick stream must agree throughout.
func TestPagedMatchesDense(t *testing.T) {
	for _, capacity := range []int{4, 100, 3000, 1 << 16} {
		f, d := New(capacity), newDense(capacity)
		slots := int(f.mask+1) * slotsPerBucket
		rng := rand.New(rand.NewSource(int64(capacity)))
		keys := make([]uint64, 0, slots)
		fill := func(target int) {
			for op := 0; f.Len() < target && op < 20*slots; op++ {
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
				if f.Len() != d.count {
					t.Fatalf("cap %d: Len = %d, dense %d", capacity, f.Len(), d.count)
				}
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
		}
		if failed == 0 || f.Len() != d.count {
			t.Fatalf("cap %d: overfill failed %d inserts, Len %d vs dense %d", capacity, failed, f.Len(), d.count)
		}
		sameKickPosition(t, f, d)
		// Every bucket, touched or not, reads the same.
		for i := uint64(0); i <= f.mask; i++ {
			var got bucket
			if b := f.bucket(i); b != nil {
				got = *b
			}
			if got != d.buckets[i] {
				t.Fatalf("cap %d: bucket %d = %v, dense %v", capacity, i, got, d.buckets[i])
			}
		}
		// Drain and refill after Reset: the pages are gone, the kick stream
		// carries on where it was.
		f.Reset()
		*d = denseFilter{buckets: make([]bucket, len(d.buckets)), mask: d.mask, rng: d.rng, draws: d.draws}
		if f.pages != 0 || f.Len() != 0 || f.Contains(keys[0]) {
			t.Fatalf("cap %d: Reset left pages=%d len=%d", capacity, f.pages, f.Len())
		}
		keys = keys[:0]
		fill(slots * 95 / 100)
	}
}

// TestAbsentPageReadsAllocateNothing: lookups and deletes of keys whose
// pages were never placed into answer false without building the page — a
// marker that only ever sees first transmissions of a few flows must not
// page its whole filter in through EndFlow's deletes.
func TestAbsentPageReadsAllocateNothing(t *testing.T) {
	f := New(1 << 16)
	f.Insert(1)
	pages := f.pages
	key := uint64(1 << 32)
	allocs := testing.AllocsPerRun(1000, func() {
		key++
		if f.Contains(key) && f.pages == pages {
			// a false positive against the one resident page is legal
			return
		}
		f.Delete(key)
	})
	if allocs != 0 || f.pages != pages {
		t.Fatalf("absent-page reads: %.1f allocs/op, pages %d -> %d", allocs, pages, f.pages)
	}
}

// footprint is what filter f holds in bytes: chunks, their pointers, and
// the page index or table (not the shared noIndex).
func footprint(f *Filter) int {
	index := cap(f.index) * 4
	if len(f.index) < minIndex {
		index = 0
	}
	return cap(f.table)*2 + index + cap(f.chunks)*8 + len(f.chunks)*chunkBuckets*slotsPerBucket*2
}

// TestFootprintFollowsTouchedPages pins the point of paging: an idle default
// filter costs nothing past its header; a page whose last fingerprint is
// deleted is given back, and a sparse filter finds its pages through an
// index sized by what it holds, not an 8 KiB table; a lightly used one costs
// a few chunks; and a fully touched one the dense 256 KiB plus the table —
// chunks are never reallocated, so not twice that.
func TestFootprintFollowsTouchedPages(t *testing.T) {
	const dense = (1 << 15) * slotsPerBucket * 2 // default geometry, flat
	const chunkBytes = chunkBuckets * slotsPerBucket * 2
	f := New(1 << 16)
	if got := footprint(f); got != 0 || f.Contains(7) || f.Delete(7) {
		t.Errorf("idle filter holds %d B, want nothing before the first insert", got)
	}
	f.Insert(1 << 40)
	f.Delete(1 << 40)
	if f.mapped != 0 || f.free == 0 || f.table != nil {
		t.Errorf("after insert and delete: %d pages mapped, free list %d, table %d entries; want the page released", f.mapped, f.free, len(f.table))
	}
	if got := footprint(f) - chunkBytes - cap(f.chunks)*8; got != minIndex*4 {
		t.Errorf("page index is %d B after the first insert, want %d", got, minIndex*4)
	}
	f.Insert(1 << 41)
	if f.pages != 1 || f.mapped != 1 || f.free != 0 {
		t.Errorf("second page: %d ids handed out, %d mapped, free list %d; want the released page reused", f.pages, f.mapped, f.free)
	}
	f.Delete(1 << 41)
	for k := uint64(0); k < 225; k++ { // a fattree16_churn host's whole run
		f.Insert(k)
	}
	if f.table != nil {
		t.Errorf("225 inserts over %d pages switched to the dense table", f.mapped)
	}
	if got := footprint(f); got > 24<<10 {
		t.Errorf("225 inserts hold %d B over %d pages, want under 24 KiB", got, f.pages)
	}
	for k := uint64(225); k < 1<<16; k++ {
		f.Insert(k)
	}
	if f.pages != len(f.table) || f.index != nil {
		t.Fatalf("65536 inserts touched %d of %d pages, index %d entries", f.pages, len(f.table), len(f.index))
	}
	if got := footprint(f); got > dense+10<<10 {
		t.Errorf("fully touched filter holds %d B, dense array is %d", got, dense)
	}
	// A dense filter keeps its pages: the deletes leave them mapped.
	for k := uint64(0); k < 1<<16; k++ {
		f.Delete(k)
	}
	if f.mapped != f.pages || f.free != 0 {
		t.Errorf("dense filter released pages: %d of %d mapped", f.mapped, f.pages)
	}
}

// TestFootprintIndependentOfRunLength: a fixed live set churned round after
// round — every round deletes the previous round's keys and inserts as many
// new ones, as a host's flows come and go — holds no more at round 100 than
// at round 1: pages emptied by the deletes are reused, not added to, so the
// filter never hands out more page ids than keys it holds at once.
func TestFootprintIndependentOfRunLength(t *testing.T) {
	const live = 64
	f := New(1 << 16)
	var first, firstPages int
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
			first, firstPages = footprint(f), f.pages
		}
		if f.Len() != live || f.mapped > live {
			t.Fatalf("round %d: %d keys over %d pages, want %d keys", round, f.Len(), f.mapped, live)
		}
	}
	if got := footprint(f); got > first || f.pages > live {
		t.Fatalf("round 100 holds %d B in %d pages, round 1 %d B in %d", got, f.pages, first, firstPages)
	}
}

// TestLargeFilterWidensPages: past 1<<15 pages the page grows instead of the
// page id, so any capacity still indexes through 16-bit page ids — also once
// a single page outgrows a chunk and spans several, whose buckets must all
// be empty before it is given back.
func TestLargeFilterWidensPages(t *testing.T) {
	for _, capacity := range []int{1 << 22, 1 << 27} {
		f := New(capacity)
		const keys = 1 << 9
		for k := uint64(0); k < keys; k++ {
			if !f.Insert(k) {
				t.Fatalf("cap %d: insert %d failed", capacity, k)
			}
		}
		if pages := f.mask>>f.pageShift + 1; pages > 1<<maxPageBits || f.pageShift <= minPageShift {
			t.Fatalf("cap %d: %d pages at page shift %d", capacity, pages, f.pageShift)
		}
		for k := uint64(0); k < keys; k++ {
			if !f.Contains(k) {
				t.Fatalf("cap %d: false negative for %d", capacity, k)
			}
		}
		if want := (f.pages<<f.pageShift + chunkBuckets - 1) >> chunkShift; len(f.chunks) != want {
			t.Fatalf("cap %d: %d pages of %d buckets in %d chunks, want %d", capacity, f.pages, 1<<f.pageShift, len(f.chunks), want)
		}
		// Wide pages are given back too, once every bucket in them is empty.
		for k := uint64(0); k < keys; k++ {
			if !f.Delete(k) {
				t.Fatalf("cap %d: delete %d failed", capacity, k)
			}
		}
		if f.mapped != 0 || freePages(f) != f.pages {
			t.Fatalf("cap %d: %d of %d pages still mapped after deleting every key", capacity, f.mapped, f.pages)
		}
	}
}

// TestSharedChunksMatchPrivate: filters drawing their chunks from one source
// behave, operation for operation, as filters that allocate their own, the
// source allocates a slab for every chunksPerSlab chunks handed out, and no
// two filters are handed the same chunk.
func TestSharedChunksMatchPrivate(t *testing.T) {
	var src Chunks
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
	seen := map[*chunk]int{}
	for i := range shared {
		if shared[i].Len() != private[i].Len() || len(shared[i].chunks) != len(private[i].chunks) {
			t.Fatalf("filter %d: shared holds %d keys in %d chunks, private %d in %d", i,
				shared[i].Len(), len(shared[i].chunks), private[i].Len(), len(private[i].chunks))
		}
		for _, c := range shared[i].chunks {
			if j, dup := seen[c]; dup {
				t.Fatalf("filters %d and %d were handed the same chunk", j, i)
			}
			seen[c] = i
		}
	}
	if len(seen) < 2*chunksPerSlab {
		t.Fatalf("only %d chunks handed out: the test does not cross a slab boundary", len(seen))
	}
}

// pagedScripts are FuzzPagedMatchesDense's checked-in inputs: capacities
// from one bucket to 1<<17 signatures and one that widens pages.
var pagedScripts = []struct {
	capLog uint8
	seed   int64
	ops    uint16
}{
	{0, 1, 2000}, {3, 2, 6000}, {6, 3, 12000}, {8, 4, 30000}, {14, 5, 20000}, {14, 6, 60000}, {27, 7, 8000}, {40, 8, 5000},
}

// FuzzPagedMatchesDense drives the paged filter and the dense reference
// through one scripted mix of Insert, ContainsOrAdd, Contains, Delete and
// Reset, phase after phase: each phase fills toward, or drains down to, a
// target load — a sparse handful of keys, up to half the slots, or past 95%
// into kick chains and failed inserts — and churns around it once there.
// Draining deletes live keys, so pages empty and are released while the
// filter is sparse and refill later; filling crosses from the sparse index to
// the dense table. Every answer, Len, the kick-stream position and finally
// every bucket must agree.
func FuzzPagedMatchesDense(f *testing.F) {
	for _, c := range pagedScripts {
		f.Add(c.capLog, c.seed, c.ops)
	}
	f.Fuzz(func(t *testing.T, capLog uint8, seed int64, ops uint16) {
		runPagedScript(t, capLog, seed, ops)
	})
}

// TestPagedScriptsCover pins what the checked-in scripts exercise between
// them: pages released and refilled, filters that go dense, kick chains.
func TestPagedScriptsCover(t *testing.T) {
	var all scriptCover
	for _, c := range pagedScripts {
		got := runPagedScript(t, c.capLog, c.seed, c.ops)
		all.released += got.released
		all.reused += got.reused
		all.densified += got.densified
		all.kicks += got.kicks
		all.failed += got.failed
	}
	if all.released == 0 || all.reused == 0 || all.densified == 0 || all.kicks == 0 || all.failed == 0 {
		t.Fatalf("scripts cover %+v, want some of each", all)
	}
}

// scriptCover tallies what a script exercised.
type scriptCover struct {
	released, reused, densified, kicks, failed int
}

// runPagedScript runs one FuzzPagedMatchesDense script; see there.
func runPagedScript(t *testing.T, capLog uint8, seed int64, ops uint16) (cov scriptCover) {
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
			case 0:
				pf.Reset()
				*d = denseFilter{buckets: make([]bucket, len(d.buckets)), mask: d.mask, rng: d.rng, draws: d.draws}
				keys = keys[:0]
				fallthrough
			case 1: // a handful of keys per page in eight: sparse until it crosses
				target = rng.Intn(int(pf.mask>>pf.pageShift)/8 + 2)
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
		mapped, free, dense, draws := pf.mapped, pf.free, pf.table != nil, d.draws
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
		switch {
		case pf.mapped < mapped:
			cov.released++
		case pf.mapped > mapped && free != 0 && pf.free != free:
			cov.reused++
		}
		if !dense && pf.table != nil {
			cov.densified++
		}
		if d.draws > draws {
			cov.kicks++
		}
	}
	sameKickPosition(t, pf, d)
	for i := uint64(0); i <= pf.mask; i++ {
		var got bucket
		if b := pf.bucket(i); b != nil {
			got = *b
		}
		if got != d.buckets[i] {
			t.Fatalf("bucket %d = %v, dense %v", i, got, d.buckets[i])
		}
	}
	if n := freePages(pf); pf.table == nil && pf.mapped+n != pf.pages {
		t.Fatalf("%d pages mapped and %d free, %d handed out", pf.mapped, n, pf.pages)
	}
	return cov
}

// freePages counts the pages on f's free list.
func freePages(f *Filter) int {
	n := 0
	for ref := f.free; ref != 0; ref = f.first(ref)[0] {
		n++
	}
	return n
}
