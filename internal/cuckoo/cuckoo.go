// Package cuckoo implements a bucketized cuckoo filter (Fan et al.,
// CoNEXT'14): an approximate set membership structure supporting insert,
// lookup and delete in O(1), used by Vertigo's marking component to detect
// retransmitted packets (paper §3.1.2, mirroring the DPDK cuckoo filter the
// authors used).
//
// The filter stores short fingerprints in 4-slot buckets; each item has two
// candidate buckets derived by partial-key cuckoo hashing, so an insertion
// that finds both buckets full relocates ("kicks") existing fingerprints.
// Lookups may return false positives at a rate governed by the fingerprint
// width, but never false negatives for items that were inserted and not
// deleted.
package cuckoo

import (
	"math/bits"
	"math/rand"
)

const (
	slotsPerBucket = 4
	maxKicks       = 500

	// Buckets live in pages that exist only while a fingerprint is placed in
	// them. A page is one cache line (8 buckets) unless the filter is so
	// large that its page ids would outgrow 16 bits.
	minPageShift = 3  // log2 buckets per page: 8 × 4 × 2 B = 64 B
	maxPageBits  = 15 // at most 1<<15 pages, so id+1 fits a uint16
	// Pages are carved, in the order they are first placed into, from
	// 4 KiB chunks. A chunk is never reallocated, so a fully touched filter
	// costs its dense size plus the page table, not a doubling.
	chunkShift   = 9
	chunkBuckets = 1 << chunkShift
	// A Chunks source allocates this many chunks at a time.
	chunksPerSlab = 16
	// A sparse filter finds its pages through an open-addressing index kept
	// at most half full; once it maps more than one page in 1<<denseShift it
	// switches to a flat page table for good.
	minIndex   = 8
	denseShift = 3
	// A Chunks source carves index arrays from slabs that double from 1 KiB
	// to 16 KiB, so that a lone filter's first slab is small and a thousand
	// filters' are few; larger arrays are allocated on their own.
	minIndexSlab = 1 << 8
	indexSlab    = 1 << 12
)

type bucket [slotsPerBucket]uint16

type chunk [chunkBuckets]bucket

// Chunks is a source of page chunks and index arrays for the many filters
// of one simulation, a thousand hosts' say, each of which touches a few
// chunks' worth of pages: it allocates chunks a slab at a time, carves index
// arrays from shared slabs, and keeps one outgrown index of each size for the
// next filter that grows through it. A nil *Chunks allocates each on its
// own. Not safe for concurrent use.
type Chunks struct {
	slab  []chunk
	spare [maxPageBits][]uint32 // an outgrown index array by log2 length, or nil
	carve []uint32              // uncarved tail of the newest index slab
	slabs int                   // length of the newest index slab
}

func (c *Chunks) next() *chunk {
	if c == nil {
		return new(chunk)
	}
	if len(c.slab) == 0 {
		c.slab = make([]chunk, chunksPerSlab)
	}
	ch := &c.slab[0]
	c.slab = c.slab[1:]
	return ch
}

// getIndex returns a zeroed index of n entries, n a power of two.
func (c *Chunks) getIndex(n int) []uint32 {
	if c == nil || n > indexSlab {
		return make([]uint32, n)
	}
	k := bits.Len(uint(n)) - 1
	if ix := c.spare[k]; ix != nil {
		c.spare[k] = nil
		return ix
	}
	if len(c.carve) < n {
		c.slabs = min(max(2*c.slabs, minIndexSlab, n), indexSlab)
		c.carve = make([]uint32, c.slabs)
	}
	ix := c.carve[:n:n]
	c.carve = c.carve[n:]
	return ix
}

// putIndex takes back an index its filter no longer uses, keeping it if
// there is no spare of its size yet. The shared noIndex, shorter than any
// index a filter grows, is never kept.
func (c *Chunks) putIndex(ix []uint32) {
	if c == nil || len(ix) < minIndex || len(ix) > indexSlab {
		return
	}
	if k := bits.Len(uint(len(ix))) - 1; c.spare[k] == nil {
		clear(ix)
		c.spare[k] = ix
	}
}

// Filter is an approximate membership set over uint64 keys.
// It is not safe for concurrent use.
//
// Hashing is fully deterministic (no per-instance random seed): simulation
// runs must be reproducible, and a randomly seeded filter would make the
// rare false positive — and therefore the whole event sequence — differ
// between identically-configured runs.
//
// The logical geometry (bucket count, candidate buckets, kick sequence) is
// that of a flat bucket array; only the storage is paged, so that a filter
// sized for the worst case costs memory in proportion to the buckets it
// currently fills. An absent page reads as eight empty buckets. While the
// filter is sparse, a Delete that empties a page unmaps it and threads it
// onto a free list through its first slot; the next new page reuses it.
type Filter struct {
	table     []uint16 // dense page table: table[page] is the page's id + 1, 0 if absent; nil while sparse
	index     []uint32 // sparse page index: page<<16 | id+1, linear-probed from slot page mod len, 0 empty; noIndex before the first page
	imask     uint64   // len(index) - 1
	chunks    []*chunk // page id p starts at slot p<<pageShift of the chunks laid end to end
	src       *Chunks  // where chunks and index arrays come from
	pages     int      // page ids handed out so far, mapped or free
	mapped    int      // pages currently mapped
	free      uint16   // first free page's id + 1, 0 when none; each links the next in its first slot
	pageShift uint     // log2 buckets per page
	pageMask  uint64   // 1<<pageShift - 1
	mask      uint64   // bucket count - 1
	count     int
	rng       *rand.Rand // kick stream, built on the first kick
}

// New returns a filter sized for at least capacity items. The filter keeps
// roughly 95% load factor headroom; inserts may start failing beyond that.
func New(capacity int) *Filter {
	f := new(Filter)
	f.Init(capacity, nil)
	return f
}

// Init makes f, wherever its owner keeps it, an empty filter sized for at
// least capacity items whose pages come from src. It allocates nothing: a
// filter that never stores anything — the marker of a host that never sends —
// costs its header.
func (f *Filter) Init(capacity int, src *Chunks) {
	if capacity < slotsPerBucket {
		capacity = slotsPerBucket
	}
	n := nextPow2((capacity + slotsPerBucket - 1) / slotsPerBucket * 21 / 20)
	shift := uint(minPageShift)
	for n>>shift > 1<<maxPageBits {
		shift++
	}
	*f = Filter{index: noIndex, src: src, pageShift: shift, pageMask: 1<<shift - 1, mask: uint64(n - 1)}
}

// noIndex is every sparse filter's index until it maps its first page: one
// empty slot, never written, so that a lookup needs no length check.
var noIndex = []uint32{0}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// bucket returns bucket i, or nil when its page is not mapped, without
// allocating. Callers resolve a bucket once per operation and work on the
// pointer: the two dependent loads (page table or index, then chunk) are the
// paged layout's whole cost over a flat array. The marker's per-packet
// operations, ContainsOrAdd and Delete, test for the dense table themselves,
// so that there its lookups inline.
func (f *Filter) bucket(i uint64) *bucket {
	if f.table != nil {
		return f.direct(i)
	}
	return f.sparse(i)
}

// direct returns bucket i of a dense filter, or nil when its page is absent.
// (The &63 tells the compiler the shift count is in range, sparing a check
// on this path.)
func (f *Filter) direct(i uint64) *bucket {
	if ref := f.table[i>>(f.pageShift&63)]; ref != 0 {
		return f.at(ref, i)
	}
	return nil
}

// sparse returns bucket i of a sparse filter, or nil when its page is not
// mapped. Buckets, and so pages, are uniform hashes of their keys: the page
// number itself is the probe start. (Small enough to inline: the index is
// never empty, and its mask is kept beside it.)
func (f *Filter) sparse(i uint64) *bucket {
	pg := i >> (f.pageShift & 63)
	for h := pg; ; h++ {
		e := f.index[h&f.imask]
		if e == 0 {
			return nil
		}
		if uint64(e>>16) == pg {
			return f.at(uint16(e), i)
		}
	}
}

// at returns bucket i, which lies in the page whose id + 1 is ref.
func (f *Filter) at(ref uint16, i uint64) *bucket {
	slot := uint64(ref-1)<<(f.pageShift&63) | i&f.pageMask
	return &f.chunks[slot>>chunkShift][slot&(chunkBuckets-1)]
}

// first returns the first bucket of the page whose id + 1 is ref.
func (f *Filter) first(ref uint16) *bucket {
	return f.at(ref, uint64(ref-1)<<f.pageShift)
}

// newPage maps a page for bucket i, whose page must be absent, and returns
// the bucket. It reuses the most recently released page, else carves the
// next id: chunks are added until they cover every slot of the ids handed
// out, a chunk holding many small pages, a large page spanning chunks.
func (f *Filter) newPage(i uint64) *bucket {
	ref := f.free // id + 1, as the table, the index and the free list hold it
	if ref != 0 {
		b := f.first(ref)
		f.free, b[0] = b[0], 0
	} else {
		if f.chunks == nil {
			f.chunks = make([]*chunk, 0, 8) // a churn host's whole run, see TestFootprintFollowsTouchedPages
		}
		f.pages++
		ref = uint16(f.pages)
		for uint64(len(f.chunks))<<chunkShift < uint64(f.pages)<<f.pageShift {
			f.chunks = append(f.chunks, f.src.next())
		}
	}
	f.mapPage(i>>f.pageShift, ref)
	return f.at(ref, i)
}

// mapPage maps page pg to the page whose id + 1 is ref, switching the filter
// to the dense page table once it maps more than one page in 1<<denseShift.
func (f *Filter) mapPage(pg uint64, ref uint16) {
	f.mapped++
	if total := f.mask>>f.pageShift + 1; f.table == nil && uint64(f.mapped)<<denseShift > total {
		f.table = make([]uint16, total)
		// A dense filter is on its way to touching every page: give the
		// chunk list its final size now instead of doubling into it.
		f.chunks = append(make([]*chunk, 0, (f.mask+chunkBuckets)>>chunkShift), f.chunks...)
		for _, e := range f.index {
			if e != 0 {
				f.table[e>>16] = uint16(e)
			}
		}
		f.src.putIndex(f.index)
		f.index, f.imask = nil, 0
	}
	if f.table != nil {
		f.table[pg] = ref
		return
	}
	if 2*f.mapped > len(f.index) {
		old := f.index
		f.index = f.src.getIndex(max(2*len(old), minIndex))
		f.imask = uint64(len(f.index) - 1)
		for _, e := range old {
			if e != 0 {
				f.insertIndex(e)
			}
		}
		f.src.putIndex(old)
	}
	f.insertIndex(uint32(pg)<<16 | uint32(ref))
}

// insertIndex stores entry e in the first free slot from its page on.
func (f *Filter) insertIndex(e uint32) {
	h := uint64(e>>16) & f.imask
	for f.index[h] != 0 {
		h = (h + 1) & f.imask
	}
	f.index[h] = e
}

// release gives back bucket i's page of a sparse filter if b, its bucket,
// was just emptied and the rest of the page is empty too. Delete leaves a
// dense filter's pages alone: they are mostly full, so releasing would pay
// the page scan and the refill on every flow and save nothing.
func (f *Filter) release(i uint64, b *bucket) {
	if *b != (bucket{}) {
		return
	}
	pg := i >> f.pageShift
	ix, m := f.index, f.imask
	h := pg & m
	for uint64(ix[h]>>16) != pg {
		h = (h + 1) & m
	}
	ref := uint16(ix[h])
	for j := uint64(0); j <= f.pageMask; j++ {
		if *f.at(ref, j) != (bucket{}) {
			return
		}
	}
	f.first(ref)[0] = f.free
	f.free = ref
	f.mapped--
	// Unmap by backward shift: a later entry of the probe run moves into the
	// hole unless its own probe start lies cyclically after the hole.
	for {
		ix[h] = 0
		j := h
		for {
			j = (j + 1) & m
			e := ix[j]
			if e == 0 {
				return
			}
			if (j-uint64(e>>16))&m >= (j-h)&m {
				ix[h] = e
				h = j
				break
			}
		}
	}
}

// has reports whether b holds fp; a nil (absent) bucket holds nothing.
func (b *bucket) has(fp uint16) bool {
	return b != nil && (b[0] == fp || b[1] == fp || b[2] == fp || b[3] == fp)
}

// drop clears one copy of fp from b, reporting whether there was one.
func (b *bucket) drop(fp uint16) bool {
	if b == nil {
		return false
	}
	for s := range b {
		if b[s] == fp {
			b[s] = 0
			return true
		}
	}
	return false
}

// place stores fp in bucket i, resolved by the caller as b, allocating its
// page if b is nil. It reports false when the bucket is full.
func (f *Filter) place(i uint64, b *bucket, fp uint16) bool {
	if b == nil {
		b = f.newPage(i)
	}
	for s := range b {
		if b[s] == 0 {
			b[s] = fp
			return true
		}
	}
	return false
}

// fingerprint derives a non-zero 16-bit fingerprint and the primary bucket
// with a splitmix64-style finalizer (deterministic across runs).
func (f *Filter) fingerprint(key uint64) (fp uint16, i1 uint64) {
	h := key + 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	fp = uint16(h >> 48)
	if fp == 0 {
		fp = 1
	}
	i1 = h & f.mask
	return fp, i1
}

// altIndex computes the partner bucket of (i, fp): i XOR hash(fp).
func (f *Filter) altIndex(i uint64, fp uint16) uint64 {
	// Multiplicative scramble of the fingerprint, per the cuckoo filter paper.
	return (i ^ (uint64(fp) * 0x5bd1e995)) & f.mask
}

// Insert adds key to the filter. It reports false only when the filter is
// too full to place the key even after relocation.
func (f *Filter) Insert(key uint64) bool {
	fp, i1 := f.fingerprint(key)
	i2 := f.altIndex(i1, fp)
	return f.insert(fp, i1, i2, f.bucket(i1), f.bucket(i2))
}

// insert places fingerprint fp, whose candidate buckets i1 and i2 the caller
// resolved as b1 and b2, kicking as needed.
func (f *Filter) insert(fp uint16, i1, i2 uint64, b1, b2 *bucket) bool {
	if f.place(i1, b1, fp) || f.place(i2, b2, fp) {
		f.count++
		return true
	}
	// Kick a random resident fingerprint to its alternate bucket. The
	// stream is seeded by the bucket count, as it was when New built it.
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(int64(f.mask + 1)))
	}
	i := i1
	if f.rng.Intn(2) == 1 {
		i = i2
	}
	for k := 0; k < maxKicks; k++ {
		// Bucket i is full — place just failed on it — so its page exists.
		b := f.bucket(i)
		s := f.rng.Intn(slotsPerBucket)
		fp, b[s] = b[s], fp
		i = f.altIndex(i, fp)
		if f.place(i, f.bucket(i), fp) {
			f.count++
			return true
		}
	}
	return false
}

// ContainsOrAdd reports whether key may already be in the filter and, when
// it is not, inserts it — hashing the key and resolving its buckets once
// instead of the twice a Contains-then-Insert pair costs on the marking hot
// path. The observable filter state (and the kick RNG stream) evolves
// exactly as the separate calls would. ok is false only when key was absent
// and, as with Insert, the filter was too full to add it.
func (f *Filter) ContainsOrAdd(key uint64) (present, ok bool) {
	fp, i1 := f.fingerprint(key)
	i2 := f.altIndex(i1, fp)
	var b1, b2 *bucket
	if f.table != nil {
		b1, b2 = f.direct(i1), f.direct(i2)
	} else {
		b1, b2 = f.sparse(i1), f.sparse(i2)
	}
	if b1.has(fp) || b2.has(fp) {
		return true, true
	}
	return false, f.insert(fp, i1, i2, b1, b2)
}

// Contains reports whether key may be in the filter. False positives are
// possible; false negatives are not.
func (f *Filter) Contains(key uint64) bool {
	fp, i1 := f.fingerprint(key)
	return f.bucket(i1).has(fp) || f.bucket(f.altIndex(i1, fp)).has(fp)
}

// Delete removes one copy of key, reporting whether a matching fingerprint
// was found. Deleting a key that was never inserted may remove a colliding
// entry, as with any cuckoo filter.
func (f *Filter) Delete(key uint64) bool {
	fp, i := f.fingerprint(key)
	if f.table != nil { // a dense filter keeps its pages (see release)
		if f.direct(i).drop(fp) || f.direct(f.altIndex(i, fp)).drop(fp) {
			f.count--
			return true
		}
		return false
	}
	b := f.sparse(i)
	if !b.drop(fp) {
		i = f.altIndex(i, fp)
		if b = f.sparse(i); !b.drop(fp) {
			return false
		}
	}
	f.count--
	f.release(i, b)
	return true
}

// Len returns the number of items currently stored.
func (f *Filter) Len() int { return f.count }

// Reset empties the filter, dropping its pages; the kick stream carries on.
func (f *Filter) Reset() {
	f.src.putIndex(f.index)
	*f = Filter{index: noIndex, src: f.src, pageShift: f.pageShift, pageMask: f.pageMask, mask: f.mask, rng: f.rng}
}
