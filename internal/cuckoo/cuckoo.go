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
	"math/rand"
)

const (
	slotsPerBucket = 4
	maxKicks       = 500

	// Buckets live in pages that exist only once a fingerprint has been
	// placed in them. A page is one cache line (8 buckets) unless the filter
	// is so large that its page table would outgrow 16-bit page ids.
	minPageShift = 3  // log2 buckets per page: 8 × 4 × 2 B = 64 B
	maxPageBits  = 15 // at most 1<<15 pages, so id+1 fits a uint16
	// Pages are carved, in the order they are first placed into, from
	// 4 KiB chunks. A chunk is never reallocated, so a fully touched filter
	// costs its dense size plus the page table, not a doubling.
	chunkShift   = 9
	chunkBuckets = 1 << chunkShift
	// A Chunks source allocates this many chunks at a time.
	chunksPerSlab = 16
)

type bucket [slotsPerBucket]uint16

type chunk [chunkBuckets]bucket

// Chunks is a source of page chunks for the many filters of one simulation,
// a thousand hosts' say, each of which touches a few chunks' worth of pages:
// it allocates them a slab at a time. A nil *Chunks allocates each chunk on
// its own. Not safe for concurrent use.
type Chunks struct{ slab []chunk }

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
// sized for the worst case costs memory in proportion to the buckets a run
// actually fills. An absent page reads as eight empty buckets.
type Filter struct {
	table     []uint16 // bucket i's page: table[i>>pageShift] is its id + 1, 0 if absent; built with the first page
	chunks    []*chunk // page id p starts at slot p<<pageShift of the chunks laid end to end
	src       *Chunks  // where chunks come from
	pages     int      // pages allocated so far
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
	*f = Filter{src: src, pageShift: shift, pageMask: 1<<shift - 1, mask: uint64(n - 1)}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// bucket returns bucket i, or nil when its page has never been placed into,
// without allocating. Callers resolve a bucket once per operation and work
// on the pointer: the two dependent loads (page table, then chunk) are the
// paged layout's whole cost over a flat array. (The &63 tells the compiler
// the shift count is in range, sparing a check on this path.)
func (f *Filter) bucket(i uint64) *bucket {
	pg := i >> (f.pageShift & 63)
	if pg >= uint64(len(f.table)) { // no page yet, so no table
		return nil
	}
	id := f.table[pg]
	if id == 0 {
		return nil
	}
	slot := uint64(id-1)<<(f.pageShift&63) | i&f.pageMask
	return &f.chunks[slot>>chunkShift][slot&(chunkBuckets-1)]
}

// newPage allocates the page of bucket i, which must be absent, and returns
// the bucket. Chunks are added until they cover every slot of the pages
// handed out: a chunk holds many small pages, a large page spans chunks.
func (f *Filter) newPage(i uint64) *bucket {
	if f.table == nil {
		f.table = make([]uint16, f.mask>>f.pageShift+1)
		f.chunks = make([]*chunk, 0, 8) // a churn host's whole run, see TestFootprintFollowsTouchedPages
	}
	f.pages++
	for uint64(len(f.chunks))<<chunkShift < uint64(f.pages)<<f.pageShift {
		f.chunks = append(f.chunks, f.src.next())
	}
	f.table[i>>f.pageShift] = uint16(f.pages)
	return f.bucket(i)
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
	b1, b2 := f.bucket(i1), f.bucket(i2)
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
	fp, i1 := f.fingerprint(key)
	if f.bucket(i1).drop(fp) || f.bucket(f.altIndex(i1, fp)).drop(fp) {
		f.count--
		return true
	}
	return false
}

// Len returns the number of items currently stored.
func (f *Filter) Len() int { return f.count }

// Reset empties the filter, dropping its pages.
func (f *Filter) Reset() {
	clear(f.table)
	f.chunks = nil
	f.pages = 0
	f.count = 0
}
