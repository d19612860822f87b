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
//
// The bucket array is logical: a filter sized for the worst case (a host's
// default 65,536 signatures, 32,768 buckets) keeps only the buckets that hold
// a fingerprint, in an open-addressing table of occupied buckets whose size
// follows how many there are. A filter therefore costs memory in proportion
// to the fingerprints it holds, not to its capacity.
package cuckoo

import (
	"math/rand"

	"vertigo/internal/arena"
)

const (
	slotsPerBucket = 4
	maxKicks       = 500

	// minTable is the smallest table of occupied buckets: a filter that has
	// stored anything keeps at least this many slots (96 B).
	minTable = 8
	// maxBuckets bounds the bucket count, so that a bucket's index + 1 fits
	// the uint32 a table slot keeps it in and the count fits a 32-bit int.
	maxBuckets = 1 << 30
)

type bucket [slotsPerBucket]uint16

// slot is one entry of a filter's table: an occupied bucket's index + 1 (0
// when the slot is empty) and the bucket's fingerprints, inline.
type slot struct {
	ref uint32
	b   bucket
}

// Arena is the source of the tables of one simulation's filters, a thousand
// hosts' say: small tables are carved from shared chunks, and a table a
// filter outgrows or shrinks out of goes back for the next filter that passes
// through its size. Not safe for concurrent use.
type Arena = arena.Pool[slot]

// Filter is an approximate membership set over uint64 keys.
// It is not safe for concurrent use.
//
// Hashing is fully deterministic (no per-instance random seed): simulation
// runs must be reproducible, and a randomly seeded filter would make the
// rare false positive — and therefore the whole event sequence — differ
// between identically-configured runs.
//
// The logical geometry (bucket count, candidate buckets, slot-fill order,
// kick sequence) is that of a flat bucket array. Only the buckets holding a
// fingerprint are stored, in a table linear-probed from the bucket index and
// kept at most half full: it doubles when an added bucket would fill it past
// half and halves when a Delete leaves it under an eighth full. A Delete that
// empties a bucket removes its slot at once, by backward shift, so every
// occupied slot is a non-empty bucket and an absent bucket reads as empty.
//
// A *bucket from find points into the table and goes stale when an add
// resizes it: an operation resolves a bucket after the last add that could
// move it, never before.
type Filter struct {
	table []slot     // occupied buckets; noTable before the first insert
	tmask uint64     // len(table) - 1
	used  int        // occupied slots
	src   *Arena     // where tables come from
	mask  uint64     // bucket count - 1
	count int        // fingerprints stored
	rng   *rand.Rand // kick stream, built on the first kick
}

// New returns a filter sized for at least capacity items. The filter keeps
// roughly 95% load factor headroom; inserts may start failing beyond that.
func New(capacity int) *Filter {
	f := new(Filter)
	f.Init(capacity, new(Arena))
	return f
}

// Init makes f, wherever its owner keeps it, an empty filter sized for at
// least capacity items whose tables come from src. It allocates nothing: a
// filter that never stores anything — the marker of a host that never sends —
// costs its header.
func (f *Filter) Init(capacity int, src *Arena) {
	if capacity < slotsPerBucket {
		capacity = slotsPerBucket
	}
	n := min(nextPow2((capacity+slotsPerBucket-1)/slotsPerBucket*21/20), maxBuckets)
	*f = Filter{table: noTable, src: src, mask: uint64(n - 1)}
}

// noTable is every filter's table until it stores its first fingerprint:
// one empty slot, never written, so that a lookup needs no length check.
var noTable = []slot{{}}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// find returns the table position of bucket i and the bucket, or a nil
// bucket when it holds nothing, without allocating. Buckets are uniform
// hashes of their keys, so the index itself is the probe start.
func (f *Filter) find(i uint64) (uint64, *bucket) {
	ref := uint32(i + 1)
	for h := i & f.tmask; ; h = (h + 1) & f.tmask {
		s := &f.table[h]
		if s.ref == ref {
			return h, &s.b
		}
		if s.ref == 0 {
			return h, nil
		}
	}
}

// add stores bucket i, which must be absent, and returns it empty, doubling
// the table first if it would pass half full.
func (f *Filter) add(i uint64) *bucket {
	if 2*(f.used+1) > len(f.table) {
		f.resize(max(2*len(f.table), minTable))
	}
	f.used++
	h := i & f.tmask
	for f.table[h].ref != 0 {
		h = (h + 1) & f.tmask
	}
	f.table[h].ref = uint32(i + 1)
	return &f.table[h].b
}

// remove empties table slot h, whose bucket was just emptied, by backward
// shift — a later slot of the probe run moves into the hole unless its own
// probe start lies cyclically after the hole — and halves the table if it
// fell under an eighth full.
func (f *Filter) remove(h uint64) {
	t, m := f.table, f.tmask
	for j := h; ; {
		j = (j + 1) & m
		s := t[j]
		if s.ref == 0 {
			break
		}
		if (j-uint64(s.ref-1))&m >= (j-h)&m {
			t[h], h = s, j
		}
	}
	t[h] = slot{}
	f.used--
	if len(t) > minTable && 8*f.used < len(t) {
		f.resize(len(t) / 2)
	}
}

// resize moves the occupied slots to a table of n slots, n a power of two,
// and gives the old one back to the arena.
func (f *Filter) resize(n int) {
	old := f.table
	f.table = f.src.Get(n)[:n]
	f.tmask = uint64(n - 1)
	for _, s := range old {
		if s.ref != 0 {
			h := uint64(s.ref-1) & f.tmask
			for f.table[h].ref != 0 {
				h = (h + 1) & f.tmask
			}
			f.table[h] = s
		}
	}
	if len(old) >= minTable { // never noTable
		f.src.Put(old)
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

// place stores fp in bucket i, resolved by the caller as b, adding the
// bucket if b is nil. It reports false when the bucket is full.
func (f *Filter) place(i uint64, b *bucket, fp uint16) bool {
	if b == nil {
		f.add(i)[0] = fp
		return true
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
	_, b1 := f.find(i1)
	_, b2 := f.find(i2)
	return f.insert(fp, i1, i2, b1, b2)
}

// insert places fingerprint fp, whose candidate buckets i1 and i2 the caller
// resolved as b1 and b2, kicking as needed. b2 cannot be stale: placing in
// i1 either adds no bucket or adds bucket i1 and is done.
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
		// Bucket i is full — place just failed on it — so it is stored.
		_, b := f.find(i)
		s := f.rng.Intn(slotsPerBucket)
		fp, b[s] = b[s], fp
		i = f.altIndex(i, fp)
		if _, b := f.find(i); f.place(i, b, fp) {
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
	_, b1 := f.find(i1)
	_, b2 := f.find(i2)
	if b1.has(fp) || b2.has(fp) {
		return true, true
	}
	return false, f.insert(fp, i1, i2, b1, b2)
}

// Contains reports whether key may be in the filter. False positives are
// possible; false negatives are not.
func (f *Filter) Contains(key uint64) bool {
	fp, i1 := f.fingerprint(key)
	if _, b := f.find(i1); b.has(fp) {
		return true
	}
	_, b := f.find(f.altIndex(i1, fp))
	return b.has(fp)
}

// Delete removes one copy of key, reporting whether a matching fingerprint
// was found. Deleting a key that was never inserted may remove a colliding
// entry, as with any cuckoo filter.
func (f *Filter) Delete(key uint64) bool {
	fp, i := f.fingerprint(key)
	h, b := f.find(i)
	if !b.drop(fp) {
		if h, b = f.find(f.altIndex(i, fp)); !b.drop(fp) {
			return false
		}
	}
	f.count--
	if *b == (bucket{}) {
		f.remove(h)
	}
	return true
}

// Len returns the number of items currently stored.
func (f *Filter) Len() int { return f.count }
