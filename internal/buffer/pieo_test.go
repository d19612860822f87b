package buffer

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// This file is the reference TestSortedQueueMatchesPIEO checks SortedQueue
// against: the PIEO (Push-In-Extract-Out) programmable scheduler abstraction
// (Shrivastav, SIGCOMM'19) that the paper's switch prototype builds on
// (§4.4, §A.3), an ordered list of elements that supports push-in at rank
// order and extract-out of the smallest-ranked *eligible* element, where
// eligibility is a per-element predicate evaluated at dequeue time. Vertigo's
// appendix extends PIEO with extraction from the tail of the priority list —
// the operation its overflow handling needs — and this list implements that
// extension too.
//
// The structure mirrors the hardware design: the list is divided into
// ordered sublists of bounded size (≈2√N in the FPGA), so every mutation
// touches one sublist plus the block directory: O(√N) inserts and
// extractions with small constants (see the BenchmarkPIEO* benchmarks).

// pieoItem is one scheduled element.
type pieoItem[T any] struct {
	Value T
	// Rank orders the list ascending; among equal ranks, insertion order.
	Rank uint32
	// EligibleAt gates extraction: the element is eligible once the
	// caller-supplied "current time" is >= EligibleAt. Use 0 for
	// always-eligible (plain priority-queue behaviour).
	EligibleAt uint64
}

// pieoList is a PIEO list. The zero value is empty and ready to use.
type pieoList[T any] struct {
	blocks    [][]pieoItem[T] // each block sorted by rank; blocks ordered
	size      int
	blockSize int
}

// newPIEOList returns a PIEO list tuned for about capacity elements.
func newPIEOList[T any](capacity int) *pieoList[T] {
	bs := 8
	for bs*bs < capacity {
		bs *= 2
	}
	return &pieoList[T]{blockSize: bs}
}

func (l *pieoList[T]) ensureBlockSize() {
	if l.blockSize == 0 {
		l.blockSize = 32
	}
}

// Len returns the number of stored elements.
func (l *pieoList[T]) Len() int { return l.size }

// Insert pushes it in at rank order (after equal ranks: FIFO among ties).
func (l *pieoList[T]) Insert(it pieoItem[T]) {
	l.ensureBlockSize()
	if len(l.blocks) == 0 {
		l.blocks = append(l.blocks, make([]pieoItem[T], 0, l.blockSize))
	}
	// Find the target block: the first whose last element has rank > it.Rank;
	// otherwise the final block.
	bi := len(l.blocks) - 1
	for i, b := range l.blocks {
		if len(b) > 0 && b[len(b)-1].Rank > it.Rank {
			bi = i
			break
		}
	}
	b := l.blocks[bi]
	// Position within block: after all ranks <= it.Rank.
	lo, hi := 0, len(b)
	for lo < hi {
		mid := (lo + hi) / 2
		if b[mid].Rank <= it.Rank {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b = append(b, pieoItem[T]{})
	copy(b[lo+1:], b[lo:])
	b[lo] = it
	l.blocks[bi] = b
	l.size++
	if len(b) > 2*l.blockSize {
		l.split(bi)
	}
}

// split divides an oversized block in two.
func (l *pieoList[T]) split(bi int) {
	b := l.blocks[bi]
	mid := len(b) / 2
	left := b[:mid:mid]
	right := append(make([]pieoItem[T], 0, l.blockSize*2), b[mid:]...)
	l.blocks = append(l.blocks, nil)
	copy(l.blocks[bi+2:], l.blocks[bi+1:])
	l.blocks[bi] = left
	l.blocks[bi+1] = right
}

// dropBlock removes an empty block.
func (l *pieoList[T]) dropBlock(bi int) {
	l.blocks = append(l.blocks[:bi], l.blocks[bi+1:]...)
}

// ExtractMin removes and returns the smallest-ranked element eligible at
// now. It reports false when no element is eligible.
func (l *pieoList[T]) ExtractMin(now uint64) (pieoItem[T], bool) {
	for bi := 0; bi < len(l.blocks); bi++ {
		b := l.blocks[bi]
		for i := range b {
			if b[i].EligibleAt <= now {
				it := b[i]
				l.blocks[bi] = append(b[:i], b[i+1:]...)
				if len(l.blocks[bi]) == 0 {
					l.dropBlock(bi)
				}
				l.size--
				return it, true
			}
		}
	}
	var zero pieoItem[T]
	return zero, false
}

// ExtractTail removes and returns the largest-ranked element regardless of
// eligibility — Vertigo's extension (§A.3), used to evict the packet with
// the largest remaining flow size from a full buffer. Among equal maximal
// ranks the youngest is extracted.
func (l *pieoList[T]) ExtractTail() (pieoItem[T], bool) {
	if l.size == 0 {
		var zero pieoItem[T]
		return zero, false
	}
	bi := len(l.blocks) - 1
	for len(l.blocks[bi]) == 0 {
		l.dropBlock(bi)
		bi--
	}
	b := l.blocks[bi]
	it := b[len(b)-1]
	l.blocks[bi] = b[:len(b)-1]
	if len(l.blocks[bi]) == 0 {
		l.dropBlock(bi)
	}
	l.size--
	return it, true
}

// PeekTail returns the largest-ranked element without removing it.
func (l *pieoList[T]) PeekTail() (pieoItem[T], bool) {
	if l.size == 0 {
		var zero pieoItem[T]
		return zero, false
	}
	for bi := len(l.blocks) - 1; bi >= 0; bi-- {
		if b := l.blocks[bi]; len(b) > 0 {
			return b[len(b)-1], true
		}
	}
	var zero pieoItem[T]
	return zero, false
}

// ExtractWhere removes and returns the first element (in rank order) for
// which pred returns true — PIEO's "extract-out by filter" generalization.
func (l *pieoList[T]) ExtractWhere(pred func(pieoItem[T]) bool) (pieoItem[T], bool) {
	for bi := 0; bi < len(l.blocks); bi++ {
		b := l.blocks[bi]
		for i := range b {
			if pred(b[i]) {
				it := b[i]
				l.blocks[bi] = append(b[:i], b[i+1:]...)
				if len(l.blocks[bi]) == 0 {
					l.dropBlock(bi)
				}
				l.size--
				return it, true
			}
		}
	}
	var zero pieoItem[T]
	return zero, false
}

// Items returns the elements in rank order (a copy; for tests and
// inspection).
func (l *pieoList[T]) Items() []pieoItem[T] {
	out := make([]pieoItem[T], 0, l.size)
	for _, b := range l.blocks {
		out = append(out, b...)
	}
	return out
}

func TestPIEOInsertExtractMinOrder(t *testing.T) {
	l := newPIEOList[int](64)
	ranks := []uint32{50, 10, 90, 30, 70, 20, 60}
	for i, r := range ranks {
		l.Insert(pieoItem[int]{Value: i, Rank: r})
	}
	if l.Len() != len(ranks) {
		t.Fatalf("len %d, want %d", l.Len(), len(ranks))
	}
	prev := uint32(0)
	for l.Len() > 0 {
		it, ok := l.ExtractMin(0)
		if !ok {
			t.Fatal("extract failed with elements present")
		}
		if it.Rank < prev {
			t.Fatalf("extraction not ascending: %d after %d", it.Rank, prev)
		}
		prev = it.Rank
	}
	if _, ok := l.ExtractMin(0); ok {
		t.Fatal("extract from empty list succeeded")
	}
}

func TestPIEOEligibilityGating(t *testing.T) {
	l := newPIEOList[string](8)
	l.Insert(pieoItem[string]{Value: "later", Rank: 1, EligibleAt: 100})
	l.Insert(pieoItem[string]{Value: "now", Rank: 5, EligibleAt: 0})
	// At t=0 the rank-1 element is ineligible: rank-5 must come out first.
	it, ok := l.ExtractMin(0)
	if !ok || it.Value != "now" {
		t.Fatalf("got %+v, want the eligible rank-5 element", it)
	}
	if _, ok := l.ExtractMin(50); ok {
		t.Fatal("ineligible element extracted")
	}
	it, ok = l.ExtractMin(100)
	if !ok || it.Value != "later" {
		t.Fatalf("got %+v at t=100", it)
	}
}

func TestPIEOExtractTail(t *testing.T) {
	l := newPIEOList[int](64)
	for i, r := range []uint32{5, 40, 20, 40} {
		l.Insert(pieoItem[int]{Value: i, Rank: r})
	}
	it, ok := l.ExtractTail()
	if !ok || it.Rank != 40 || it.Value != 3 {
		t.Fatalf("tail %+v, want the youngest rank-40 element (value 3)", it)
	}
	it, _ = l.ExtractTail()
	if it.Rank != 40 || it.Value != 1 {
		t.Fatalf("second tail %+v, want value 1", it)
	}
	if pt, ok := l.PeekTail(); !ok || pt.Rank != 20 {
		t.Fatalf("peek tail %+v, want rank 20", pt)
	}
}

func TestPIEOExtractWhere(t *testing.T) {
	l := newPIEOList[int](64)
	for i := 0; i < 10; i++ {
		l.Insert(pieoItem[int]{Value: i, Rank: uint32(i)})
	}
	it, ok := l.ExtractWhere(func(it pieoItem[int]) bool { return it.Value%2 == 1 })
	if !ok || it.Value != 1 {
		t.Fatalf("ExtractWhere got %+v, want the rank-1 odd element", it)
	}
	if l.Len() != 9 {
		t.Fatalf("len %d after extraction", l.Len())
	}
	if _, ok := l.ExtractWhere(func(pieoItem[int]) bool { return false }); ok {
		t.Fatal("ExtractWhere matched nothing but succeeded")
	}
}

func TestPIEOFIFOAmongEqualRanks(t *testing.T) {
	l := newPIEOList[int](256)
	for i := 0; i < 100; i++ {
		l.Insert(pieoItem[int]{Value: i, Rank: 7})
	}
	for i := 0; i < 100; i++ {
		it, _ := l.ExtractMin(0)
		if it.Value != i {
			t.Fatalf("tie order broken: got %d at %d", it.Value, i)
		}
	}
}

func TestPIEOBlockSplitting(t *testing.T) {
	// Insert enough ascending and descending runs to force splits.
	l := newPIEOList[int](4) // tiny blocks: splits early
	const n = 1000
	for i := 0; i < n; i++ {
		l.Insert(pieoItem[int]{Value: i, Rank: uint32((i * 7919) % 104729)})
	}
	if l.Len() != n {
		t.Fatalf("len %d, want %d", l.Len(), n)
	}
	items := l.Items()
	if !sort.SliceIsSorted(items, func(i, j int) bool { return items[i].Rank < items[j].Rank }) {
		t.Fatal("internal order violated after splits")
	}
}

// TestPIEOPropertyMatchesStableSort: a PIEO list with always-eligible items behaves exactly like a
// stable sort by rank.
func TestPIEOPropertyMatchesStableSort(t *testing.T) {
	f := func(ranks []uint32) bool {
		l := newPIEOList[int](len(ranks))
		type tagged struct {
			rank uint32
			idx  int
		}
		want := make([]tagged, len(ranks))
		for i, r := range ranks {
			l.Insert(pieoItem[int]{Value: i, Rank: r})
			want[i] = tagged{r, i}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].rank < want[j].rank })
		for _, w := range want {
			it, ok := l.ExtractMin(0)
			if !ok || it.Rank != w.rank || it.Value != w.idx {
				return false
			}
		}
		return l.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPIEOPropertyMinTailInterleaved: interleaved ExtractMin/ExtractTail always return the current
// min/max rank and never lose or duplicate elements.
func TestPIEOPropertyMinTailInterleaved(t *testing.T) {
	f := func(ranks []uint32, seed int64) bool {
		l := newPIEOList[int](len(ranks))
		rng := rand.New(rand.NewSource(seed))
		var reference []uint32
		for _, r := range ranks {
			l.Insert(pieoItem[int]{Rank: r})
			reference = append(reference, r)
			sort.Slice(reference, func(i, j int) bool { return reference[i] < reference[j] })
			if rng.Intn(3) == 0 && len(reference) > 0 {
				if rng.Intn(2) == 0 {
					it, ok := l.ExtractMin(0)
					if !ok || it.Rank != reference[0] {
						return false
					}
					reference = reference[1:]
				} else {
					it, ok := l.ExtractTail()
					if !ok || it.Rank != reference[len(reference)-1] {
						return false
					}
					reference = reference[:len(reference)-1]
				}
			}
		}
		return l.Len() == len(reference)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPIEOInsertExtract(b *testing.B) {
	l := newPIEOList[int](256)
	// Steady state around 200 elements, like a switch port queue.
	for i := 0; i < 200; i++ {
		l.Insert(pieoItem[int]{Rank: uint32(i * 2654435761)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(pieoItem[int]{Rank: uint32(i * 2654435761)})
		l.ExtractMin(0)
	}
}

func BenchmarkPIEOTailExtraction(b *testing.B) {
	l := newPIEOList[int](256)
	for i := 0; i < 200; i++ {
		l.Insert(pieoItem[int]{Rank: uint32(i * 2654435761)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(pieoItem[int]{Rank: uint32(i * 2654435761)})
		l.ExtractTail()
	}
}
