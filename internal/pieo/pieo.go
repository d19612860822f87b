// Package pieo implements the PIEO (Push-In-Extract-Out) programmable
// scheduler abstraction (Shrivastav, SIGCOMM'19) that the paper's switch
// prototype builds on (§4.4, §A.3): an ordered list of elements that
// supports push-in at rank order and extract-out of the smallest-ranked
// *eligible* element, where eligibility is a per-element predicate evaluated
// at dequeue time. Vertigo's appendix extends PIEO with extraction from the
// tail of the priority list — the operation its overflow handling needs —
// and this package implements that extension too.
//
// The structure mirrors the hardware design: the list is divided into
// ordered sublists of bounded size (≈2√N in the FPGA), so every mutation
// touches one sublist plus the block directory. In software this gives
// O(√N) inserts and extractions with small constants, and it is the backing
// store the fabric's rank-sorted queues can be compared against (see the
// BenchmarkPIEO* benchmarks).
package pieo

// Item is one scheduled element.
type Item[T any] struct {
	Value T
	// Rank orders the list ascending; among equal ranks, insertion order.
	Rank uint32
	// EligibleAt gates extraction: the element is eligible once the
	// caller-supplied "current time" is >= EligibleAt. Use 0 for
	// always-eligible (plain priority-queue behaviour).
	EligibleAt uint64
}

// List is a PIEO list. The zero value is empty and ready to use.
type List[T any] struct {
	blocks    [][]Item[T] // each block sorted by rank; blocks ordered
	size      int
	blockSize int
}

// NewList returns a PIEO list tuned for about capacity elements.
func NewList[T any](capacity int) *List[T] {
	bs := 8
	for bs*bs < capacity {
		bs *= 2
	}
	return &List[T]{blockSize: bs}
}

func (l *List[T]) ensureBlockSize() {
	if l.blockSize == 0 {
		l.blockSize = 32
	}
}

// Len returns the number of stored elements.
func (l *List[T]) Len() int { return l.size }

// Insert pushes it in at rank order (after equal ranks: FIFO among ties).
func (l *List[T]) Insert(it Item[T]) {
	l.ensureBlockSize()
	if len(l.blocks) == 0 {
		l.blocks = append(l.blocks, make([]Item[T], 0, l.blockSize))
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
	b = append(b, Item[T]{})
	copy(b[lo+1:], b[lo:])
	b[lo] = it
	l.blocks[bi] = b
	l.size++
	if len(b) > 2*l.blockSize {
		l.split(bi)
	}
}

// split divides an oversized block in two.
func (l *List[T]) split(bi int) {
	b := l.blocks[bi]
	mid := len(b) / 2
	left := b[:mid:mid]
	right := append(make([]Item[T], 0, l.blockSize*2), b[mid:]...)
	l.blocks = append(l.blocks, nil)
	copy(l.blocks[bi+2:], l.blocks[bi+1:])
	l.blocks[bi] = left
	l.blocks[bi+1] = right
}

// dropBlock removes an empty block.
func (l *List[T]) dropBlock(bi int) {
	l.blocks = append(l.blocks[:bi], l.blocks[bi+1:]...)
}

// ExtractMin removes and returns the smallest-ranked element eligible at
// now. It reports false when no element is eligible.
func (l *List[T]) ExtractMin(now uint64) (Item[T], bool) {
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
	var zero Item[T]
	return zero, false
}

// ExtractTail removes and returns the largest-ranked element regardless of
// eligibility — Vertigo's extension (§A.3), used to evict the packet with
// the largest remaining flow size from a full buffer. Among equal maximal
// ranks the youngest is extracted.
func (l *List[T]) ExtractTail() (Item[T], bool) {
	if l.size == 0 {
		var zero Item[T]
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
func (l *List[T]) PeekTail() (Item[T], bool) {
	if l.size == 0 {
		var zero Item[T]
		return zero, false
	}
	for bi := len(l.blocks) - 1; bi >= 0; bi-- {
		if b := l.blocks[bi]; len(b) > 0 {
			return b[len(b)-1], true
		}
	}
	var zero Item[T]
	return zero, false
}

// ExtractWhere removes and returns the first element (in rank order) for
// which pred returns true — PIEO's "extract-out by filter" generalization.
func (l *List[T]) ExtractWhere(pred func(Item[T]) bool) (Item[T], bool) {
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
	var zero Item[T]
	return zero, false
}

// Items returns the elements in rank order (a copy; for tests and
// inspection).
func (l *List[T]) Items() []Item[T] {
	out := make([]Item[T], 0, l.size)
	for _, b := range l.blocks {
		out = append(out, b...)
	}
	return out
}
