// Package arena recycles slice backing arrays across many short-lived
// owners. A million-flow run churns through reorder buffers, in-flight
// FIFOs and similar burst-grown scratch arrays whose peak size is set by a
// moment of congestion, not by the flow that happens to own them; holding
// every burst-grown array on its owner pins O(total owners) memory, while
// freeing them makes the next burst reallocate. A shared arena does
// neither: owners return oversized arrays when they quiesce and the next
// burst — wherever it lands — reuses them, keeping steady-state memory
// proportional to concurrent burstiness.
//
// The same pool is where the small and numerous arrays come from: the seed
// array of a port's queue, an in-flight FIFO's first eight entries, a reorder
// window. A large fabric has tens of thousands of owners that each need one,
// and one allocation apiece is most of what such a run asks of the
// allocator; a miss in a small size class is therefore carved from a chunk
// that serves many. A pool's chunks start small and double, so a pool that
// hands out a few arrays — a marker's, an orderer's on its own — holds a few
// arrays' worth, and one that serves a fabric reaches full chunks in a
// handful of steps.
//
// Pools are not safe for concurrent use; each simulation engine owns its
// own (one engine == one goroutine, matching the rest of the simulator).
package arena

import "math/bits"

const (
	// numClasses bounds recyclable capacities at 2^(numClasses-1) elements;
	// anything larger is left to the garbage collector.
	numClasses = 24
	// maxPerClass bounds how many arrays one size class retains. Beyond it,
	// Put drops the array: the arena adapts down after a burst instead of
	// holding its high-water mark forever.
	maxPerClass = 16
	// carveClasses is how many of the smallest size classes — arrays of up
	// to 1<<(carveClasses-1) elements — are carved from chunks: the first
	// of firstChunk elements, each next one twice its predecessor, up to
	// chunkLen. An array carved from a chunk cannot be freed on its own, so
	// dropping one would strand it: these classes retain whatever is Put.
	carveClasses = 7
	firstChunk   = 16
	chunkLen     = 2048
)

// Pool recycles backing arrays of one element type, bucketed by
// power-of-two capacity class.
type Pool[T any] struct {
	classes [numClasses][][]T
	chunk   []T // uncarved remainder of the newest chunk
	chunkN  int // length of the newest chunk
	hits    uint64
	misses  uint64
}

// Get returns a zero-length slice with capacity at least n, reusing a
// recycled backing array when one is available. Elements are zeroed.
func (a *Pool[T]) Get(n int) []T {
	if n < 1 {
		n = 1
	}
	c := classFor(n)
	// The exact class always satisfies n; one class up avoids an allocation
	// when the fit is merely loose.
	for k := c; k <= c+1 && k < numClasses; k++ {
		if l := len(a.classes[k]); l > 0 {
			s := a.classes[k][l-1]
			a.classes[k][l-1] = nil
			a.classes[k] = a.classes[k][:l-1]
			a.hits++
			return s
		}
	}
	a.misses++
	switch {
	case c >= numClasses:
		return make([]T, 0, n)
	case c >= carveClasses:
		return make([]T, 0, 1<<c)
	}
	if len(a.chunk) < 1<<c {
		// The remainder, shorter than this class, is left behind: at most
		// one array's worth a chunk.
		a.chunkN = min(max(2*a.chunkN, firstChunk, 1<<c), chunkLen)
		a.chunk = make([]T, a.chunkN)
	}
	s := a.chunk[: 0 : 1<<c]
	a.chunk = a.chunk[1<<c:]
	return s
}

// Grow returns full slice s moved to an array of twice its capacity, and at
// least min, from the pool, to which the outgrown array returns.
func (a *Pool[T]) Grow(s []T, min int) []T {
	g := a.Get(max(2*cap(s), min))[:len(s)]
	copy(g, s)
	a.Put(s)
	return g
}

// Put recycles s's backing array for a future Get. The array is zeroed so
// recycled pointer slices do not pin their former contents. Oversized and
// zero-capacity arrays, and arrays landing in a full class that is not
// carved, are dropped.
func (a *Pool[T]) Put(s []T) {
	n := cap(s)
	if n == 0 {
		return
	}
	c := bits.Len(uint(n)) - 1 // floor class: every array here has cap >= 1<<c
	if c >= numClasses || c >= carveClasses && len(a.classes[c]) >= maxPerClass {
		return
	}
	s = s[:n]
	clear(s)
	a.classes[c] = append(a.classes[c], s[:0])
}

// Hits returns how many Gets were served from recycled arrays.
func (a *Pool[T]) Hits() uint64 { return a.hits }

// Misses returns how many Gets had to allocate or carve.
func (a *Pool[T]) Misses() uint64 { return a.misses }

// classFor returns the smallest class c with 1<<c >= n.
func classFor(n int) int { return bits.Len(uint(n - 1)) }
