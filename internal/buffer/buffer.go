// Package buffer implements the switch output queues: a classic drop-tail
// FIFO and a rank-sorted queue modelled on hardware PIFO/PIEO schedulers,
// extended (as the paper's §A.3 extends PIEO) with extraction from the tail
// of the priority list. Capacities are byte-denominated, matching shallow-
// buffered datacenter switch ports.
package buffer

import (
	"vertigo/internal/arena"
	"vertigo/internal/packet"
	"vertigo/internal/units"
)

// Mem is where queues get their arrays: the seed every queue starts on, the
// doublings of a deep burst, and the right-sized array a queue moves to when
// the burst has passed. The queues of one fabric share one, so that tens of
// thousands of ports' seed arrays are carved from a few chunks and a burst's
// arrays serve the next burst, wherever it lands; a queue on its own (see
// NewSorted, NewDropTail) has one to itself. Not safe for concurrent use.
type Mem struct {
	pkts  arena.Pool[*packet.Packet]
	ranks arena.Pool[uint32]
}

// seedLen is the capacity of a queue's first array: most ports of a large
// fabric never hold more.
const seedLen = 32

// reclaimFloor is how long a consumed prefix may grow before Pop moves the
// live packets back to the front, once they are no more than it. Low enough
// that a port kept busy by a packet or two compacts well inside its seed
// array instead of doubling it on every lap; the copy is of at most as many
// packets as were popped since the last one, so Pop stays amortized O(1).
const reclaimFloor = 8

// compact reclaims the consumed prefix of a deferred-compaction queue slice
// once the head index dominates it, returning the live suffix moved to the
// front. When the backing array was grown by a deep burst and occupancy has
// fallen far below it, the array goes back to pool and the live packets move
// to a right-sized one — otherwise a single burst would pin peak memory
// for the rest of the run.
func compact[T any](pool *arena.Pool[T], pkts []T, head int) []T {
	live := pkts[head:]
	if c := cap(pkts); c > 1024 && len(live) <= c/4 {
		g := append(pool.Get(2*len(live)), live...)
		pool.Put(pkts)
		return g
	}
	return append(pkts[:0], live...)
}

// Queue is a bounded packet queue. Implementations track occupancy in bytes
// against a fixed capacity; admission control (what to do when a packet does
// not fit) is the forwarding policy's job, so Push on a queue without room
// reports failure rather than dropping silently.
type Queue interface {
	// Push enqueues p if it fits within capacity, reporting success.
	Push(p *packet.Packet) bool
	// Pop removes and returns the next packet to transmit, or nil.
	Pop() *packet.Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns current occupancy in bytes.
	Bytes() units.ByteSize
	// Cap returns the byte capacity.
	Cap() units.ByteSize
	// Fits reports whether a packet of size n would currently fit.
	Fits(n units.ByteSize) bool
}

// DropTailQueue is a FIFO with byte-based admission: the queue used by the
// ECMP, DRILL and DIBS fabrics. Pop advances a head index instead of shifting
// the slice; the consumed prefix is reclaimed when it dominates the slice,
// and at once when the queue drains, so a port that is mostly empty keeps
// reusing the front of a small array instead of marching through a large one.
type DropTailQueue struct {
	pkts  []*packet.Packet
	head  int
	bytes units.ByteSize
	cap   units.ByteSize
	mem   *Mem
}

// NewDropTail returns an empty FIFO with the given byte capacity.
func NewDropTail(capacity units.ByteSize) *DropTailQueue {
	return &DropTailQueue{cap: capacity, mem: new(Mem)}
}

// Push appends p if it fits.
func (q *DropTailQueue) Push(p *packet.Packet) bool {
	n := p.Size()
	if q.bytes+n > q.cap {
		return false
	}
	q.room()
	q.pkts = append(q.pkts, p)
	q.bytes += n
	return true
}

// room makes room for one more packet.
func (q *DropTailQueue) room() {
	if len(q.pkts) == cap(q.pkts) {
		q.pkts = q.mem.pkts.Grow(q.pkts, seedLen)
	}
}

// Pop removes the head packet.
func (q *DropTailQueue) Pop() *packet.Packet {
	if q.head >= len(q.pkts) {
		return nil
	}
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	q.bytes -= p.Size()
	// Reclaim the consumed prefix when the queue drains or once it dominates
	// the slice.
	if q.head == len(q.pkts) || q.head > reclaimFloor && q.head*2 >= len(q.pkts) {
		q.pkts = compact(&q.mem.pkts, q.pkts, q.head)
		q.head = 0
	}
	return p
}

// Len returns the queue length in packets.
func (q *DropTailQueue) Len() int { return len(q.pkts) - q.head }

// Bytes returns occupancy in bytes.
func (q *DropTailQueue) Bytes() units.ByteSize { return q.bytes }

// Cap returns the byte capacity.
func (q *DropTailQueue) Cap() units.ByteSize { return q.cap }

// Fits reports whether n more bytes fit.
func (q *DropTailQueue) Fits(n units.ByteSize) bool { return q.bytes+n <= q.cap }

// SortedQueue keeps packets ordered by ascending rank (Vertigo's RFS), with
// FIFO order among equal ranks. Pop returns the minimum-rank packet; the
// tail (maximum rank, youngest among ties) can be inspected and extracted,
// which is the PIEO extension Vertigo's overflow handling requires.
//
// The backing store is a sorted slice: datacenter ports hold at most a few
// hundred frames (300 KB / 1500 B = 200), so binary-search insertion with a
// memmove beats pointer-chasing tree structures at this scale. Pop advances a
// head index instead of shifting the whole slice (the same deferred-
// compaction scheme DropTailQueue uses, rewinding to the front whenever the
// queue drains), and the freed slot in front of the head is reused when an
// insertion lands there.
//
// The packet window, its head index and the byte accounting are a
// DropTailQueue's, embedded: Len, Bytes, Cap and Fits are its
// methods, Push and Pop are replaced. An owner that keeps its queue header
// by value (a fabric port) therefore needs room for one SortedQueue and can
// run either discipline in it: the whole, or the embedded FIFO alone through
// the view FIFO returns. The two are exclusive — a FIFO Push or Pop would
// leave ranks behind pkts — so the field is unexported and nothing else hands
// the FIFO out.
type SortedQueue struct {
	fifo
	// ranks mirrors pkts in lockstep: ranks[i] == pkts[i].Rank(). The rank
	// of a queued packet never changes, and keeping the sort keys in a
	// contiguous uint32 array lets the binary search and tail comparisons
	// run over cache lines instead of chasing a packet pointer per probe.
	ranks []uint32
}

// NewSorted returns an empty rank-sorted queue with the given byte capacity.
func NewSorted(capacity units.ByteSize) *SortedQueue {
	q := new(SortedQueue)
	q.Init(capacity, new(Mem))
	return q
}

// fifo embeds a DropTailQueue, promoted methods and all, under an unexported
// field name.
type fifo = DropTailQueue

// Init makes q, wherever its owner keeps it, an empty queue with the given
// byte capacity whose arrays come from mem.
func (q *SortedQueue) Init(capacity units.ByteSize, mem *Mem) {
	*q = SortedQueue{fifo: fifo{cap: capacity, mem: mem}}
}

// FIFO returns q's storage as a drop-tail queue. An owner picks one
// discipline at Init and keeps to it: the returned queue and none of q's own
// methods, or q's own and never this.
func (q *SortedQueue) FIFO() *DropTailQueue { return &q.fifo }

// insertionPoint returns the index (into q.pkts, so >= q.head) where a packet
// with the given rank is inserted: after all packets with rank <= r (FIFO
// among equals). The binary search is written out so the comparison inlines
// instead of going through a sort.Search closure.
func (q *SortedQueue) insertionPoint(r uint32) int {
	lo, hi := q.head, len(q.ranks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.ranks[mid] <= r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Push inserts p by rank if it fits.
func (q *SortedQueue) Push(p *packet.Packet) bool {
	n := p.Size()
	if q.bytes+n > q.cap {
		return false
	}
	q.insert(p)
	return true
}

func (q *SortedQueue) insert(p *packet.Packet) {
	r := p.Rank()
	// Tail fast path: a rank at or above the current maximum appends without
	// searching or shifting (FIFO among equals puts the newcomer last). It is
	// not the common case: on leafspine_incast an eighth of inserts take it,
	// a quarter reuse the slot Pop vacated, and the rest shift the tail
	// (ROADMAP 16(d) has the counts).
	if n := len(q.pkts); n > q.head && q.ranks[n-1] <= r {
		q.room()
		q.pkts = append(q.pkts, p)
		q.ranks = append(q.ranks, r)
		q.bytes += p.Size()
		return
	}
	i := q.insertionPoint(r)
	if i == q.head && q.head > 0 {
		// New minimum: reuse the slot Pop just vacated instead of shifting.
		q.head--
		q.pkts[q.head] = p
		q.ranks[q.head] = r
	} else {
		q.room()
		q.pkts = append(q.pkts, nil)
		copy(q.pkts[i+1:], q.pkts[i:])
		q.pkts[i] = p
		q.ranks = append(q.ranks, 0)
		copy(q.ranks[i+1:], q.ranks[i:])
		q.ranks[i] = r
	}
	q.bytes += p.Size()
}

// room makes room for one more packet and its rank.
func (q *SortedQueue) room() {
	q.fifo.room()
	if len(q.ranks) == cap(q.ranks) {
		q.ranks = q.mem.ranks.Grow(q.ranks, seedLen)
	}
}

// Pop removes and returns the minimum-rank packet.
func (q *SortedQueue) Pop() *packet.Packet {
	if q.head >= len(q.pkts) {
		return nil
	}
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	q.bytes -= p.Size()
	// Reclaim the consumed prefix when the queue drains or once it dominates
	// the slice.
	if q.head == len(q.pkts) || q.head > reclaimFloor && q.head*2 >= len(q.pkts) {
		q.rewind()
	}
	return p
}

// rewind moves the live window back to the front of both arrays.
func (q *SortedQueue) rewind() {
	q.pkts = compact(&q.mem.pkts, q.pkts, q.head)
	q.ranks = compact(&q.mem.ranks, q.ranks, q.head)
	q.head = 0
}

// Tail returns the maximum-rank packet without removing it, or nil.
// Among equal maximal ranks the youngest (most recently inserted) packet is
// the tail, so repeated tail extraction under overflow evicts the packets
// that arrived during the burst first.
func (q *SortedQueue) Tail() *packet.Packet {
	if q.head >= len(q.pkts) {
		return nil
	}
	return q.pkts[len(q.pkts)-1]
}

// ExtractTail removes and returns the maximum-rank packet, or nil.
func (q *SortedQueue) ExtractTail() *packet.Packet {
	n := len(q.pkts)
	if q.head >= n {
		return nil
	}
	p := q.pkts[n-1]
	q.pkts[n-1] = nil
	q.pkts = q.pkts[:n-1]
	q.ranks = q.ranks[:n-1]
	q.bytes -= p.Size()
	if q.head == n-1 && q.head > 0 {
		q.rewind() // the last packet left from the tail end
	}
	return p
}

// ForceInsert inserts p by rank regardless of capacity, then evicts tail
// packets until occupancy is within capacity again. It appends the evicted
// packets (possibly including p itself, when p carries the largest rank) to
// evicted, the caller's scratch, and returns it. This implements the paper's
// "insert and drop from the tail" overflow rule.
func (q *SortedQueue) ForceInsert(p *packet.Packet, evicted []*packet.Packet) []*packet.Packet {
	q.insert(p)
	for q.bytes > q.cap {
		evicted = append(evicted, q.ExtractTail())
	}
	return evicted
}
