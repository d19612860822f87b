package packet

// slabSize is the number of Packet frames carved from one backing
// allocation. 256 frames ≈ 40 KB: big enough to amortize the allocator to
// noise, small enough that a short run does not strand memory.
const slabSize = 256

// Pool is a per-simulation free list of Packets backed by slab allocation.
// Data packets and ACKs are the simulator's dominant allocation churn (one
// of each per delivered segment); recycling them through a free list makes
// the send path allocation-free at steady state, and carving fresh frames
// from contiguous slabs — rather than one heap object each — lays the
// population out struct-of-arrays-style in memory, so a packet train
// serialized back-to-back walks consecutive cache lines instead of chasing
// scattered allocations.
//
// Ownership rule: a packet is either in exactly one queue, in flight on one
// link, or being handled — whoever consumes it last (the transport handler
// on delivery, the fabric on a drop) returns it with Put. A packet must not
// be touched after Put.
//
// A Pool is not safe for concurrent use; every simulation (engine) owns its
// own. A nil *Pool is valid and degrades to plain allocation.
type Pool struct {
	free []*Packet
	slab []Packet // current slab's uncarved tail

	gets  uint64 // Get calls
	hits  uint64 // Get calls served from the free list
	puts  uint64 // Put calls
	slabs uint64 // backing slabs allocated
}

// Get returns a packet for the caller to initialize. The packet's fields are
// unspecified (it may be a recycled frame); callers must overwrite it
// wholesale with a composite-literal assignment.
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return &Packet{}
	}
	pl.gets++
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		pl.hits++
		return p
	}
	if len(pl.slab) == 0 {
		pl.slab = make([]Packet, slabSize)
		pl.slabs++
	}
	p := &pl.slab[0]
	pl.slab = pl.slab[1:]
	return p
}

// Put recycles p. The caller must hold the last reference. The memoized
// wire size is invalidated here as well as by the composite-literal
// reinitialization rule, so a recycled frame can never report a previous
// tenant's size even to a caller that reinitializes field-by-field.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	p.wire = 0
	pl.puts++
	pl.free = append(pl.free, p)
}

// Len returns the number of packets currently on the free list.
func (pl *Pool) Len() int {
	if pl == nil {
		return 0
	}
	return len(pl.free)
}

// PoolStats snapshots a pool's recycle counters: at steady state Hits/Gets
// approaches 1 and the send path stops allocating packets.
type PoolStats struct {
	Gets uint64 `json:"gets"` // packets handed out
	Hits uint64 `json:"hits"` // handed-out packets that were recycled frames
	Puts uint64 `json:"puts"` // packets returned
	// Slabs counts backing allocations: cold-start gets are amortized
	// slabSize frames per allocation instead of one.
	Slabs uint64 `json:"slabs"`
}

// RecycleRate returns Hits/Gets (0 when nothing was handed out).
func (s PoolStats) RecycleRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Stats returns the pool's counters. Nil-safe: a nil pool reports zeros.
func (pl *Pool) Stats() PoolStats {
	if pl == nil {
		return PoolStats{}
	}
	return PoolStats{Gets: pl.gets, Hits: pl.hits, Puts: pl.puts, Slabs: pl.slabs}
}
