package fabric

import (
	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/units"
)

// mix64 is a splitmix64 finalizer, used for flow hashing.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// routeECMP picks the next hop by flow hash (salted per switch so different
// switches spread the same flow set differently) and tail-drops on overflow.
func (s *Switch) routeECMP(p *packet.Packet) {
	cands := s.candidates(p)
	if len(cands) == 0 {
		s.net.drop(s.id, -1, p, metrics.DropOther)
		return
	}
	i := cands[0]
	if len(cands) > 1 {
		h := mix64(p.Flow ^ (uint64(s.id)+1)*0x9e3779b97f4a7c15)
		i = cands[h%uint64(len(cands))]
	}
	if !s.enqueue(i, p) {
		s.net.drop(s.id, i, p, metrics.DropOverflow)
	}
}

// routeDRILL implements DRILL(d=2, m=1): per packet, sample two random
// candidate ports plus the remembered least-loaded port, and enqueue on the
// emptiest. Tail-drops on overflow.
func (s *Switch) routeDRILL(p *packet.Packet) {
	cands := s.candidates(p)
	if len(cands) == 0 {
		s.net.drop(s.id, -1, p, metrics.DropOther)
		return
	}
	best := -1
	var bestBytes units.ByteSize
	consider := func(i int) {
		if b := s.ports[i].occBytes(); best == -1 || b < bestBytes {
			best, bestBytes = i, b
		}
	}
	if len(cands) == 1 {
		best = cands[0]
	} else {
		consider(cands[s.intn(len(cands))])
		consider(cands[s.intn(len(cands))])
		mem, existed := s.drillMem.Put(drillKey(cands))
		if existed {
			consider(int(*mem))
		}
		*mem = int32(best)
	}
	if !s.enqueue(best, p) {
		s.net.drop(s.id, best, p, metrics.DropOverflow)
	}
}

// drillKey identifies a candidate group by its first port and its length.
// The lists are topo.FIB's (Network.fib): every destination of one column —
// the hosts behind one ToR — gets the identical list at a switch, its ports
// that step one hop closer, in ascending order. On the pristine table of a
// leaf-spine or fat-tree a switch has one multi-port list per direction (all
// uplinks), so first port and length name the group; a healed table may hand
// a switch two equally long lists that start alike, which then share a slot.
// The key holds values, not addresses, so memory survives InstallFIB: a
// healed table's lists are other arrays, the pristine table's come back as
// they were.
func drillKey(cands []int) uint64 {
	return uint64(cands[0])<<32 | uint64(len(cands))
}

// routeDIBS forwards like ECMP but, when the chosen output queue is full,
// detours the arriving packet to a random port with buffer space (Zarifis et
// al., EuroSys'14). Only when no port has space is the packet dropped.
func (s *Switch) routeDIBS(p *packet.Packet) {
	cands := s.candidates(p)
	if len(cands) == 0 {
		s.net.drop(s.id, -1, p, metrics.DropOther)
		return
	}
	i := cands[0]
	if len(cands) > 1 {
		h := mix64(p.Flow ^ (uint64(s.id)+1)*0x9e3779b97f4a7c15)
		i = cands[h%uint64(len(cands))]
	}
	if s.enqueue(i, p) {
		return
	}
	// Deflect: scan the deflection set in random order for space.
	if p.Deflections >= s.net.Cfg.MaxDeflections {
		s.net.drop(s.id, i, p, metrics.DropOverflow)
		return
	}
	set := s.deflectionSet(p, i)
	for n := len(set); n > 0; n-- {
		j := s.intn(n)
		port := set[j]
		set[j] = set[n-1]
		if !s.ports[port].down && s.ports[port].fitsNow(p.Size()) {
			p.Deflections++
			s.net.noteDeflect()
			if o := s.net.obs; o != nil {
				o.Deflect(s.id, i, port, p)
			}
			s.enqueue(port, p)
			return
		}
	}
	s.net.drop(s.id, i, p, metrics.DropOverflow)
}

// deflectionSet returns the ports a packet may be deflected to: every
// fabric-facing port except the full one. Host-facing ports are excluded —
// deflecting into a foreign server's NIC is a guaranteed loss — except the
// packet's own destination port, which is the full port itself here.
// The returned slice is switch-owned scratch, rebuilt on every call; the
// caller may permute it but must not hold it across another routing step.
func (s *Switch) deflectionSet(p *packet.Packet, exclude int) []int {
	fab := s.net.Topo.FabricPorts[s.id]
	set := s.deflScratch[:0]
	for _, i := range fab {
		if i != exclude {
			set = append(set, i)
		}
	}
	s.deflScratch = set
	return set
}

// routeVertigo implements the paper's §3.2 pipeline:
//
//  1. Forwarding: power-of-FwdChoices among FIB candidates by occupancy.
//  2. Enqueue into the RFS-sorted queue. On overflow, insert by rank and
//     evict from the tail, so the largest-RFS packets (possibly the arriving
//     one) become deflection victims.
//  3. Deflection: power-of-DeflChoices among fabric ports; if every sampled
//     queue is full, force-insert into one at random, dropping its tail.
func (s *Switch) routeVertigo(p *packet.Packet) {
	cands := s.candidates(p)
	if len(cands) == 0 {
		s.net.drop(s.id, -1, p, metrics.DropOther)
		return
	}
	i := s.pickPowerOfN(cands, s.net.Cfg.FwdChoices)
	if s.enqueue(i, p) {
		return
	}
	if !s.net.Cfg.Deflection {
		// Ablation (Fig. 11a "No Deflection"): behave as a pure SRPT buffer,
		// keeping the smallest-RFS packets and dropping the largest.
		if pt := &s.ports[i]; pt.isSorted && !pt.down {
			pt.sync(s.net.Eng.Now())
			s.markECN(pt, p)
			s.victims = pt.qs.ForceInsert(p, s.victims[:0])
			for _, ev := range s.victims {
				s.net.drop(s.id, i, ev, metrics.DropOverflow)
			}
			pt.maybeSend()
		} else {
			s.net.drop(s.id, i, p, metrics.DropOverflow)
		}
		return
	}
	for _, victim := range s.overflowVictims(i, p) {
		s.deflectVertigo(victim, i)
	}
}

// overflowVictims applies the overflow rule on port i for arriving packet p
// and returns the packets to deflect. With scheduling enabled the victims
// are the largest-RFS packets after inserting p by rank; without it
// (Fig. 11a "No Scheduling") the arriving packet itself is the victim,
// which is exactly random-deflection behaviour.
func (s *Switch) overflowVictims(i int, p *packet.Packet) []*packet.Packet {
	if pt := &s.ports[i]; pt.isSorted && !pt.down {
		pt.sync(s.net.Eng.Now())
		s.markECN(pt, p)
		s.victims = pt.qs.ForceInsert(p, s.victims[:0])
		pt.maybeSend()
		return s.victims
	}
	s.victimOne[0] = p
	return s.victimOne[:]
}

// deflectVertigo deflects one victim from full port origin.
func (s *Switch) deflectVertigo(victim *packet.Packet, origin int) {
	if victim.Deflections >= s.net.Cfg.MaxDeflections {
		s.net.drop(s.id, origin, victim, metrics.DropDeflectFull)
		return
	}
	set := s.deflectionSet(victim, origin)
	if len(set) == 0 {
		s.net.drop(s.id, origin, victim, metrics.DropDeflectFull)
		return
	}
	i := s.pickPowerOfN(set, s.net.Cfg.DeflChoices)
	if !s.ports[i].down && s.ports[i].fitsNow(victim.Size()) {
		victim.Deflections++
		s.net.noteDeflect()
		if o := s.net.obs; o != nil {
			o.Deflect(s.id, origin, i, victim)
		}
		s.enqueue(i, victim)
		return
	}
	// Both sampled queues full: severe congestion. Insert into the sampled
	// port by rank and drop from its tail (paper footnote 5).
	if pt := &s.ports[i]; pt.isSorted && !pt.down {
		pt.sync(s.net.Eng.Now())
		victim.Deflections++
		s.net.noteDeflect()
		if o := s.net.obs; o != nil {
			o.Deflect(s.id, origin, i, victim)
		}
		s.evicted = pt.qs.ForceInsert(victim, s.evicted[:0])
		for _, ev := range s.evicted {
			s.net.drop(s.id, i, ev, metrics.DropDeflectFull)
		}
		pt.maybeSend()
		return
	}
	s.net.drop(s.id, i, victim, metrics.DropDeflectFull)
}

// intn draws a policy decision from the switch's positional stream.
func (s *Switch) intn(n int) int { return int(s.rng.Int63n(int64(n))) }

// pickPowerOfN samples n (distinct where possible) ports from cands and
// returns the one with the lowest queue occupancy. n=1 is a uniform random
// pick; ties keep the first sample, matching hardware comparator behaviour.
// The samples are the first n steps of a Fisher-Yates shuffle of cands, each
// probed as it is drawn: a probe settles the port, which may send, draw and
// be observed by the next.
func (s *Switch) pickPowerOfN(cands []int, n int) int {
	if len(cands) == 1 {
		return cands[0]
	}
	if n <= 1 {
		return cands[s.intn(len(cands))]
	}
	if n == 2 {
		// The paper's default, once per routed packet: two steps of the
		// shuffle need no copy to swap in. Step one swapped cands[0] into
		// slot j0, so that is what step two finds there.
		j0 := s.intn(len(cands))
		a := cands[j0]
		aBytes := s.ports[a].occBytes()
		j1 := 1 + s.intn(len(cands)-1)
		b := cands[j1]
		if j1 == j0 {
			b = cands[0]
		}
		if s.ports[b].occBytes() < aBytes {
			return b
		}
		return a
	}
	if n > len(cands) {
		n = len(cands)
	}
	best := -1
	var bestBytes units.ByteSize
	// Partial Fisher-Yates over a stack copy for distinct samples. The
	// fixed-size buffer keeps this zero-alloc for any realistic radix; only
	// pathological port counts fall back to the heap.
	var stack [64]int
	idx := stack[:0]
	if len(cands) > len(stack) {
		idx = make([]int, 0, len(cands))
	}
	idx = append(idx, cands...)
	for k := 0; k < n; k++ {
		j := k + s.intn(len(idx)-k)
		idx[k], idx[j] = idx[j], idx[k]
		c := idx[k]
		if b := s.ports[c].occBytes(); best == -1 || b < bestBytes {
			best, bestBytes = c, b
		}
	}
	return best
}
