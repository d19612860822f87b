package fabric

import (
	"sort"

	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/topo"
	"vertigo/internal/units"
)

// ShardCtx marks a Network as one domain replica of a sharded (conservative
// parallel) run. Every replica instantiates the full topology — switch IDs,
// FIBs and fault state stay globally consistent that way — but traffic only
// ever touches elements the replica owns: packets leaving an owned switch
// through a port whose peer lives in another domain are handed to Emit at
// their pop instead of riding the local wire, and arrive in the peer's
// replica through InjectCross.
//
// Randomness discipline: the fabric never touches the engine's random
// stream, in a replica or in a serial run — that stream is the workload
// generators' alone. Policies draw from per-switch positional streams, jitter
// and bit-error corruption from per-port ones (all seeded in New), so every
// draw is a pure function of (seed, element identity, draw index) —
// independent of the domain count and of event interleaving across domains.
type ShardCtx struct {
	Domain       int
	SwitchDomain []int
	HostDomain   []int
	// Emit hands a popped cross-domain packet to the coordinator. It is
	// called on the domain's own goroutine mid-window; implementations
	// append to a domain-local outbox without synchronization.
	Emit func(dstDomain int, item CrossItem)
}

// CrossItem is one packet crossing a domain boundary: the frame by value
// (the source replica's pool frame is recycled at emission) plus the wire
// arrival time and the emitting port's identity. (At, SrcSw, SrcPort) is
// unique — a port's arrival times are strictly increasing — and names the
// canonical injection order, independent of how domains are partitioned.
type CrossItem struct {
	At             units.Time
	SrcSw, SrcPort int32
	DstSw          int32
	Pkt            packet.Packet
}

// SortCross sorts a batch into the canonical injection order. The key is
// unique, so the result is independent of the batch's accumulation order.
func SortCross(items []CrossItem) {
	sort.Slice(items, func(i, j int) bool { return crossLess(&items[i], &items[j]) })
}

// crossLess orders items by the canonical (At, SrcSw, SrcPort) key.
func crossLess(a, b *CrossItem) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.SrcSw != b.SrcSw {
		return a.SrcSw < b.SrcSw
	}
	return a.SrcPort < b.SrcPort
}

// NewSharded builds one domain replica: a full Network decorated with the
// shard context, the cross-domain port marks and the inbox.
func NewSharded(eng *sim.Engine, t *topo.Topology, met *metrics.Collector, cfg Config, sd *ShardCtx) *Network {
	n := New(eng, t, met, cfg)
	n.shard = sd
	for _, s := range n.switches {
		for i := range s.ports {
			pt := &s.ports[i]
			if pt.peer != nil && sd.SwitchDomain[pt.peerID] != sd.SwitchDomain[s.id] {
				pt.xdom = true
				pt.cold().xdst = int32(sd.SwitchDomain[pt.peerID])
			}
		}
	}
	n.inbox.init(n)
	return n
}

// ownsSwitch reports whether this replica owns switch sw (always true when
// not sharded). Fault accounting is gated on ownership so merged shard
// metrics count each transition exactly once.
func (n *Network) ownsSwitch(sw int) bool {
	return n.shard == nil || n.shard.SwitchDomain[sw] == n.shard.Domain
}

// ownsLink reports whether this replica accounts for link li: the domain of
// the link's switch endpoint A (for host links, the switch side). Both
// replicas of a cross-domain link apply the state flip; exactly one counts
// it.
func (n *Network) ownsLink(li int) bool {
	if n.shard == nil {
		return true
	}
	e := n.Topo.Links[li].A
	if e.Host {
		e = n.Topo.Links[li].B
	}
	return n.shard.SwitchDomain[e.Node] == n.shard.Domain
}

// ownsControl reports whether this replica accounts for control-plane-wide
// transitions (FIB heals): domain 0, arbitrarily but consistently.
func (n *Network) ownsControl() bool {
	return n.shard == nil || n.shard.Domain == 0
}

// emitCross hands a popped packet on a cross-domain port to the
// coordinator and recycles the local frame. The arrival time is at least
// one cross-domain propagation delay in the future, so the conservative
// window protocol guarantees the destination replica has not advanced past
// it.
func (pt *Port) emitCross(p *packet.Packet, at units.Time) {
	pt.net.shard.Emit(int(pt.cold().xdst), CrossItem{
		At:      at,
		SrcSw:   pt.sw,
		SrcPort: pt.idx,
		DstSw:   pt.peerID,
		Pkt:     *p,
	})
	pt.net.pool.Put(p)
}

// crossInbox delivers injected cross-domain packets in canonical order
// through one self-rescheduling engine event, so PeekTime always sees the
// earliest pending injection and the window barrier cannot advance past it.
type crossInbox struct {
	n       *Network
	items   []CrossItem
	head    int
	armed   bool
	armedAt units.Time
	fire    func()
}

func (ib *crossInbox) init(n *Network) {
	ib.n = n
	ib.fire = func() {
		now := ib.n.Eng.Now()
		if !ib.armed || now != ib.armedAt {
			return // superseded by a re-arm at an earlier injection
		}
		ib.armed = false
		for ib.head < len(ib.items) && ib.items[ib.head].At == now {
			it := &ib.items[ib.head]
			ib.head++
			p := ib.n.pool.Get()
			*p = it.Pkt
			ib.n.switches[it.DstSw].Receive(p)
		}
		if ib.head < len(ib.items) {
			ib.armed = true
			ib.armedAt = ib.items[ib.head].At
			ib.n.Eng.Sched(ib.armedAt, ib.fire)
		} else {
			ib.items = ib.items[:0]
			ib.head = 0
		}
	}
}

// InjectCross merges a batch of cross-domain arrivals — already in
// canonical (At, SrcSw, SrcPort) order — into the replica's inbox and arms
// the delivery pump. Called by the shard coordinator between windows, never
// mid-window; every item's At lies beyond the window just completed.
func (n *Network) InjectCross(batch []CrossItem) {
	ib := &n.inbox
	if len(batch) == 0 {
		return
	}
	if rem := ib.items[ib.head:]; len(rem) == 0 {
		ib.items = append(ib.items[:0], batch...)
		ib.head = 0
	} else {
		merged := make([]CrossItem, 0, len(rem)+len(batch))
		i, j := 0, 0
		for i < len(rem) && j < len(batch) {
			if crossLess(&rem[i], &batch[j]) {
				merged = append(merged, rem[i])
				i++
			} else {
				merged = append(merged, batch[j])
				j++
			}
		}
		merged = append(merged, rem[i:]...)
		merged = append(merged, batch[j:]...)
		ib.items, ib.head = merged, 0
	}
	if at := ib.items[ib.head].At; !ib.armed || at < ib.armedAt {
		// A stale pump event armed at a later instant self-rejects on the
		// armedAt check when it eventually fires.
		ib.armed = true
		ib.armedAt = at
		n.Eng.Sched(at, ib.fire)
	}
}
