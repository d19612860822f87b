// Package fabric is the switching substrate: output-queued switches wired
// together by store-and-forward links, plus the four forwarding policies the
// paper evaluates — ECMP, DRILL micro load balancing, DIBS random deflection,
// and Vertigo selective deflection with SRPT-sorted queues.
package fabric

import (
	"fmt"

	"vertigo/internal/arena"
	"vertigo/internal/buffer"
	"vertigo/internal/flowtab"
	"vertigo/internal/metrics"
	"vertigo/internal/obs"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/telemetry"
	"vertigo/internal/topo"
	"vertigo/internal/units"
	"vertigo/internal/xrand"
)

// Policy selects a forwarding scheme.
type Policy int

// Forwarding policies.
const (
	ECMP Policy = iota
	DRILL
	DIBS
	Vertigo
)

func (p Policy) String() string {
	switch p {
	case ECMP:
		return "ecmp"
	case DRILL:
		return "drill"
	case DIBS:
		return "dibs"
	case Vertigo:
		return "vertigo"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy converts a name to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "ecmp":
		return ECMP, nil
	case "drill":
		return DRILL, nil
	case "dibs":
		return DIBS, nil
	case "vertigo":
		return Vertigo, nil
	}
	return 0, fmt.Errorf("fabric: unknown policy %q", s)
}

// Config parameterizes the fabric. Defaults mirror the paper's Table 1 and
// §4.1 settings.
type Config struct {
	Policy Policy

	// BufferBytes is the per-port buffer capacity (paper: 300 KB).
	BufferBytes units.ByteSize
	// ECNThreshold marks CE when a queue holds at least this many packets at
	// enqueue time (DCTCP K; paper default 65). Zero disables marking.
	ECNThreshold int
	// MaxHops drops packets that traverse more switch hops (a TTL), bounding
	// deflection loops. Zero selects the default of 64.
	MaxHops int
	// MaxDeflections drops a packet once it has been deflected this many
	// times. For Vertigo, repeated eviction of the same large-RFS packet
	// means it keeps losing rank comparisons; dropping it promptly hands
	// recovery to the sender, whose retransmission is boosted past the
	// contention (paper §3.1.2). DIBS instead absorbs bursts by letting
	// packets circulate until the hot port drains, bounded only by MaxHops.
	// Zero selects the policy default (8 for Vertigo, unlimited otherwise);
	// negative means unlimited.
	MaxDeflections int

	// Jitter is the maximum uniform per-packet processing jitter added to
	// each transmission. Zero-jitter discrete simulation phase-locks
	// same-rate senders (one wins every queue slot of a full buffer, the
	// other loses its whole window), which real forwarding pipelines do not;
	// a sub-serialization-time jitter breaks the lock without changing
	// rates. Negative disables; zero selects the 100 ns default.
	Jitter units.Time
	// FwdChoices is Vertigo's power-of-n for forwarding (paper default 2;
	// 1 = purely random, Fig. 12's "1FW").
	FwdChoices int
	// DeflChoices is Vertigo's power-of-n for deflection (paper default 2;
	// 1 = purely random, Fig. 12's "1DEF").
	DeflChoices int
	// Scheduling enables SRPT-sorted output queues (Fig. 11a ablation).
	Scheduling bool
	// Deflection enables deflection on overflow (Fig. 11a ablation).
	Deflection bool

	// TrainLen has no effect at any value. It was the cap on packet-train
	// coalescing, which the lazy wire (see Port) replaced; the field stays
	// only because the frozen benchmark/ package still assigns it, and the
	// next benchmark PR removes both.
	TrainLen int
}

// DefaultConfig returns the paper's default fabric settings for a policy.
func DefaultConfig(p Policy) Config {
	cfg := Config{
		Policy:       p,
		BufferBytes:  300 * units.KB,
		ECNThreshold: 65,
		MaxHops:      64,
		Jitter:       100 * units.Nanosecond,
		FwdChoices:   2,
		DeflChoices:  2,
		Scheduling:   true,
		Deflection:   true,
	}
	if p == Vertigo {
		cfg.MaxDeflections = 8
	}
	return cfg
}

// Receiver consumes packets delivered to a host NIC.
type Receiver interface {
	Receive(p *packet.Packet)
}

// Observer receives dataplane events for telemetry (§5: utilization, queue
// occupancy, deflections and drops are what lets monitoring distinguish
// microbursts from persistent congestion once deflection hides drops).
// Switch -1 denotes a host NIC port. All methods are called synchronously
// on the simulator thread.
type Observer interface {
	// Enqueue fires after a packet is queued; occ is the queue occupancy
	// including the packet.
	Enqueue(sw, port int, p *packet.Packet, occ units.ByteSize)
	// Transmit fires when a packet starts serializing; busy is the
	// serialization time and occ the occupancy after dequeue.
	Transmit(sw, port int, p *packet.Packet, busy units.Time, occ units.ByteSize)
	// Deflect fires when a packet is detoured away from its preferred port.
	Deflect(sw, fromPort, toPort int, p *packet.Packet)
	// Drop fires when the fabric discards a packet.
	Drop(sw, port int, p *packet.Packet, reason metrics.DropReason)
	// Deliver fires when a packet reaches its destination host.
	Deliver(host int, p *packet.Packet)
	// Fault fires when fault injection changes the fabric: a carrier loss
	// or recovery, a switch failure, a bit-error or rate change, a FIB heal.
	Fault(ev telemetry.FaultEvent)
}

// Network instantiates a topology: one Switch per topology switch, one
// egress Port per switch port, and one NIC egress Port per host.
type Network struct {
	Eng  *sim.Engine
	Topo *topo.Topology
	Met  *metrics.Collector
	Cfg  Config

	switches []*Switch
	// ports is every egress port of the network in one slab: each switch's
	// ports in switch order (Switch.ports is its window), then the host NICs
	// (nics). A port's index here is what its events carry, through the two
	// handlers below, in place of two closures a port.
	ports    []Port
	cold     []portCold     // what ports[i] reads off the per-packet path, by the same index
	nics     []Port         // host egress toward its ToR, by host ID
	arrFn    sim.ArgHandler // arrival event of ports[arg]
	hostRecv []Receiver     // host ingress handlers
	obs      []Observer     // attached telemetry probes, in attachment order
	pool     *packet.Pool   // per-simulation packet free list

	// Shared arenas for the ports' arrays — in-flight FIFOs (inf) and queues
	// (qmem): the first array of each is carved from a chunk that serves many
	// ports, and a port whose wire drains empty returns an oversized backing
	// array instead of pinning it, so a large fabric's memory tracks
	// concurrent occupancy, not the historical worst burst of every port, and
	// its allocations do not track the port count.
	inf  arena.Pool[wireSeg]
	qmem buffer.Mem

	// Ext is the per-simulation state of the layer above, which the fabric
	// carries and never reads: hosts are built one by one against their
	// Network, and what they share (the host package's flow directory) hangs
	// here.
	Ext any

	// Live forwarding state, mutable by fault injection (see fault methods
	// below): the FIB consulted by every switch (initially Topo.FIB, swapped
	// by control-plane healing), per-switch health, and per-link carrier-loss
	// bookkeeping for time-to-recover accounting.
	fib           *topo.FIB
	swDown        []bool
	linkDownSince []units.Time // -1 while a link is up

	// Replay accounting (see TrainStats).
	replays, replayedPops uint64
}

// TrainStats counts the lazy wire's replays under the names the frozen
// benchmark/ package reads (the next benchmark PR renames them): Trains is
// the number of replays that popped at least one packet, Segments the pops
// performed by replay rather than inside the real event that found the wire
// idle, and Invalidated is always zero — a replay is computed after the fact,
// so there is nothing to invalidate.
type TrainStats struct {
	Trains      uint64 `json:"trains"`
	Segments    uint64 `json:"segments"`
	Invalidated uint64 `json:"invalidated"`
}

// TrainStats returns the replay counters for instrumentation and tests.
func (n *Network) TrainStats() TrainStats {
	return TrainStats{Trains: n.replays, Segments: n.replayedPops}
}

// SettleAll replays, on every port, the pops due by now. No result depends
// on it — a port replays the same pops at its next touch — so it is for
// readers that look at state without touching the ports: a sampler before
// its snapshot (see AddObserver), a run's end before the totals are read.
func (n *Network) SettleAll() {
	now := n.Eng.Now()
	for i := range n.ports {
		n.ports[i].sync(now)
	}
}

// Pool returns the network's packet free list. Transports allocate packets
// from it and the fabric returns dropped packets to it, so the per-segment
// data/ACK churn recycles instead of allocating. Nil-safe: a nil Network
// yields a nil Pool, which degrades to plain allocation.
func (n *Network) Pool() *packet.Pool {
	if n == nil {
		return nil
	}
	return n.pool
}

// AddObserver attaches one more telemetry probe after any already attached;
// every dataplane and fault event fans out to the probes in attachment
// order. A probe that asks for a settler (a SetSettler method, see
// telemetry.Sampler) gets SettleAll. With no probe attached each event costs
// one empty-slice check and no allocation. Nil is a no-op.
func (n *Network) AddObserver(o Observer) {
	if o == nil {
		return
	}
	if s, ok := o.(interface{ SetSettler(settle func()) }); ok {
		s.SetSettler(n.SettleAll)
	}
	n.obs = append(n.obs, o)
}

// Observers returns the attached probes in attachment order.
func (n *Network) Observers() []Observer { return n.obs }

// New builds the runtime network for t.
func New(eng *sim.Engine, t *topo.Topology, met *metrics.Collector, cfg Config) *Network {
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = 64
	}
	switch {
	case cfg.MaxDeflections < 0:
		cfg.MaxDeflections = int(^uint(0) >> 1) // unlimited
	case cfg.MaxDeflections == 0:
		if cfg.Policy == Vertigo {
			cfg.MaxDeflections = 8
		} else {
			cfg.MaxDeflections = int(^uint(0) >> 1)
		}
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 100 * units.Nanosecond
	} else if cfg.Jitter < 0 {
		cfg.Jitter = 0
	}
	if cfg.FwdChoices <= 0 {
		cfg.FwdChoices = 2
	}
	if cfg.DeflChoices <= 0 {
		cfg.DeflChoices = 2
	}
	n := &Network{
		Eng:           eng,
		Topo:          t,
		Met:           met,
		Cfg:           cfg,
		hostRecv:      make([]Receiver, t.NumHosts),
		pool:          &packet.Pool{},
		fib:           t.FIB,
		swDown:        make([]bool, t.NumSwitches),
		linkDownSince: make([]units.Time, len(t.Links)),
	}
	for i := range n.linkDownSince {
		n.linkDownSince[i] = -1
	}
	n.arrFn = func(i uint64) { n.ports[i].arrive() }

	// One slab for every port: a k=32 fat-tree has ~41k switch ports, and
	// per-port (or per-switch) allocations both fragment the heap and scatter
	// the hot per-port wire state. Port's size is a multiple of 64 and the
	// allocator hands out arrays past its 32 KiB size classes — a hundred
	// ports — page-aligned, so in a fabric too big for the cache no port
	// straddles a cache line it does not own.
	n.switches = make([]*Switch, t.NumSwitches)
	nSwitchPorts := 0
	// Every random draw of the fabric is positional: a switch's policy
	// stream (selector disjoint from portIdent — port indexes never reach
	// 1<<31), a port's jitter and bit-error streams below, each seeded from
	// the engine seed and the element's identity, so the k-th draw of a port is
	// pinned by (seed, port, k) alone — what lets a pop be replayed after the
	// fact — and none touches the engine's stream, the workload generators'.
	seed := xrand.Mix(uint64(eng.Seed()))
	for sw := range n.switches {
		n.switches[sw] = &Switch{net: n, id: sw}
		n.switches[sw].rng = xrand.New(seed ^ xrand.Mix(uint64(uint32(sw+1))<<32|1<<31))
		nSwitchPorts += t.Ports(sw)
	}
	n.ports = make([]Port, nSwitchPorts+t.NumHosts)
	n.cold = make([]portCold, len(n.ports))
	n.nics = n.ports[nSwitchPorts:]
	slot := 0
	add := func(sw, idx int, link topo.Link, sorted bool, capacity units.ByteSize) *Port {
		pt := &n.ports[slot]
		pt.net, pt.slot, pt.sw, pt.idx = n, uint32(slot), int32(sw), int32(idx)
		pt.qs.Init(capacity, &n.qmem)
		pt.isSorted = sorted
		pt.rate, pt.delay = link.Rate, link.Delay
		pt.rng = xrand.New(seed ^ xrand.Mix(portIdent(sw, idx)))
		n.cold[slot] = portCold{rate0: link.Rate, berRNG: xrand.New(seed ^ xrand.Mix(portIdent(sw, idx)^berSalt))}
		slot++
		return pt
	}
	sorted := cfg.Policy == Vertigo && cfg.Scheduling
	for sw, s := range n.switches {
		end := slot + t.Ports(sw)
		s.ports = n.ports[slot:end:end]
		for p, peer := range t.PortPeer[sw] {
			pt := add(sw, p, t.Links[t.PortLink[sw][p]], sorted, cfg.BufferBytes)
			pt.peerID = int32(peer.Node)
			if !peer.Host {
				pt.peer = n.switches[peer.Node]
			}
		}
	}
	// Host NICs: effectively unbounded egress FIFO; transports self-limit.
	for h := 0; h < t.NumHosts; h++ {
		pt := add(-1, h, t.Links[t.HostLink[h]], false, 1<<30)
		pt.peerID = int32(t.HostToR[h])
		pt.peer = n.switches[pt.peerID]
	}
	return n
}

// portIdent packs a port's identity into a unique 64-bit stream selector.
// Host NICs carry sw == -1, so switch IDs are offset by one.
func portIdent(sw, idx int) uint64 {
	return uint64(uint32(sw+1))<<32 | uint64(uint32(idx))
}

// berSalt separates a port's bit-error stream from its jitter stream.
const berSalt = 0x9e3779b97f4a7c15

// RegisterHost installs the receive handler for host h.
func (n *Network) RegisterHost(h int, r Receiver) { n.hostRecv[h] = r }

// Send injects a packet from its source host's NIC.
func (n *Network) Send(p *packet.Packet) {
	nic := &n.nics[p.Src]
	nic.sync(n.Eng.Now())
	nic.push(p)
	n.Met.QueueDepth.Observe(int64(nic.qs.Bytes()))
	for _, o := range n.obs {
		o.Enqueue(int(nic.sw), int(nic.idx), p, nic.qs.Bytes())
	}
	nic.maybeSend()
}

// Switch returns the runtime switch with the given ID (for tests and
// instrumentation).
func (n *Network) Switch(id int) *Switch { return n.switches[id] }

// SetLinkState applies a carrier transition to topology link li now: up false
// fails both directions, up true restores them. Unless a control-plane healer
// later installs recomputed routes (InstallFIB), FIBs keep pointing at a dead
// link, modelling the window between carrier loss and control-plane repair
// during which only in-dataplane reactions (deflection) can rescue traffic.
// Switches see carrier loss instantly, so the forwarding policies treat a dead
// port exactly like a full queue. Transitions are idempotent — failing a dead
// link or restoring a live one is a no-op. Like every fault setter below it
// must only be called from the simulator thread (an engine event; a
// faults.Schedule is the validated way to time one) and panics on an
// out-of-range index.
func (n *Network) SetLinkState(li int, up bool) {
	n.setLinkState(li, up)
	kind := telemetry.FaultLinkDown
	if up {
		kind = telemetry.FaultLinkUp
	}
	n.emitFault(telemetry.FaultEvent{Time: n.Eng.Now(), Kind: kind, Link: li, Switch: -1})
}

// setLinkState flips both ports of link li without emitting a fault event
// (switch-level transitions reuse it per attached link).
func (n *Network) setLinkState(li int, up bool) {
	for _, pt := range n.linkPorts(li) {
		pt.sync(n.Eng.Now())
		switch {
		case up && pt.down:
			pt.down = false
			pt.wasDown = true
			pt.maybeSend() // resume draining anything queued since recovery
		case !up && !pt.down:
			pt.down = true
			pt.maybeSend() // flush the queue into the void
		}
	}
	now := n.Eng.Now()
	if up {
		if since := n.linkDownSince[li]; since >= 0 {
			n.Met.Recovered(now - since)
			n.linkDownSince[li] = -1
		}
	} else if n.linkDownSince[li] < 0 {
		n.linkDownSince[li] = now
	}
}

// SetSwitchState applies a whole-switch failure (up false: every attached
// link loses carrier and arriving packets are discarded) or recovery (up
// true) now. Recovery restores every attached link; compose link and switch
// faults on disjoint links, as overlapping transitions are last-write-wins.
func (n *Network) SetSwitchState(sw int, up bool) {
	n.swDown[sw] = !up
	for _, li := range n.Topo.PortLink[sw] {
		n.setLinkState(li, up)
	}
	kind := telemetry.FaultSwitchDown
	if up {
		kind = telemetry.FaultSwitchUp
	}
	n.emitFault(telemetry.FaultEvent{Time: n.Eng.Now(), Kind: kind, Link: -1, Switch: sw})
}

// SetLinkBER sets link li's bit-error rate now: each packet serialized onto
// the link is thereafter corrupted (dropped with DropCorrupt, still occupying
// the wire) with probability ber. Zero clears the fault.
func (n *Network) SetLinkBER(li int, ber float64) {
	for _, pt := range n.linkPorts(li) {
		pt.sync(n.Eng.Now())
		pt.cold().ber, pt.hasBER = ber, ber > 0
	}
	n.emitFault(telemetry.FaultEvent{
		Time: n.Eng.Now(), Kind: telemetry.FaultCorrupt, Link: li, Switch: -1, Value: ber,
	})
}

// SetLinkRateFactor applies a rate brownout now: link li serializes at factor
// times its configured rate. Factor 1 restores full speed; values above 1
// model an upgrade.
func (n *Network) SetLinkRateFactor(li int, factor float64) {
	for _, pt := range n.linkPorts(li) {
		pt.sync(n.Eng.Now())
		pt.rate = units.BitRate(float64(pt.cold().rate0) * factor)
		if pt.rate < 1 {
			pt.rate = 1
		}
	}
	n.emitFault(telemetry.FaultEvent{
		Time: n.Eng.Now(), Kind: telemetry.FaultDegrade, Link: li, Switch: -1, Value: factor,
	})
}

// InstallFIB swaps the forwarding tables every switch consults — the
// control-plane healing step: a healer computes Topo.FIBExcluding(dead) after
// its convergence delay and installs it here, restoring reachability that
// pure dataplane reactions could only approximate. Must run on the simulator
// thread (schedule via the engine).
func (n *Network) InstallFIB(fib *topo.FIB) {
	n.fib = fib
	n.Met.FIBInstalls++
	n.emitFault(telemetry.FaultEvent{
		Time: n.Eng.Now(), Kind: telemetry.FaultFIBHeal, Link: -1, Switch: -1,
	})
}

// FIB returns the forwarding tables currently installed (for tests and
// instrumentation).
func (n *Network) FIB() *topo.FIB { return n.fib }

// LinkDown reports whether link li currently has no carrier.
func (n *Network) LinkDown(li int) bool {
	return li >= 0 && li < len(n.linkDownSince) && n.linkDownSince[li] >= 0
}

// SwitchDown reports whether switch sw is currently failed.
func (n *Network) SwitchDown(sw int) bool {
	return sw >= 0 && sw < len(n.swDown) && n.swDown[sw]
}

// linkPorts returns the egress ports driving the two directions of link li.
func (n *Network) linkPorts(li int) [2]*Port {
	l := n.Topo.Links[li]
	get := func(e topo.Endpoint) *Port {
		if e.Host {
			return &n.nics[e.Node]
		}
		return &n.switches[e.Node].ports[e.Port]
	}
	return [2]*Port{get(l.A), get(l.B)}
}

// emitFault accounts a fault transition and fans it out to the probes.
func (n *Network) emitFault(ev telemetry.FaultEvent) {
	n.Met.FaultEvents++
	n.Eng.Flight().Record(obs.FlightFault, int64(ev.Time), int64(ev.Kind), int64(ev.Link), int64(ev.Switch))
	for _, o := range n.obs {
		o.Fault(ev)
	}
}

func (n *Network) deliverToHost(h int, p *packet.Packet) {
	if h != p.Dst {
		// A deflected packet can only reach a foreign host if it was
		// deflected into a host-facing port, which the policies avoid; a
		// misdelivery here is a routing bug, not a simulation outcome.
		panic(fmt.Sprintf("fabric: packet for host %d delivered to host %d", p.Dst, h))
	}
	for _, o := range n.obs {
		o.Deliver(h, p)
	}
	if r := n.hostRecv[h]; r != nil {
		r.Receive(p)
	}
}

func (n *Network) drop(sw, port int, p *packet.Packet, reason metrics.DropReason) {
	if p.Kind == packet.Data {
		n.Met.Drop(reason)
	}
	n.Eng.Flight().Record(obs.FlightDrop, int64(n.Eng.AsOf()), int64(reason), int64(sw), int64(port))
	for _, o := range n.obs {
		o.Drop(sw, port, p, reason)
	}
	// The fabric holds the last reference to a dropped packet.
	n.pool.Put(p)
}

// Port is one egress queue with an attached link. Transmission is
// store-and-forward: a popped packet occupies the link for its
// serialization time, then arrives at the peer after the propagation delay.
//
// The wire is lazy: a port has no transmit event. An egress port is a
// work-conserving single server, so its departure instants are a function of
// its arrivals alone, and its queue changes only when something touches the
// port. sync therefore replays, at each touch, the pops that came due since
// the last one — each performed as of the instant the wire went free — and
// every touch calls it first: an enqueue, a policy's occupancy probe, a fault
// method, the port's own arrival event.
//
// Invariant: after a touch at t either the queue is empty or busyUntil > t,
// so whatever sync later finds queued was already queued at busyUntil and the
// replay is exact. Tie rule: a departure due at instant T happens before
// anything else at T (sync compares with <=). That is well defined because a
// pop at T causes nothing at T — serialization and propagation both take
// time.
//
// Wake-up: while the wire is busy its frame is in flight, and that frame's
// arrival — the end of the port's arrival chain, due after busyUntil since
// propagation takes time — is a touch that replays the next pop before that
// pop's own arrival has to be scheduled. A corrupted frame keeps its place
// in the chain (the far end discards it on arrival), so no port needs an
// event of its own.
type Port struct {
	net *Network
	// qs is the port's queue, the queue's header kept by value: rank-sorted
	// when isSorted, else the FIFO a SortedQueue embeds (see push and pop).
	// Len, Bytes and Fits are that FIFO's under either discipline, so the
	// paths every probe takes read them from qs, without dispatch.
	qs buffer.SortedQueue

	// busyUntil is when the last started serialization ends; the wire is
	// idle iff now >= busyUntil.
	busyUntil units.Time

	// In-flight packets riding the link, delivered strictly FIFO by one
	// self-rescheduling arrival event, to the far end: switch peer, or host
	// peerID when peer is nil. A corrupted frame rides as a nil packet.
	inflight []wireSeg
	infHead  int
	peer     *Switch

	rate  units.BitRate // current rate (degraded during brownouts)
	delay units.Time

	// The port's private positional jitter stream: draw k is a pure function
	// of (engine seed, port identity, k), so a replayed pop draws what it
	// would have drawn on time.
	rng xrand.Source

	slot    uint32 // index in net.ports and net.cold: the argument of this port's events
	sw, idx int32  // switch ID and port index (-1/hostID for host NICs)
	peerID  int32  // far end: a switch ID, or a host ID when peer is nil

	isSorted bool // qs is rank-sorted, not drop-tail
	down     bool // link failed: no carrier
	wasDown  bool // carrier was lost and later restored at least once
	arrArmed bool // the arrival event of the in-flight head is pending
	hasBER   bool // cold().ber > 0: transmissions draw from the bit-error stream

	_ [11]byte // to three cache lines, see Network.ports
}

// portCold is the part of a port no unfaulted run reads after set-up, kept
// out of the slab the per-packet path walks: Network.cold[i] belongs to
// Network.ports[i].
type portCold struct {
	// ber is the bit-error corruption probability per transmitted packet,
	// berRNG the port's positional stream for it (see Port.rng).
	ber    float64
	berRNG xrand.Source
	rate0  units.BitRate // configured rate, restored by factor-1 transitions
}

func (pt *Port) cold() *portCold { return &pt.net.cold[pt.slot] }

// corrupts draws whether the frame now being serialized is corrupted.
func (pt *Port) corrupts() bool {
	c := pt.cold()
	return c.berRNG.Float64() < c.ber
}

// push enqueues p under the port's discipline if it fits.
func (pt *Port) push(p *packet.Packet) bool {
	if pt.isSorted {
		return pt.qs.Push(p)
	}
	return pt.qs.FIFO().Push(p)
}

// pop dequeues the next packet to transmit, or nil.
func (pt *Port) pop() *packet.Packet {
	if pt.isSorted {
		return pt.qs.Pop()
	}
	return pt.qs.FIFO().Pop()
}

// wireSeg is one in-flight packet and its exact wire arrival time.
type wireSeg struct {
	p  *packet.Packet
	at units.Time
}

// arrive is the port's arrival event: deliver the due in-flight packet to
// the far end. It is also the busy wire's wake-up — the pops due by now are
// replayed first, so the next arrival it schedules is the right one.
func (pt *Port) arrive() {
	pt.sync(pt.net.Eng.Now())
	pt.arrArmed = false
	p := pt.inflight[pt.infHead].p
	pt.inflight[pt.infHead].p = nil
	pt.infHead++
	// Reclaim the consumed prefix so a continuously busy link cannot
	// grow the slice without bound, nor one carrying a frame or two double
	// it lap after lap (only a handful of packets fit in one propagation
	// delay, so the copy is tiny).
	if pt.infHead == len(pt.inflight) {
		pt.releaseInflight()
	} else if pt.infHead > 4 && pt.infHead*2 >= len(pt.inflight) {
		pt.inflight = append(pt.inflight[:0], pt.inflight[pt.infHead:]...)
		pt.infHead = 0
	}
	pt.rearmArrive()
	switch {
	case p == nil: // corrupted on the wire, already accounted as dropped
	case pt.peer != nil:
		pt.peer.Receive(p)
	default:
		pt.net.deliverToHost(int(pt.peerID), p)
	}
}

// Queue exposes the port's queue, settled to the current instant so
// policies and tests read exact occupancy.
func (pt *Port) Queue() buffer.Queue {
	pt.sync(pt.net.Eng.Now())
	if pt.isSorted {
		return &pt.qs
	}
	return pt.qs.FIFO()
}

// occBytes returns the queue occupancy an external observer must see: the
// pops due by now replayed first.
func (pt *Port) occBytes() units.ByteSize {
	pt.sync(pt.net.Eng.Now())
	return pt.qs.Bytes()
}

// fitsNow reports whether n more bytes fit, after settling to now.
func (pt *Port) fitsNow(n units.ByteSize) bool {
	pt.sync(pt.net.Eng.Now())
	return pt.qs.Fits(n)
}

// sync replays the pops due by now: while the wire went free at or before
// now with a packet waiting, that packet left at the instant the wire went
// free (see Port for why this is exact, and for the tie rule in <=). Only two
// callers of rearmArrive ever find work — arrive, for the next frame of a
// busy period, and the real event whose pop started the busy period; a
// replayed pop finds the arrival of the frame before it still pending — so
// when a replay happens cannot move an arrival's sequence number.
func (pt *Port) sync(now units.Time) {
	if pt.busyUntil > now || pt.qs.Len() == 0 || pt.down {
		return
	}
	eng := pt.net.Eng
	for pt.busyUntil <= now && pt.qs.Len() > 0 {
		// Observers and the flight recorder stamp the pop with its own instant.
		eng.SetAsOf(pt.busyUntil)
		pt.sendOne(pt.busyUntil)
		pt.net.replayedPops++
	}
	eng.ClearAsOf()
	pt.net.replays++
}

// keepInflight is the largest in-flight FIFO capacity a drained port keeps;
// a burst-grown backing array past it returns to the network's shared arena.
const keepInflight = 64

// pushInflight appends a popped packet to the in-flight FIFO, growing it
// through the network's shared arena.
func (pt *Port) pushInflight(p *packet.Packet, at units.Time) {
	if len(pt.inflight) == cap(pt.inflight) {
		pt.inflight = pt.net.inf.Grow(pt.inflight, 8)
	}
	pt.inflight = append(pt.inflight, wireSeg{p, at})
}

// releaseInflight resets a fully drained FIFO — the port-quiesce moment —
// returning a burst-grown backing array to the shared arena.
func (pt *Port) releaseInflight() {
	if cap(pt.inflight) > keepInflight {
		pt.net.inf.Put(pt.inflight)
		pt.inflight = nil
	} else {
		pt.inflight = pt.inflight[:0]
	}
	pt.infHead = 0
}

// rearmArrive schedules the arrival event of the in-flight head. No-op when
// it is already pending or nothing is in flight.
func (pt *Port) rearmArrive() {
	if pt.arrArmed || pt.infHead >= len(pt.inflight) {
		return
	}
	pt.arrArmed = true
	pt.net.Eng.SchedArg(pt.inflight[pt.infHead].at, pt.net.arrFn, uint64(pt.slot))
}

// maybeSend puts an idle wire to work. Callers must have settled the port to
// now (enqueue and the fault methods all do) and then changed its queue or
// its carrier.
func (pt *Port) maybeSend() {
	now := pt.net.Eng.Now()
	if pt.down {
		// No carrier: anything queued is lost, as on a real unplugged cable.
		for p := pt.pop(); p != nil; p = pt.pop() {
			pt.net.drop(int(pt.sw), int(pt.idx), p, metrics.DropLinkDown)
		}
		return
	}
	if now >= pt.busyUntil && pt.qs.Len() > 0 {
		pt.sendOne(now)
	}
}

// sendOne pops the head of the queue onto the wire at instant at: now, or
// the earlier instant a replayed pop was due.
func (pt *Port) sendOne(at units.Time) {
	p := pt.pop()
	if pt.wasDown && p.Kind == packet.Data {
		pt.net.Met.PostRecoveryTx++
	}
	tx := pt.rate.TxTime(p.Size())
	if j := int64(pt.net.Cfg.Jitter); j > 0 {
		tx += units.Time(pt.rng.Int63n(j + 1))
	}
	for _, o := range pt.net.obs {
		o.Transmit(int(pt.sw), int(pt.idx), p, tx, pt.qs.Bytes())
	}
	end := at + tx
	pt.busyUntil = end
	if pt.hasBER && pt.corrupts() {
		// Bit-error corruption: the bits occupy the wire for the full
		// serialization time and reach the far end, which discards the frame
		// on checksum. It is dropped here and rides on as nothing, so the
		// arrival chain — the wake-up of the pops behind it — stays whole.
		pt.net.drop(int(pt.sw), int(pt.idx), p, metrics.DropCorrupt)
		p = nil
	}
	pt.pushInflight(p, end+pt.delay)
	pt.rearmArrive()
}

// Switch is an output-queued switch running one forwarding policy.
type Switch struct {
	net   *Network
	id    int
	ports []Port // the switch's window of net.ports

	// DRILL memory: per candidate-group, the least-loaded port last seen.
	// A flowtab keeps the per-packet lookup off Go's map runtime; there are
	// only a handful of candidate groups per switch, so the last-hit cache
	// makes the common repeated lookup two loads. Empty, and nothing but
	// its header, under any other policy.
	drillMem flowtab.Table[int32]

	// deflScratch backs deflectionSet, rebuilt on every call; victimOne
	// backs the single-victim overflow case; victims and evicted back the
	// lists ForceInsert returns — two, because overflowVictims' list is
	// still being ranged over while deflectVertigo force-inserts a victim
	// elsewhere. All avoid a per-packet allocation on the deflection paths.
	deflScratch      []int
	victimOne        [1]*packet.Packet
	victims, evicted []*packet.Packet

	// rng is the switch's positional policy stream (see Switch.intn): random
	// routing decisions depend on the seed, the switch and the draw's index,
	// not on how events interleave across switches.
	rng xrand.Source
}

// ID returns the switch's topology ID.
func (s *Switch) ID() int { return s.id }

// Port returns the egress port with the given index.
func (s *Switch) Port(i int) *Port { return &s.ports[i] }

// Receive processes an arriving packet: TTL check, route, enqueue. A failed
// switch discards everything that was already on the wire toward it.
func (s *Switch) Receive(p *packet.Packet) {
	if s.net.swDown[s.id] {
		s.net.drop(s.id, -1, p, metrics.DropLinkDown)
		return
	}
	p.Hops++
	if p.Hops > s.net.Cfg.MaxHops {
		s.net.drop(s.id, -1, p, metrics.DropTTL)
		return
	}
	switch s.net.Cfg.Policy {
	case ECMP:
		s.routeECMP(p)
	case DRILL:
		s.routeDRILL(p)
	case DIBS:
		s.routeDIBS(p)
	case Vertigo:
		s.routeVertigo(p)
	}
}

// enqueue pushes p on port i with ECN marking; reports success. A port
// whose link is down behaves like a full queue, so deflection-capable
// policies route around failures in place.
func (s *Switch) enqueue(i int, p *packet.Packet) bool {
	port := &s.ports[i]
	if port.down {
		return false
	}
	port.sync(s.net.Eng.Now())
	if !port.push(p) {
		return false
	}
	s.net.Met.QueueDepth.Observe(int64(port.qs.Bytes()))
	s.markECN(port, p)
	for _, o := range s.net.obs {
		o.Enqueue(s.id, i, p, port.qs.Bytes())
	}
	port.maybeSend()
	return true
}

func (s *Switch) markECN(port *Port, p *packet.Packet) {
	k := s.net.Cfg.ECNThreshold
	if k > 0 && p.ECNCapable && port.qs.Len() >= k {
		p.CE = true
		s.net.Met.ECNMarks++
	}
}

// deflected accounts p's detour from port from to port to and tells the
// probes; the caller then enqueues it at to.
func (s *Switch) deflected(from, to int, p *packet.Packet) {
	p.Deflections++
	s.net.Met.Deflections++
	for _, o := range s.net.obs {
		o.Deflect(s.id, from, to, p)
	}
}

// candidates returns the live FIB next-hop ports for p's destination (the
// network's installed table, which control-plane healing may have swapped).
func (s *Switch) candidates(p *packet.Packet) []int {
	return s.net.fib.NextHops(s.id, p.Dst)
}
