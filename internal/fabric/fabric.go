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

	// TrainLen caps how many back-to-back segments a port may serialize
	// under a single transmit event (a packet train). Coalescing changes
	// event granularity only — per-packet departure and arrival times, drop
	// decisions and queue occupancy readings are bit-identical to the
	// per-packet engine — so any value here alters performance, never
	// results. Values below 2 disable coalescing; trains also stand down
	// automatically whenever exactness cannot be proven: while a telemetry
	// observer is attached (per-packet Transmit callbacks need exact
	// now-stamps) and as soon as any fault is injected (carrier loss, BER,
	// brownouts can interleave with a planned train).
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
		TrainLen:     64,
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
	nics     []Port         // host egress toward its ToR, by host ID
	txFn     sim.ArgHandler // transmit event of ports[arg]
	arrFn    sim.ArgHandler // arrival event of ports[arg]
	hostRecv []Receiver     // host ingress handlers
	obs      Observer       // optional telemetry observer
	pool     *packet.Pool   // per-simulation packet free list

	// Shared arena for burst-grown in-flight FIFOs: a port whose wire
	// drains empty returns an oversized backing array here instead of pinning
	// it, so a large fabric's memory tracks concurrent wire occupancy, not
	// the historical worst burst of every port.
	inf arena.Pool[wireSeg]

	// Live forwarding state, mutable by fault injection (see fault methods
	// below): the FIB consulted by every switch (initially Topo.FIB, swapped
	// by control-plane healing), per-switch health, and per-link carrier-loss
	// bookkeeping for time-to-recover accounting.
	fib           *topo.FIB
	swDown        []bool
	linkDownSince []units.Time // -1 while a link is up

	// faultsSeen latches true at the first fault injection (scheduled or
	// immediate) and permanently stands packet trains down: a fault can
	// retime or destroy a link mid-train, and proving exactness across every
	// such interleaving is not worth the complexity for runs that are fault
	// experiments anyway.
	faultsSeen bool

	// Train accounting (see TrainStats).
	trainsPlanned uint64
	trainSegs     uint64
	trainInvals   uint64

	// Per-packet registry signals not yet published (see publishObs).
	queueDepth obs.HistBatch
	ecnMarks   uint64

	// Sharded execution (nil when serial — see shard.go): the domain
	// context this replica runs under, and the inbox delivering packets
	// injected from other domains.
	shard *ShardCtx
	inbox crossInbox
}

// TrainStats reports packet-train coalescing activity: how many trains were
// planned, how many segments rode them, and how many plans were invalidated
// (a competing higher-priority enqueue or queue rewrite forced a replan).
type TrainStats struct {
	Trains      uint64 `json:"trains"`
	Segments    uint64 `json:"segments"`
	Invalidated uint64 `json:"invalidated"`
}

// TrainStats returns coalescing counters for instrumentation and tests.
func (n *Network) TrainStats() TrainStats {
	return TrainStats{Trains: n.trainsPlanned, Segments: n.trainSegs, Invalidated: n.trainInvals}
}

// trainsOK reports whether new packet trains may form right now. Checked at
// plan time so mid-run observer attachment or fault injection takes effect
// immediately.
func (n *Network) trainsOK() bool {
	return n.Cfg.TrainLen > 1 && n.obs == nil && !n.faultsSeen
}

// settleAll commits and abandons every port's pending train plan, restoring
// plain per-packet state. Called before any transition that breaks the
// conditions plans were built under (observer attachment, fault injection).
func (n *Network) settleAll() {
	now := n.Eng.Now()
	for i := range n.ports {
		pt := &n.ports[i]
		pt.sync(now)
		pt.invalidate()
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

// SetObserver installs o as the only telemetry observer, detaching any
// already attached (nil to disable). Use AddObserver to attach several.
func (n *Network) SetObserver(o Observer) {
	n.settleAll()
	n.obs = o
}

// AddObserver attaches one more telemetry probe alongside any already
// attached, fanning events out through a telemetry.Multi once more than one
// is present. The no-observer fast path stays a single nil check — and zero
// allocations — on every dataplane event; the mux allocates only here, at
// attach time. Nil is a no-op.
func (n *Network) AddObserver(o Observer) {
	if o != nil {
		n.settleAll()
	}
	switch {
	case o == nil:
	case n.obs == nil:
		n.obs = o
	default:
		if m, ok := n.obs.(*telemetry.Multi); ok {
			m.Add(o)
		} else {
			n.obs = telemetry.NewMulti(n.obs, o)
		}
	}
}

// Observer returns the attached observer (a *telemetry.Multi when several
// probes are attached), or nil.
func (n *Network) Observer() Observer { return n.obs }

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
	if cfg.TrainLen < 2 {
		cfg.TrainLen = 0
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
	eng.OnPublish(n.publishObs)
	n.txFn = func(i uint64) { n.ports[i].transmit() }
	n.arrFn = func(i uint64) { n.ports[i].arrive() }

	// One slab for every port: a k=32 fat-tree has ~41k switch ports, and
	// per-port (or per-switch) allocations both fragment the heap and scatter
	// the hot per-port wire state. Port's size is a multiple of 64 and the
	// allocator hands out arrays of such sizes 64-byte aligned, so no port
	// straddles a cache line it does not own.
	n.switches = make([]*Switch, t.NumSwitches)
	nSwitchPorts := 0
	for sw := range n.switches {
		n.switches[sw] = &Switch{net: n, id: sw, drillMem: flowtab.New[int32](8)}
		nSwitchPorts += t.Ports(sw)
	}
	n.ports = make([]Port, nSwitchPorts+t.NumHosts)
	n.nics = n.ports[nSwitchPorts:]
	// Seed each port's private positional jitter stream from the engine seed
	// and the port's identity. Per-port streams are what let train planning
	// batch jitter draws without perturbing any other consumer of randomness:
	// the k-th draw of a port is pinned by (seed, port, k) alone.
	seed := xrand.Mix(uint64(eng.Seed()))
	slot := 0
	add := func(sw, idx int, link topo.Link, sorted bool, capacity units.ByteSize) *Port {
		pt := &n.ports[slot]
		pt.net, pt.slot, pt.sw, pt.idx = n, uint32(slot), sw, idx
		slot++
		if sorted {
			pt.qs.Init(capacity)
			pt.q, pt.sorted = &pt.qs, &pt.qs
		} else {
			pt.q = pt.qs.InitDropTail(capacity)
		}
		pt.rate, pt.rate0, pt.delay = link.Rate, link.Rate, link.Delay
		pt.rng = xrand.New(seed ^ xrand.Mix(portIdent(sw, idx)))
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

// RegisterHost installs the receive handler for host h.
func (n *Network) RegisterHost(h int, r Receiver) { n.hostRecv[h] = r }

// Send injects a packet from its source host's NIC.
func (n *Network) Send(p *packet.Packet) {
	nic := &n.nics[p.Src]
	nic.sync(n.Eng.Now())
	nic.q.Push(p)
	n.queueDepth.Observe(int64(nic.q.Bytes()))
	if n.obs != nil {
		n.obs.Enqueue(nic.sw, nic.idx, p, nic.q.Bytes())
	}
	nic.maybeSend()
}

// Switch returns the runtime switch with the given ID (for tests and
// instrumentation).
func (n *Network) Switch(id int) *Switch { return n.switches[id] }

// FailLinkAt schedules both directions of topology link li to fail at time
// at. Unless a control-plane healer later installs recomputed routes
// (InstallFIB), FIBs keep pointing at the dead link, modelling the window
// between carrier loss and control-plane repair during which only
// in-dataplane reactions (deflection) can rescue traffic. Switches see
// carrier loss instantly, so the forwarding policies treat a dead port
// exactly like a full queue. The failure is permanent unless a matching
// SetLinkStateAt(li, t, true) restores carrier.
func (n *Network) FailLinkAt(li int, at units.Time) error {
	return n.SetLinkStateAt(li, at, false)
}

// SetLinkStateAt schedules a carrier transition for topology link li: up
// false fails the link (both directions), up true restores it. Transitions
// are idempotent — failing a dead link or restoring a live one is a no-op —
// and same-timestamp events apply in scheduling order, so a down scheduled
// before an up at the same instant leaves the link up.
func (n *Network) SetLinkStateAt(li int, at units.Time, up bool) error {
	if err := n.checkLink(li); err != nil {
		return err
	}
	n.faultsSeen = true
	n.Eng.At(at, func() { n.SetLinkState(li, up) })
	return nil
}

// SetLinkState applies a carrier transition immediately. It must only be
// called from the simulator thread (an engine event); external callers use
// SetLinkStateAt. Panics on an out-of-range link, as scheduled callers were
// validated and direct callers are modelling bugs.
func (n *Network) SetLinkState(li int, up bool) {
	n.setLinkState(li, up)
	kind := telemetry.FaultLinkDown
	if up {
		kind = telemetry.FaultLinkUp
	}
	if n.ownsLink(li) {
		n.emitFault(telemetry.FaultEvent{Time: n.Eng.Now(), Kind: kind, Link: li, Switch: -1})
	}
}

// setLinkState flips both ports of link li without emitting a fault event
// (switch-level transitions reuse it per attached link).
func (n *Network) setLinkState(li int, up bool) {
	n.faultsSeen = true
	for _, pt := range n.linkPorts(li) {
		pt.sync(n.Eng.Now())
		pt.invalidate()
	}
	for _, pt := range n.linkPorts(li) {
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
			// Sharded runs replicate the state flip in every domain but
			// account for it once, in the owning domain.
			if n.ownsLink(li) {
				n.Met.Recovered(now - since)
				obsTTR.Observe(int64(now - since))
			}
			n.linkDownSince[li] = -1
		}
	} else if n.linkDownSince[li] < 0 {
		n.linkDownSince[li] = now
	}
}

// SetSwitchStateAt schedules whole-switch failure (up false: every attached
// link loses carrier and arriving packets are discarded) or recovery (up
// true) at time at. Recovery restores every attached link; compose link and
// switch faults on disjoint links, as overlapping transitions are
// last-write-wins.
func (n *Network) SetSwitchStateAt(sw int, at units.Time, up bool) error {
	if sw < 0 || sw >= n.Topo.NumSwitches {
		return fmt.Errorf("fabric: switch %d out of range [0,%d)", sw, n.Topo.NumSwitches)
	}
	n.faultsSeen = true
	n.Eng.At(at, func() { n.SetSwitchState(sw, up) })
	return nil
}

// SetSwitchState applies a whole-switch transition immediately (simulator
// thread only; see SetSwitchStateAt).
func (n *Network) SetSwitchState(sw int, up bool) {
	n.swDown[sw] = !up
	for _, li := range n.Topo.PortLink[sw] {
		n.setLinkState(li, up)
	}
	kind := telemetry.FaultSwitchDown
	if up {
		kind = telemetry.FaultSwitchUp
	}
	if n.ownsSwitch(sw) {
		n.emitFault(telemetry.FaultEvent{Time: n.Eng.Now(), Kind: kind, Link: -1, Switch: sw})
	}
}

// SetLinkBERAt schedules a bit-error rate change on link li at time at: each
// packet serialized onto the link is thereafter corrupted (dropped with
// DropCorrupt, still occupying the wire) with probability ber. Zero clears
// the fault; ber must be in [0,1].
func (n *Network) SetLinkBERAt(li int, at units.Time, ber float64) error {
	if err := n.checkLink(li); err != nil {
		return err
	}
	if ber < 0 || ber > 1 {
		return fmt.Errorf("fabric: link %d bit-error rate %g outside [0,1]", li, ber)
	}
	n.faultsSeen = true
	n.Eng.At(at, func() { n.SetLinkBER(li, ber) })
	return nil
}

// SetLinkBER applies a bit-error rate change immediately (simulator thread
// only; see SetLinkBERAt).
func (n *Network) SetLinkBER(li int, ber float64) {
	n.faultsSeen = true
	for _, pt := range n.linkPorts(li) {
		pt.sync(n.Eng.Now())
		pt.invalidate()
		pt.ber = ber
	}
	if n.ownsLink(li) {
		n.emitFault(telemetry.FaultEvent{
			Time: n.Eng.Now(), Kind: telemetry.FaultCorrupt, Link: li, Switch: -1, Value: ber,
		})
	}
}

// SetLinkRateFactorAt schedules a rate brownout on link li at time at: the
// link serializes at factor times its configured rate. Factor 1 restores
// full speed; factor must be positive (values above 1 model an upgrade).
func (n *Network) SetLinkRateFactorAt(li int, at units.Time, factor float64) error {
	if err := n.checkLink(li); err != nil {
		return err
	}
	if factor <= 0 {
		return fmt.Errorf("fabric: link %d rate factor %g must be positive", li, factor)
	}
	n.faultsSeen = true
	n.Eng.At(at, func() { n.SetLinkRateFactor(li, factor) })
	return nil
}

// SetLinkRateFactor applies a rate brownout immediately (simulator thread
// only; see SetLinkRateFactorAt).
func (n *Network) SetLinkRateFactor(li int, factor float64) {
	n.faultsSeen = true
	for _, pt := range n.linkPorts(li) {
		pt.sync(n.Eng.Now())
		pt.invalidate()
		pt.rate = units.BitRate(float64(pt.rate0) * factor)
		if pt.rate < 1 {
			pt.rate = 1
		}
	}
	if n.ownsLink(li) {
		n.emitFault(telemetry.FaultEvent{
			Time: n.Eng.Now(), Kind: telemetry.FaultDegrade, Link: li, Switch: -1, Value: factor,
		})
	}
}

// InstallFIB swaps the forwarding tables every switch consults — the
// control-plane healing step: a healer computes Topo.FIBExcluding(dead) after
// its convergence delay and installs it here, restoring reachability that
// pure dataplane reactions could only approximate. Must run on the simulator
// thread (schedule via the engine).
func (n *Network) InstallFIB(fib *topo.FIB) {
	n.fib = fib
	if n.ownsControl() {
		n.Met.FIBInstalls++
		obsFIBInstalls.Inc()
		n.emitFault(telemetry.FaultEvent{
			Time: n.Eng.Now(), Kind: telemetry.FaultFIBHeal, Link: -1, Switch: -1,
		})
	}
}

// LinkDown reports whether link li currently has no carrier.
func (n *Network) LinkDown(li int) bool {
	return li >= 0 && li < len(n.linkDownSince) && n.linkDownSince[li] >= 0
}

// SwitchDown reports whether switch sw is currently failed.
func (n *Network) SwitchDown(sw int) bool {
	return sw >= 0 && sw < len(n.swDown) && n.swDown[sw]
}

func (n *Network) checkLink(li int) error {
	if li < 0 || li >= len(n.Topo.Links) {
		return fmt.Errorf("fabric: link %d out of range [0,%d)", li, len(n.Topo.Links))
	}
	return nil
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

// emitFault accounts a fault transition and fans it out to any attached
// observer that implements telemetry.FaultObserver.
func (n *Network) emitFault(ev telemetry.FaultEvent) {
	n.Met.FaultEvents++
	obsFaultEvents.Inc()
	n.Eng.Flight().Record(obs.FlightFault, int64(ev.Time), int64(ev.Kind), int64(ev.Link), int64(ev.Switch))
	if fo, ok := n.obs.(telemetry.FaultObserver); ok {
		fo.Fault(ev)
	}
}

func (n *Network) deliverToHost(h int, p *packet.Packet) {
	if h != p.Dst {
		// A deflected packet can only reach a foreign host if it was
		// deflected into a host-facing port, which the policies avoid; a
		// misdelivery here is a routing bug, not a simulation outcome.
		panic(fmt.Sprintf("fabric: packet for host %d delivered to host %d", p.Dst, h))
	}
	if n.obs != nil {
		n.obs.Deliver(h, p)
	}
	if r := n.hostRecv[h]; r != nil {
		r.Receive(p)
	}
}

func (n *Network) drop(sw, port int, p *packet.Packet, reason metrics.DropReason) {
	if p.Kind == packet.Data {
		cls := metrics.Background
		if p.Incast {
			cls = metrics.Incast
		}
		n.Met.Drop(reason, cls)
		obsDrops.At(int(reason)).Inc()
	}
	n.Eng.Flight().Record(obs.FlightDrop, int64(n.Eng.Now()), int64(reason), int64(sw), int64(port))
	if n.obs != nil {
		n.obs.Drop(sw, port, p, reason)
	}
	// The fabric holds the last reference to a dropped packet.
	n.pool.Put(p)
}

// Port is one egress queue with an attached link. Transmission is
// store-and-forward: a popped packet occupies the link for its
// serialization time, then arrives at the peer after the propagation delay.
//
// The transmit path is event-coalesced. Instead of one end-of-serialization
// event per packet, an idle port with a backlog plans a packet train: it
// computes the exact departure and arrival time of up to TrainLen queued
// segments in one pass (drawing each segment's jitter from the port's
// positional stream) and arms a single transmit event at the train's end.
// Planned segments stay in the queue — occupancy readings must match the
// per-packet engine at every instant — and are committed (popped onto the
// wire) lazily by sync() the moment anything observes the port: an enqueue,
// a policy occupancy probe, an arrival, or the train-end event itself.
// Rewrites that would reorder a planned pop (a lower-rank insertion into a
// sorted queue, overflow eviction, any fault) invalidate the uncommitted
// tail, returning its jitter draws for positional reuse, so results stay
// bit-identical to TrainLen=0 while a saturated port pays one transmit
// event per train instead of per packet.
type Port struct {
	// The first four cache lines hold what the per-packet paths read — an
	// arrival, a policy's occupancy probe, sync with no plan pending, enqueue
	// and sendOne — so a hop touches the head of one slab element and nothing
	// behind a pointer but the queue's own arrays.
	net *Network
	// q is the port's queue, and sorted the same queue when it is rank-sorted
	// (nil for drop-tail). Both point into qs, the queue's header kept by
	// value: all of it, or just the FIFO a SortedQueue embeds.
	q      buffer.Queue
	sorted *buffer.SortedQueue
	qs     buffer.SortedQueue

	// Segments planHead..planN-1 of the train plan (see planStart) are
	// uncommitted and still occupy the queue. planMaxRank is the largest
	// planned rank (sorted queues), the planning-time bound deciding whether
	// an insertion preempts the plan.
	planHead    int
	planN       int
	planMaxRank uint32

	slot uint32 // index in net.ports: the argument of this port's events

	down     bool // link failed: no carrier
	wasDown  bool // carrier was lost and later restored at least once
	txArmed  bool // a transmit event is pending at txAt, see busyUntil
	arrArmed bool // an arrival event is pending at arrAt, see inflight
	vposSet  bool // vposAt/vposCtx override the caller's virtual position
	xdom     bool // the peer switch lives in another domain, see xdst

	// Wire state. busyUntil is when the last scheduled serialization ends;
	// the port is idle iff now >= busyUntil. txArmed records whether a
	// transmit event is pending at txAt — a port whose queue drains empty
	// leaves none armed (lazy-busy), and the next enqueue arms a
	// continuation at busyUntil if the wire is still occupied. A stale
	// transmit event (abandoned by an invalidation) identifies itself by
	// firing when !txArmed or at a time other than txAt.
	busyUntil units.Time
	txAt      units.Time

	// In-flight (committed) packets riding the link, delivered strictly
	// FIFO by one self-rescheduling arrival event, to the far end: switch
	// peer, or host peerID when peer is nil.
	arrAt    units.Time
	inflight []wireSeg
	infHead  int
	peer     *Switch

	rate  units.BitRate // current rate (degraded during brownouts)
	delay units.Time
	ber   float64 // bit-error corruption probability per transmitted packet

	// txSched is the instant the pending transmit event was armed: a
	// superseded event also fails this check, so re-arming for the same
	// txAt cannot resurrect an abandoned firing. contSched is the VIRTUAL
	// schedule time of the pending pop — the instant per-packet mode would
	// have scheduled it (the previous pop's start). It differs from txSched
	// after an invalidation re-arms the continuation: the replacement event
	// carries a later sequence number than the per-packet pop it stands in
	// for, and sync's early-fire hook uses contSched to restore the exact
	// same-instant fire order. contCtx extends the comparison one level:
	// it is the virtual pop's schedule *context* — the schedule time of the
	// event that would have scheduled it (see sim.Engine.CurSchedCtx) — and
	// breaks the tie when the virtual pop and a touching event were both
	// scheduled within the same instant.
	txSched   units.Time
	contSched units.Time
	contCtx   units.Time

	// headSched/headCtx track the virtual schedule position — (schedule
	// time, scheduler's schedule time) — the per-packet engine would have
	// given the pending head segment's pop event. Each commit advances them
	// by the chain rule (the next pop is scheduled inside the current one);
	// an enqueue-triggered commit overrides the context with the enqueuing
	// event's own position, exactly as per-packet mode would.
	headSched units.Time
	headCtx   units.Time

	// vposAt/vposCtx, when vposSet, override the virtual position maybeSend
	// attributes to its caller. A continuation transmit event (or sync's
	// early-fire of one) stands in for a per-packet pop scheduled at an
	// earlier position (contSched, contCtx); pops it performs must chain
	// their virtual positions from there, not from the stand-in event's
	// real schedule position.
	vposAt  units.Time
	vposCtx units.Time

	// rng is the port's private jitter stream. Draw k is a pure function of
	// (engine seed, port identity, k), so planning a train draws the same
	// values per packet as popping one packet at a time would.
	// drawBuf holds jitter values reclaimed from invalidated plan tails, in
	// draw order; drawJitter consumes it before touching rng so the k-th
	// committed pop always carries the k-th drawn value.
	drawHead int
	rng      xrand.Source
	drawBuf  []units.Time

	// Train plan, struct-of-arrays: segment i of the plan serializes over
	// [planStart[i], planEnd[i]) with jitter planJit[i] folded in. The three
	// are thirds of one allocation, as long as the longest plan the port has
	// made so far (see plan).
	// planTarget adapts the train length: it grows toward Cfg.TrainLen on
	// cleanly completed plans and halves on invalidation, so ports whose
	// plans keep getting preempted stop paying for long ones.
	planStart  []units.Time
	planEnd    []units.Time
	planJit    []units.Time
	planTarget int

	sw, idx int           // switch ID and port index (-1/hostID for host NICs)
	rate0   units.BitRate // configured rate, restored by factor-1 transitions

	// Cross-domain egress (sharded runs only): the peer switch lives in
	// another domain, so committed packets are emitted to the coordinator
	// instead of riding the local wire, and trains stand down (commit-time
	// emission must happen per packet). berRNG is the positional bit-error
	// stream substituting for the engine's global one.
	berRNG xrand.Source
	peerID int32 // far end: a switch ID, or a host ID when peer is nil
	xdst   int32 // destination domain

	_ [48]byte // to a multiple of the cache line, see Network.ports
}

// wireSeg is one in-flight packet and its exact wire arrival time.
type wireSeg struct {
	p  *packet.Packet
	at units.Time
}

// schedTransmit arms the port's transmit event at t. Neither of a port's two
// events is ever cancelled: superseded armings are recognized by flag/time
// mismatch and fall through, so no Timer handles are needed and a saturated
// port rides one chained frame per direction.
func (pt *Port) schedTransmit(t units.Time) {
	pt.net.Eng.SchedArg(t, pt.net.txFn, uint64(pt.slot))
}

// transmit is the port's transmit event — a train's end, or a continuation:
// settle the plan, send more.
func (pt *Port) transmit() {
	eng := pt.net.Eng
	now := eng.Now()
	if !pt.txArmed || now != pt.txAt || eng.CurSchedAt() != pt.txSched {
		return // superseded or early-fired; a live arming has its own event
	}
	if cs, cc := eng.CurSchedAt(), eng.CurSchedCtx(); cs < pt.contSched ||
		(cs == pt.contSched && cc < pt.contCtx) {
		// Armed earlier than per-packet mode would have scheduled this
		// pop (a train end is armed at plan time, not at the last
		// segment's start): same-instant events scheduled before
		// (contSched, contCtx) must fire first. Requeue behind them; any
		// later-sequenced event touching the port meanwhile pops via
		// sync's early-fire hook instead.
		pt.txSched = now
		pt.schedTransmit(now)
		return
	}
	pt.txArmed = false
	vs, vc := pt.contSched, pt.contCtx
	pt.sync(now)
	pt.vposAt, pt.vposCtx, pt.vposSet = vs, vc, true
	pt.maybeSend()
}

// arrive is the port's arrival event: deliver the due in-flight packet to
// the far end.
func (pt *Port) arrive() {
	now := pt.net.Eng.Now()
	if !pt.arrArmed || now != pt.arrAt {
		return
	}
	// Commit any segment that started serializing before now; the due
	// arrival is always committed by its own firing (its start precedes
	// its arrival by at least the propagation delay).
	pt.sync(now)
	pt.arrArmed = false
	if pt.infHead >= len(pt.inflight) || pt.inflight[pt.infHead].at != now {
		pt.rearmArrive() // arming referred to a since-invalidated segment
		return
	}
	p := pt.inflight[pt.infHead].p
	pt.inflight[pt.infHead].p = nil
	pt.infHead++
	// Reclaim the consumed prefix so a continuously busy link cannot
	// grow the slice without bound (only a handful of packets fit in
	// one propagation delay, so the copy is tiny).
	if pt.infHead == len(pt.inflight) {
		pt.releaseInflight()
	} else if pt.infHead > 32 && pt.infHead*2 >= len(pt.inflight) {
		pt.inflight = append(pt.inflight[:0], pt.inflight[pt.infHead:]...)
		pt.infHead = 0
	}
	pt.rearmArrive()
	if pt.peer != nil {
		pt.peer.Receive(p)
	} else {
		pt.net.deliverToHost(int(pt.peerID), p)
	}
}

// Queue exposes the port's queue, settled to the current instant so
// policies and tests read exact occupancy.
func (pt *Port) Queue() buffer.Queue {
	pt.sync(pt.net.Eng.Now())
	return pt.q
}

// Down reports whether the port's link has failed.
func (pt *Port) Down() bool { return pt.down }

// occBytes returns the queue occupancy an external observer must see: lazy
// train state settled to now first.
func (pt *Port) occBytes() units.ByteSize {
	pt.sync(pt.net.Eng.Now())
	return pt.q.Bytes()
}

// fitsNow reports whether n more bytes fit, after settling to now.
func (pt *Port) fitsNow(n units.ByteSize) bool {
	pt.sync(pt.net.Eng.Now())
	return pt.q.Fits(n)
}

// settle commits everything due and abandons the rest of the plan; callers
// are about to rewrite the queue in ways planning cannot survive
// (ForceInsert's rank insertion plus tail eviction).
func (pt *Port) settle() {
	pt.sync(pt.net.Eng.Now())
	pt.invalidate()
}

// sync commits every planned segment whose serialization started strictly
// before now: the packet pops from the queue and joins the in-flight list
// exactly as the per-packet engine already did at its start time. Strict
// inequality mirrors per-packet event order at shared instants, where the
// touching event (an arrival's enqueue) carries an earlier sequence number
// than the pop it ties with.
func (pt *Port) sync(now units.Time) {
	if pt.planHead < pt.planN {
		for pt.planHead < pt.planN && pt.planStart[pt.planHead] < now {
			pt.commitHead()
		}
		// Tie at the head segment's exact start instant: per-packet mode
		// scheduled this pop at the previous segment's start (the transmit
		// chain arms the next event at pop time), so it has already fired
		// from the touching event's point of view exactly when its virtual
		// position (headSched, headCtx) precedes the toucher's.
		if pt.planHead < pt.planN && pt.planStart[pt.planHead] == now {
			vs, vc := pt.headSched, pt.headCtx
			cs, cc := pt.net.Eng.CurSchedAt(), pt.net.Eng.CurSchedCtx()
			if vs < cs || (vs == cs && vc < cc) {
				pt.commitHead()
			}
		}
		if pt.planHead == pt.planN {
			// Clean completion: the plan survived untouched, so trains on
			// this port can afford to grow.
			pt.planHead, pt.planN = 0, 0
			if t := pt.planTarget << 1; t <= pt.net.Cfg.TrainLen {
				pt.planTarget = t
			}
		}
	}
	// A continuation pop pending at this exact instant whose virtual
	// schedule position (time, then schedule context) precedes the touching
	// event's would have fired first in per-packet mode: run it before the
	// touch observes or mutates the queue. The real event then self-rejects
	// on txArmed.
	if pt.planN == 0 && pt.txArmed && pt.txAt == now && !pt.down && pt.q.Len() > 0 {
		cs, cc := pt.net.Eng.CurSchedAt(), pt.net.Eng.CurSchedCtx()
		if pt.contSched < cs || (pt.contSched == cs && pt.contCtx < cc) {
			pt.txArmed = false
			pt.vposAt, pt.vposCtx, pt.vposSet = pt.contSched, pt.contCtx, true
			pt.maybeSend()
		}
	}
}

// keepInflight is the largest in-flight FIFO capacity a drained port keeps;
// a burst-grown backing array past it returns to the network's shared arena.
const keepInflight = 64

// pushInflight appends a committed packet to the in-flight FIFO, growing
// it through the network's shared arena.
func (pt *Port) pushInflight(p *packet.Packet, at units.Time) {
	if pt.xdom {
		// The peer lives in another domain: the packet leaves this replica
		// at commit time and arrives through the peer domain's inbox.
		pt.emitCross(p, at)
		return
	}
	if n := len(pt.inflight); n == cap(pt.inflight) {
		need := 2 * n
		if need < 8 {
			need = 8
		}
		grown := pt.net.inf.Get(need)[:n]
		copy(grown, pt.inflight)
		pt.net.inf.Put(pt.inflight)
		pt.inflight = grown
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

// commitHead pops the plan's first uncommitted segment from the queue and
// moves it to the in-flight list, exactly as the per-packet engine did at
// the segment's start time.
func (pt *Port) commitHead() {
	p := pt.q.Pop()
	if pt.wasDown && p.Kind == packet.Data {
		pt.net.Met.PostRecoveryTx++
	}
	pt.pushInflight(p, pt.planEnd[pt.planHead]+pt.delay)
	pt.planHead++
	// Chain rule: per-packet mode schedules the next pop inside this one,
	// so the new head's pop is scheduled at the committed segment's start
	// with the old head's schedule time as its context.
	pt.headCtx = pt.headSched
	pt.headSched = pt.planStart[pt.planHead-1]
}

// invalidate abandons the uncommitted tail of the plan. The packets never
// left the queue, so only plan metadata resets; their already-drawn jitter
// values are reclaimed in order for positional reuse by the next draws.
func (pt *Port) invalidate() {
	if pt.planHead >= pt.planN {
		return
	}
	// If the arrival chain is armed at a planned (uncommitted) segment's
	// arrival, that segment no longer exists: disarm, and let the pending
	// event reject itself on the flag/time check. A replan re-arms.
	if pt.arrArmed && pt.infHead >= len(pt.inflight) {
		pt.arrArmed = false
	}
	pt.unconsumeDraws(pt.planJit[pt.planHead:pt.planN])
	// The wire is only committed through the end of the last synced
	// segment, which is where the first uncommitted one would have started.
	pt.busyUntil = pt.planStart[pt.planHead]
	// Re-arm the continuation pop at the abandoned head's start. The event
	// just scheduled carries this instant's sequence number, but per-packet
	// mode scheduled that pop while popping the previous segment — keep the
	// virtual schedule position so sync can early-fire it ahead of
	// same-instant events that should have out-sequenced it.
	pt.contSched = pt.headSched
	pt.contCtx = pt.headCtx
	pt.planHead, pt.planN = 0, 0
	pt.txArmed = true
	pt.txAt = pt.busyUntil
	pt.txSched = pt.net.Eng.Now()
	pt.schedTransmit(pt.txAt)
	if pt.planTarget > 2 {
		pt.planTarget >>= 1
	}
	pt.net.trainInvals++
	obsTrainInvals.Inc()
}

// unconsumeDraws pushes jits — the plan's uncommitted jitter values, which
// are always the most recently consumed draws — back to the FRONT of the
// pending-draw queue, so the next pops see exactly the sequence they would
// have drawn one at a time. Appending instead would rotate the order the
// second time a port invalidates with reclaimed draws still pending.
func (pt *Port) unconsumeDraws(jits []units.Time) {
	if len(jits) == 0 {
		return
	}
	old := pt.drawBuf
	rest := len(old) - pt.drawHead
	need := len(jits) + rest
	if cap(old) < need {
		nb := make([]units.Time, need, 2*need)
		copy(nb, jits)
		copy(nb[len(jits):], old[pt.drawHead:])
		pt.drawBuf = nb
	} else {
		pt.drawBuf = old[:need]
		copy(pt.drawBuf[len(jits):], old[pt.drawHead:pt.drawHead+rest])
		copy(pt.drawBuf[:len(jits)], jits)
	}
	pt.drawHead = 0
}

// drawJitter returns the next positional jitter value in [0, jmax]:
// reclaimed draws first, then fresh ones from the port's stream.
func (pt *Port) drawJitter(jmax int64) units.Time {
	if pt.drawHead < len(pt.drawBuf) {
		v := pt.drawBuf[pt.drawHead]
		pt.drawHead++
		if pt.drawHead == len(pt.drawBuf) {
			pt.drawBuf = pt.drawBuf[:0]
			pt.drawHead = 0
		}
		return v
	}
	return units.Time(pt.rng.Int63n(jmax + 1))
}

// rearmArrive schedules the delivery chain for the earliest pending
// arrival, committed or still planned. No-op when already armed or nothing
// is pending. An arrival armed at a planned segment is safe: the segment's
// start precedes its arrival, so the firing's own sync commits it first.
func (pt *Port) rearmArrive() {
	if pt.arrArmed {
		return
	}
	var at units.Time
	switch {
	case pt.infHead < len(pt.inflight):
		at = pt.inflight[pt.infHead].at
	case pt.planHead < pt.planN:
		at = pt.planEnd[pt.planHead] + pt.delay
	default:
		return
	}
	pt.arrArmed = true
	pt.arrAt = at
	pt.net.Eng.SchedArg(at, pt.net.arrFn, uint64(pt.slot))
}

// maybeSend puts the wire to work. Callers must have settled the port to
// now (enqueue and the event callbacks all do).
func (pt *Port) maybeSend() {
	now := pt.net.Eng.Now()
	// The virtual schedule position of the event driving this call: the real
	// firing event's, unless a continuation stand-in overrode it (see vposAt).
	// Pops performed here chain their virtual positions from it.
	vs, vc := pt.net.Eng.CurSchedAt(), pt.net.Eng.CurSchedCtx()
	if pt.vposSet {
		vs, vc, pt.vposSet = pt.vposAt, pt.vposCtx, false
	}
	if pt.down {
		// No carrier: anything queued is lost, as on a real unplugged cable.
		pt.sync(now)
		pt.invalidate()
		for p := pt.q.Pop(); p != nil; p = pt.q.Pop() {
			pt.net.drop(pt.sw, pt.idx, p, metrics.DropLinkDown)
		}
		return
	}
	if pt.planHead < pt.planN && pt.planStart[pt.planHead] == now {
		// Enqueue landing exactly when the head segment starts: per-packet
		// mode's wire went idle at this instant (planned segments are
		// back-to-back), so its maybeSend pops the head synchronously inside
		// the enqueuing event — regardless of the armed continuation's
		// sequence position, which then self-rejects. Commit the head here
		// and stamp its successor's virtual position with this event's own,
		// since per-packet mode scheduled the next pop from right here.
		pt.commitHead()
		pt.headCtx = vs
		if pt.planHead == pt.planN {
			pt.contCtx = pt.headCtx
			pt.planHead, pt.planN = 0, 0
			if t := pt.planTarget << 1; t <= pt.net.Cfg.TrainLen {
				pt.planTarget = t
			}
		}
	}
	if now < pt.busyUntil {
		// Wire busy. Lazy-busy: the port that went empty armed no trailing
		// event, so the enqueue that found it mid-serialization arms the
		// continuation.
		if !pt.txArmed {
			pt.txArmed = true
			pt.txAt = pt.busyUntil
			pt.txSched = now
			// Genuine lazy-busy: the queue had drained, so no earlier pop
			// event ever existed and this event's own sequencing is exact.
			pt.contSched = now
			pt.contCtx = vs
			pt.schedTransmit(pt.txAt)
		}
		return
	}
	if pt.net.trainsOK() && pt.ber == 0 && !pt.xdom && pt.q.Len() > 1 {
		pt.plan(now, vs, vc)
	} else {
		pt.sendOne(now, vs)
	}
}

// plan coalesces up to planTarget queued segments into one packet train:
// exact per-segment times now, one transmit event at the train's end.
// vs/vc is the caller's virtual schedule position (see maybeSend), from
// which segment 0's pop — performed per-packet inside that very event —
// chains the plan's virtual pop positions.
func (pt *Port) plan(now, vs, vc units.Time) {
	n := pt.q.Len()
	if pt.planTarget == 0 {
		pt.planTarget = 8
	}
	if pt.planTarget > pt.net.Cfg.TrainLen {
		pt.planTarget = pt.net.Cfg.TrainLen
	}
	if n > pt.planTarget {
		n = pt.planTarget
	}
	if len(pt.planStart) < n {
		// The wire is idle, so no plan is pending and nothing needs copying.
		// Sized to the plan, not to the target: a clean completion doubles the
		// target whatever the plan's length, but the queue seldom holds more
		// than a few segments, so most ports never regrow.
		l := 8
		for l < n {
			l <<= 1
		}
		buf := make([]units.Time, 3*l)
		pt.planStart, pt.planEnd, pt.planJit = buf[:l:l], buf[l:2*l:2*l], buf[2*l:]
	}
	jmax := int64(pt.net.Cfg.Jitter)
	t := now
	for i := 0; i < n; i++ {
		tx := pt.rate.TxTime(pt.q.PeekAt(i).Size())
		var jit units.Time
		if jmax > 0 {
			jit = pt.drawJitter(jmax)
			tx += jit
		}
		pt.planStart[i] = t
		pt.planJit[i] = jit
		t += tx
		pt.planEnd[i] = t
	}
	if t == now {
		// Degenerate zero-duration train (absurd rate, zero jitter): fall
		// back to one-at-a-time so the train-end event cannot spin in place.
		// The consumed draws go back for positional reuse.
		pt.unconsumeDraws(pt.planJit[:n])
		pt.sendOne(now, vs)
		return
	}
	if pt.sorted != nil {
		pt.planMaxRank = pt.sorted.MaxRankAt(n - 1)
	}
	pt.planHead, pt.planN = 0, n
	pt.busyUntil = t
	pt.txAt = t
	pt.txArmed = true
	pt.txSched = now
	// Per-packet mode would schedule the pop at the train's end while
	// popping the last segment, not now; its scheduler — the pop of the
	// last segment — would itself have been scheduled at the start of the
	// one before (n >= 2 always: plans need at least two queued packets).
	pt.contSched = pt.planStart[n-1]
	pt.contCtx = pt.planStart[n-2]
	// The first segment starts now: per-packet mode pops it inside this very
	// event, so commit it eagerly — a later read at this same instant must
	// not see it still queued. Its virtual pop position is the caller's
	// virtual position; the chain rule in commitHead advances from there.
	pt.headSched = vs
	pt.headCtx = vc
	pt.commitHead()
	pt.schedTransmit(t)
	pt.rearmArrive()
	pt.net.trainsPlanned++
	pt.net.trainSegs += uint64(n)
	obsTrains.Inc()
	obsTrainSegs.Add(uint64(n))
}

// sendOne is the per-packet path: used when trains are disabled or stood
// down, and for a lone queued packet, where lazy-busy already means zero
// trailing events. vs is the caller's virtual schedule time (see
// maybeSend): the continuation this pop arms is virtually scheduled by it.
func (pt *Port) sendOne(now, vs units.Time) {
	p := pt.q.Pop()
	if p == nil {
		return
	}
	if pt.wasDown && p.Kind == packet.Data {
		pt.net.Met.PostRecoveryTx++
	}
	tx := pt.rate.TxTime(p.Size())
	if j := int64(pt.net.Cfg.Jitter); j > 0 {
		tx += pt.drawJitter(j)
	}
	if o := pt.net.obs; o != nil {
		o.Transmit(pt.sw, pt.idx, p, tx, pt.q.Bytes())
	}
	end := now + tx
	pt.busyUntil = end
	if pt.q.Len() > 0 {
		pt.txAt = end
		pt.txArmed = true
		pt.txSched = now
		pt.contSched = now
		pt.contCtx = vs
		pt.schedTransmit(end)
	} else {
		// Lazy-busy: nothing left to send at end-of-serialization, so no
		// event; an enqueue landing before then arms the continuation.
		pt.txArmed = false
	}
	if pt.ber > 0 && pt.berHit() {
		// Bit-error corruption: the bits occupy the wire for the full
		// serialization time, but the far end discards the frame on checksum.
		pt.net.drop(pt.sw, pt.idx, p, metrics.DropCorrupt)
		return
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
	// makes the common repeated lookup two loads.
	drillMem *flowtab.Table[int32]

	// deflScratch backs deflectionSet, rebuilt on every call; victimOne
	// backs the single-victim overflow case. Both avoid a per-packet
	// allocation on the deflection paths.
	deflScratch []int
	victimOne   [1]*packet.Packet

	// rng is the switch's positional policy stream, consulted instead of
	// the engine's global one in sharded runs (see Switch.intn) so random
	// routing decisions are independent of cross-domain interleaving.
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
	if !port.q.Push(p) {
		return false
	}
	// A rank-sorted insertion below the plan's largest rank would pop ahead
	// of a planned segment; abandon the plan's uncommitted tail.
	if port.planHead < port.planN && port.sorted != nil && p.Rank() < port.planMaxRank {
		port.invalidate()
	}
	s.net.queueDepth.Observe(int64(port.q.Bytes()))
	s.markECN(port, p)
	if o := s.net.obs; o != nil {
		o.Enqueue(s.id, i, p, port.q.Bytes())
	}
	port.maybeSend()
	return true
}

func (s *Switch) markECN(port *Port, p *packet.Packet) {
	k := s.net.Cfg.ECNThreshold
	if k > 0 && p.ECNCapable && port.q.Len() >= k {
		p.CE = true
		s.net.Met.ECNMarks++
		s.net.ecnMarks++
	}
}

// candidates returns the live FIB next-hop ports for p's destination (the
// network's installed table, which control-plane healing may have swapped).
func (s *Switch) candidates(p *packet.Packet) []int {
	return s.net.fib.NextHops(s.id, p.Dst)
}
