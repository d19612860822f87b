package host

import (
	"vertigo/internal/arena"
	"vertigo/internal/cuckoo"
	"vertigo/internal/fabric"
	"vertigo/internal/flowtab"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/units"
)

// directory is the flow state of every host of one simulation: one table per
// kind of state, keyed by (flow or destination, host), where each host used
// to keep four tables of its own. A per-host key space mirrors the deployable
// prototype (§4.4) but buys a simulator nothing — a simulated flow ID is
// already simulation-unique — and costs a thousand-host run four thousand
// tables, built again in every domain of a sharded run. Here an idle host
// costs its struct, a slot one host's flow vacates warms the next flow of any
// host, and the tables grow a page at a time. What the slots' values point to
// moves with them, so the reorder buffers' arenas and the duplicate filters'
// chunk source live here too.
//
// Hosts built against one fabric.Network share its directory (directoryOf); a
// marker or orderer built on its own — the wire components' — has a directory
// of one, which is the prototype's per-host key space.
type directory struct {
	handlers flowtab.Table[Handler]    // (flow, host): the flow's bound transport endpoint
	marks    flowtab.Table[markerFlow] // (flow, source host)
	epochs   flowtab.Table[uint8]      // (destination, source host): next 3-bit flow epoch
	orders   flowtab.Table[orderFlow]  // (flow, destination host)

	// orderers resolves an orders slot's owner: a slot's timers carry its
	// table ref to the two handlers below, built once for all hosts.
	orderers             []*Orderer
	onTimeout, onReclaim sim.ArgHandler

	// Arenas for reorder buffers. A slot's first array is a winLen window
	// carved from a chunk; a flow that holds more at once doubles through
	// here, and a slot that quiesces with burst-grown arrays returns them, so
	// deflection storms size memory by concurrent burstiness, not by how many
	// flows — or hosts — ever saw one.
	bufP  arena.Pool[*packet.Packet]
	bufV  arena.Pool[uint32]
	bufAt arena.Pool[units.Time]

	filterChunks cuckoo.Chunks
}

func newDirectory() *directory {
	d := &directory{}
	d.onTimeout = func(slot uint64) {
		if flow, owner, st, ok := d.orders.AtRef(int32(slot)); ok {
			d.orderers[owner].timeout(flow, st)
		}
	}
	d.onReclaim = func(slot uint64) {
		if flow, owner, st, ok := d.orders.AtRef(int32(slot)); ok {
			d.orderers[owner].reclaim(flow, st)
		}
	}
	return d
}

// directoryOf returns the directory of net's simulation, creating it for the
// first host built.
func directoryOf(net *fabric.Network) *directory {
	d, _ := net.Ext.(*directory)
	if d == nil {
		d = newDirectory()
		net.Ext = d
	}
	return d
}
