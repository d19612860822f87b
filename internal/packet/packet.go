// Package packet defines the simulator's packet model and the on-the-wire
// encodings of Vertigo's flowinfo header (paper Fig. 3). The simulator
// manipulates Packet structs directly; the wire codecs exist so the host
// components (marking, ordering) can also operate on real byte frames, which
// is what a downstream user of the library deploys.
package packet

import (
	"math/bits"

	"vertigo/internal/units"
)

// Default frame geometry. Transports are packet-granular with a fixed MSS.
const (
	MSS        = 1460 // max transport payload bytes per packet
	HeaderLen  = 40   // IP + transport headers, before flowinfo
	AckLen     = 64   // total size of a pure ACK frame
	MaxRetx    = 15   // boosting rotations the 4-bit RetCnt field can carry (paper §3.1.2)
	FlowIDBits = 3    // width of the flowinfo flow-id field
)

// Kind discriminates data packets from control packets.
type Kind uint8

// Packet kinds.
const (
	Data Kind = iota
	Ack
)

func (k Kind) String() string {
	if k == Ack {
		return "ack"
	}
	return "data"
}

// FlowInfo is Vertigo's auxiliary header, carried by every marked packet
// (paper Fig. 3). RFS is the remaining flow size in bytes at the moment the
// packet was first transmitted; it doubles as a per-flow sequence number
// because it is strictly decreasing across a flow's packets.
type FlowInfo struct {
	RFS    uint32 // remaining flow size (possibly boosted)
	RetCnt uint8  // number of boosting rotations applied (4 bits)
	FlowID uint8  // 3-bit flow epoch, orders back-to-back flows
	First  bool   // FLAGS bit: first packet of the flow (SRPT discipline)
}

// OriginalRFS undoes the boosting rotations and returns the RFS the sender
// originally computed. factorLog2 is log2 of the boosting factor.
func (f FlowInfo) OriginalRFS(factorLog2 uint) uint32 {
	return UnboostRFS(f.RFS, f.RetCnt, factorLog2)
}

// BoostRFS applies one boosting step to rfs: a bitwise right rotation by
// factorLog2 bits (so factor 2 rotates by 1). Rotation keeps the operation
// reversible at the receiver (paper §3.1.2).
func BoostRFS(rfs uint32, factorLog2 uint) uint32 {
	return bits.RotateLeft32(rfs, -int(factorLog2))
}

// UnboostRFS reverses retCnt boosting steps.
func UnboostRFS(rfs uint32, retCnt uint8, factorLog2 uint) uint32 {
	return bits.RotateLeft32(rfs, int(retCnt)*int(factorLog2))
}

// Packet is a simulated frame. Fields are grouped by which subsystem owns
// them; everything travels by pointer through the fabric, so a packet is
// either in exactly one queue, in flight on one link, or delivered.
type Packet struct {
	ID   uint64 // unique per simulation
	Kind Kind

	// Addressing.
	Src, Dst int    // host IDs
	Flow     uint64 // transport flow identifier (unique per simulation)

	// Transport payload bookkeeping.
	Seq        int64 // byte offset of first payload byte within the flow
	PayloadLen int   // payload bytes (0 for pure ACKs)
	AckSeq     int64 // cumulative ACK: next expected byte (ACKs only)
	FlowSize   int64 // total flow size (receiver-side bookkeeping)
	Fin        bool  // last packet of the flow
	Retx       bool  // this transmission is a retransmission
	Incast     bool  // packet belongs to an incast response flow

	// ECN.
	ECNCapable bool // ECT set by sender
	CE         bool // congestion experienced, set by switches
	ECE        bool // congestion echo (ACKs only)

	// Receiver-to-sender echoes (ACKs only), standing in for the NIC
	// timestamps Swift relies on.
	EchoTx   units.Time // TxAt of the data packet being acknowledged
	EchoProc units.Time // receiver host processing time (NIC RX to ACK TX)
	EchoHops int        // fabric hops the acknowledged data packet took

	// Vertigo flowinfo header. Marked reports whether the header is present;
	// unmarked packets are scheduled FIFO with rank 0 by non-Vertigo fabrics.
	Marked bool
	Info   FlowInfo

	// Telemetry stamped by the fabric and hosts.
	SentAt      units.Time // first transmission time at the source host
	TxAt        units.Time // transmission time of this copy (Swift RTT echo)
	RxAt        units.Time // NIC arrival time at the destination host
	Hops        int        // switch hops traversed
	Deflections int        // times deflected

	// wire memoizes Size(): every hop consults the size several times
	// (admission, occupancy, serialization delay) and the inputs are
	// frozen once the packet enters the fabric. 0 means "not computed";
	// no real frame is 0 bytes. The composite-literal reinitialization
	// rule (see Pool.Get) clears it on recycle; Marker.Mark clears it
	// when adding the shim header changes the answer.
	wire int32
}

// InvalidateSize clears the memoized wire size after a mutation that
// changes it (marking a packet adds the shim header).
func (p *Packet) InvalidateSize() { p.wire = 0 }

// Size returns the total wire size of the packet in bytes, including the
// flowinfo overhead when the packet is marked (shim layer-3 encoding).
func (p *Packet) Size() units.ByteSize {
	if p.wire != 0 {
		return units.ByteSize(p.wire)
	}
	var n int
	if p.Kind == Ack {
		n = AckLen
	} else {
		n = HeaderLen + p.PayloadLen
	}
	if p.Marked {
		n += ShimHeaderLen
	}
	p.wire = int32(n)
	return units.ByteSize(n)
}

// Rank is the scheduling rank used by rank-sorted queues: the (possibly
// boosted) RFS for marked packets. Unmarked packets rank 0 so that control
// traffic and non-Vertigo traffic is never victimized by rank comparisons.
func (p *Packet) Rank() uint32 {
	if !p.Marked {
		return 0
	}
	return p.Info.RFS
}

// End returns the byte offset one past this packet's payload.
func (p *Packet) End() int64 { return p.Seq + int64(p.PayloadLen) }

// IDGen allocates simulation-unique packet and flow IDs. The zero value is
// ready to use; IDs start at 1 so 0 can mean "unset".
type IDGen struct{ n uint64 }

// Next returns the next ID.
func (g *IDGen) Next() uint64 { g.n++; return g.n }
