package transport

import (
	"vertigo/internal/host"
	"vertigo/internal/units"
)

// SetDebugRTO installs a test observer for retransmission timeouts.
func SetDebugRTO(fn func(flow uint64, sndUna, nextSeq int64, now, rto units.Time, dupAcks int)) {
	debugRTO = fn
}

// Test hooks into unexported sender internals.
func (s *Sender) SwiftTargetForTest(hops int) units.Time { return s.swiftTarget(hops) }
func (s *Sender) SampleRTTForTest(rtt units.Time)        { s.sampleRTT(rtt) }
func (s *Sender) RTOForTest() units.Time                 { return s.rto }
func (s *Sender) SRTTForTest() units.Time                { return s.srtt }
func (s *Sender) AlphaForTest() float64                  { return s.alpha }
func (s *Sender) SetCwndForTest(w float64)               { s.cwnd = w }

// FinForTest returns the pool's shared fin handler.
func (rp *ReceiverPool) FinForTest() host.Handler { return rp.fin }
