package topo

import (
	"fmt"

	"vertigo/internal/units"
)

// Partition cuts a topology into n domains. It served sharded (conservative
// parallel) execution, which is gone: a run has one execution path. Its only
// caller is the frozen benchmark/ package (probes.go's
// topo.probe_partition_s), and ROADMAP item 1(a) deletes both. The cut follows the access layer: ToR switches are
// grouped into contiguous equal-size blocks, each host is pinned to its
// ToR's domain, and every other switch joins the domain that owns the
// majority of its directly attached ToRs (ties and ToR-less switches fall
// back to round-robin by switch ID). On a fat-tree this yields per-pod
// domains with the core layer dealt round-robin; on a leaf-spine it yields
// per-leaf-group domains with spines dealt round-robin.
//
// Lookahead is the minimum one-way propagation delay over links whose
// endpoints land in different domains — the conservative window slack.
// A partition is only usable when that minimum is positive.
type Partition struct {
	N            int   // number of domains (1 = serial)
	SwitchDomain []int // domain of each switch
	HostDomain   []int // domain of each host
	// Lookahead is the minimum cross-domain link delay; zero when N == 1.
	Lookahead units.Time
	// CrossLinks indexes into Topology.Links: every link whose two ends
	// live in different domains.
	CrossLinks []int
}

// Domain returns the owning domain of a link endpoint.
func (p *Partition) Domain(e Endpoint) int {
	if e.Host {
		return p.HostDomain[e.Node]
	}
	return p.SwitchDomain[e.Node]
}

// NewPartition computes an n-way domain partition of t. It degrades rather
// than fails: when n <= 1, when the topology has fewer ToRs than n asks
// for, or when any cross-domain link has zero propagation delay (no
// lookahead, so conservative windows cannot advance), the returned
// partition has N == 1 and everything in domain 0. Callers treat N == 1 as
// "run serial".
func NewPartition(t *Topology, n int) (*Partition, error) {
	if t.NumHosts == 0 || len(t.HostToR) != t.NumHosts {
		return nil, fmt.Errorf("topo: partition of unfinalized topology %q", t.Name)
	}
	p := &Partition{
		N:            1,
		SwitchDomain: make([]int, t.NumSwitches),
		HostDomain:   make([]int, t.NumHosts),
	}
	if n <= 1 {
		return p, nil
	}

	// ToRs in first-seen order (ordered by host ID, which constructors lay
	// out contiguously per rack). Contiguous equal blocks of this order are
	// the domain seeds.
	isToR := make([]bool, t.NumSwitches)
	tors := make([]int, 0, t.NumSwitches)
	for _, tor := range t.HostToR {
		if !isToR[tor] {
			isToR[tor] = true
			tors = append(tors, tor)
		}
	}
	if n > len(tors) {
		n = len(tors)
	}
	if n <= 1 {
		return p, nil
	}

	for i := range p.SwitchDomain {
		p.SwitchDomain[i] = -1
	}
	// Equal contiguous blocks; the first (len(tors) % n) blocks get one
	// extra ToR so every domain is within 1 of the others.
	base, extra := len(tors)/n, len(tors)%n
	for i, off := 0, 0; i < n; i++ {
		sz := base
		if i < extra {
			sz++
		}
		for _, tor := range tors[off : off+sz] {
			p.SwitchDomain[tor] = i
		}
		off += sz
	}
	for h, tor := range t.HostToR {
		p.HostDomain[h] = p.SwitchDomain[tor]
	}

	// Non-ToR switches: majority vote over directly attached ToRs. An agg
	// switch inside a fat-tree pod touches only that pod's ToRs, so the vote
	// is unanimous; cores and spines touch every domain equally and fall to
	// the round-robin tie-break.
	votes := make([]int, n)
	for sw := 0; sw < t.NumSwitches; sw++ {
		if p.SwitchDomain[sw] >= 0 {
			continue
		}
		for i := range votes {
			votes[i] = 0
		}
		seen := false
		for _, peer := range t.PortPeer[sw] {
			if peer.Host || !isToR[peer.Node] {
				continue
			}
			votes[p.SwitchDomain[peer.Node]]++
			seen = true
		}
		best, tied := 0, true
		if seen {
			for i := 1; i < n; i++ {
				if votes[i] > votes[best] {
					best, tied = i, false
				} else if votes[i] < votes[best] {
					tied = false
				}
			}
		}
		if !seen || tied {
			best = sw % n
		}
		p.SwitchDomain[sw] = best
	}

	p.N = n
	// Cross-domain links and the lookahead they admit.
	for i := range t.Links {
		l := &t.Links[i]
		if p.Domain(l.A) == p.Domain(l.B) {
			continue
		}
		p.CrossLinks = append(p.CrossLinks, i)
		if l.Delay <= 0 {
			// A zero-latency cross-domain link leaves no conservative
			// slack: degrade to serial rather than deadlock the windows.
			return &Partition{
				N:            1,
				SwitchDomain: make([]int, t.NumSwitches),
				HostDomain:   make([]int, t.NumHosts),
			}, nil
		}
		if p.Lookahead == 0 || l.Delay < p.Lookahead {
			p.Lookahead = l.Delay
		}
	}
	if len(p.CrossLinks) == 0 {
		// Disconnected domains can run in lockstep windows of any width;
		// pick something harmless and nonzero.
		p.Lookahead = units.Time(1)
	}
	return p, nil
}
