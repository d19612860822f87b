package faults

import (
	"vertigo/internal/fabric"
	"vertigo/internal/sim"
	"vertigo/internal/units"
)

// Injector replays a Schedule into a fabric and, when healing is enabled,
// models the control plane: after each topology-changing event it waits
// HealDelay (routing-protocol convergence) and then installs freshly
// computed FIBs that route around everything currently failed. A HealDelay
// of zero disables healing — the static FIBs stay installed and only
// dataplane mechanisms (deflection) route around failures.
type Injector struct {
	eng       *sim.Engine
	net       *fabric.Network
	healDelay units.Time

	// Current fault state, maintained as events fire. Healing consults these
	// sets, so a heal scheduled before a recovery but firing after it sees
	// the recovered topology (as a real control plane would).
	deadLinks    map[int]bool
	deadSwitches map[int]bool

	// Injected counts the schedule events applied and Heals the control-plane
	// recomputations installed: the injector's own activity, apart from the
	// dataplane transitions the fabric accounts.
	Injected, Heals uint64
}

// Apply validates sched against the fabric's topology, schedules every event
// on the engine, and returns the injector. healDelay <= 0 disables
// control-plane healing. Call before eng.Run; events beyond the run horizon
// simply never fire.
func Apply(eng *sim.Engine, net *fabric.Network, sched *Schedule, healDelay units.Time) (*Injector, error) {
	t := net.Topo
	if err := sched.Validate(len(t.Links), t.NumSwitches, 0); err != nil {
		return nil, err
	}
	inj := &Injector{
		eng:          eng,
		net:          net,
		healDelay:    healDelay,
		deadLinks:    make(map[int]bool),
		deadSwitches: make(map[int]bool),
	}
	if sched != nil {
		for _, ev := range sched.Events {
			ev := ev
			eng.At(ev.At, func() { inj.fire(ev) })
		}
	}
	return inj, nil
}

// fire applies one event to the fabric (on the simulator thread).
func (inj *Injector) fire(ev Event) {
	inj.Injected++
	switch ev.Kind {
	case LinkDown:
		inj.deadLinks[ev.Link] = true
		inj.net.SetLinkState(ev.Link, false)
		inj.scheduleHeal()
	case LinkUp:
		delete(inj.deadLinks, ev.Link)
		inj.net.SetLinkState(ev.Link, true)
		inj.scheduleHeal()
	case SwitchDown:
		inj.deadSwitches[ev.Switch] = true
		inj.net.SetSwitchState(ev.Switch, false)
		inj.scheduleHeal()
	case SwitchUp:
		delete(inj.deadSwitches, ev.Switch)
		inj.net.SetSwitchState(ev.Switch, true)
		inj.scheduleHeal()
	case Corrupt:
		inj.net.SetLinkBER(ev.Link, ev.BER)
	case Degrade:
		inj.net.SetLinkRateFactor(ev.Link, ev.Factor)
	}
}

// scheduleHeal queues a FIB recomputation healDelay from now. Each topology
// event schedules its own heal; later heals supersede earlier ones simply by
// installing over them.
func (inj *Injector) scheduleHeal() {
	if inj.healDelay <= 0 {
		return
	}
	inj.eng.After(inj.healDelay, inj.heal)
}

// heal recomputes the FIBs over the currently-alive topology and installs
// them fabric-wide. With no standing faults the pristine tables go back in
// (no recompute needed).
func (inj *Injector) heal() {
	inj.Heals++
	t := inj.net.Topo
	if len(inj.deadLinks) == 0 && len(inj.deadSwitches) == 0 {
		inj.net.InstallFIB(t.FIB)
		return
	}
	dead := func(li int) bool {
		if inj.deadLinks[li] {
			return true
		}
		l := t.Links[li]
		if !l.A.Host && inj.deadSwitches[l.A.Node] {
			return true
		}
		if !l.B.Host && inj.deadSwitches[l.B.Node] {
			return true
		}
		return false
	}
	inj.net.InstallFIB(t.FIBExcluding(dead))
}

// FailedLinks returns how many links the injector currently considers down
// (explicit link faults only, not links attached to failed switches).
func (inj *Injector) FailedLinks() int { return len(inj.deadLinks) }

// FailedSwitches returns how many switches are currently down.
func (inj *Injector) FailedSwitches() int { return len(inj.deadSwitches) }
