package telemetry

import (
	"fmt"

	"vertigo/internal/units"
)

// FaultKind classifies a fault-injection transition (see internal/faults).
type FaultKind int

// Fault kinds.
const (
	FaultLinkDown FaultKind = iota
	FaultLinkUp
	FaultSwitchDown
	FaultSwitchUp
	FaultCorrupt // per-link bit-error rate changed
	FaultDegrade // per-link rate factor changed (brownout)
	FaultFIBHeal // control plane installed recomputed routes
)

func (k FaultKind) String() string {
	switch k {
	case FaultLinkDown:
		return "link-down"
	case FaultLinkUp:
		return "link-up"
	case FaultSwitchDown:
		return "switch-down"
	case FaultSwitchUp:
		return "switch-up"
	case FaultCorrupt:
		return "corrupt"
	case FaultDegrade:
		return "degrade"
	case FaultFIBHeal:
		return "fib-heal"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultEvent is one fault transition applied to the running fabric. Link and
// Switch are -1 when not applicable; Value carries the kind-specific scalar
// (bit-error rate for FaultCorrupt, rate factor for FaultDegrade).
type FaultEvent struct {
	Time   units.Time
	Kind   FaultKind
	Link   int
	Switch int
	Value  float64
}

func (e FaultEvent) String() string {
	switch {
	case e.Kind == FaultCorrupt || e.Kind == FaultDegrade:
		return fmt.Sprintf("%v %s link=%d val=%g", e.Time, e.Kind, e.Link, e.Value)
	case e.Switch >= 0:
		return fmt.Sprintf("%v %s sw=%d", e.Time, e.Kind, e.Switch)
	case e.Link >= 0:
		return fmt.Sprintf("%v %s link=%d", e.Time, e.Kind, e.Link)
	}
	return fmt.Sprintf("%v %s", e.Time, e.Kind)
}

// Fault implements fabric.Observer for the Monitor: events are retained for
// reporting and carrier losses are paired with recoveries into per-link
// time-to-recover samples.
func (m *Monitor) Fault(ev FaultEvent) {
	m.faults = append(m.faults, ev)
	switch ev.Kind {
	case FaultLinkDown:
		if m.linkDownAt == nil {
			m.linkDownAt = make(map[int]units.Time)
		}
		if _, down := m.linkDownAt[ev.Link]; !down {
			m.linkDownAt[ev.Link] = ev.Time
		}
	case FaultLinkUp:
		if at, down := m.linkDownAt[ev.Link]; down {
			delete(m.linkDownAt, ev.Link)
			m.ttrs = append(m.ttrs, ev.Time-at)
		}
	}
}

// Faults returns every fault event observed, in injection order.
func (m *Monitor) Faults() []FaultEvent { return m.faults }

// TimesToRecover returns the carrier-loss durations of links that recovered.
func (m *Monitor) TimesToRecover() []units.Time { return m.ttrs }

// Fault implements fabric.Observer for the Tracer: one "fault" record per
// transition, in the same JSONL stream as the dataplane events.
func (t *Tracer) Fault(ev FaultEvent) {
	t.Lines++
	fmt.Fprintf(t.w, `{"t":%d,"ev":"fault","kind":"%s","link":%d,"sw":%d,"val":%g}`+"\n",
		int64(ev.Time), ev.Kind, ev.Link, ev.Switch, ev.Value)
}

// Fault implements fabric.Observer for the Sampler: fault transitions become
// annotation marks that WriteCSV interleaves with the series, so plots of
// queue/utilization can draw the fault timeline without a second artifact.
func (s *Sampler) Fault(ev FaultEvent) {
	s.marks = append(s.marks, ev)
}

// FaultMarks returns the fault annotations recorded alongside the series.
func (s *Sampler) FaultMarks() []FaultEvent { return s.marks }
