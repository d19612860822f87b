package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"vertigo/internal/sim"
	"vertigo/internal/units"
)

func TestMonitorUnpairedDownHasNoTTR(t *testing.T) {
	mon := NewMonitor(sim.NewEngine(1), Config{})
	mon.Fault(FaultEvent{Time: units.Millisecond, Kind: FaultLinkDown, Link: 1, Switch: -1})
	// A second down on the same link must not restart the outage clock.
	mon.Fault(FaultEvent{Time: 2 * units.Millisecond, Kind: FaultLinkDown, Link: 1, Switch: -1})
	if len(mon.TimesToRecover()) != 0 {
		t.Fatal("TTR recorded without a recovery")
	}
	mon.Fault(FaultEvent{Time: 5 * units.Millisecond, Kind: FaultLinkUp, Link: 1, Switch: -1})
	ttrs := mon.TimesToRecover()
	if len(ttrs) != 1 || ttrs[0] != 4*units.Millisecond {
		t.Fatalf("TTRs = %v, want 4ms from the first down", ttrs)
	}
}

func TestSamplerCSVFaultAnnotations(t *testing.T) {
	eng := sim.NewEngine(1)
	samp := NewSampler(eng, SamplerConfig{})
	samp.Fault(FaultEvent{Time: units.Millisecond, Kind: FaultLinkDown, Link: 7, Switch: -1})
	samp.Fault(FaultEvent{Time: 2 * units.Millisecond, Kind: FaultSwitchDown, Link: -1, Switch: 3})
	var buf bytes.Buffer
	if err := samp.WriteCSV(&buf, "run1", true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fault:link-down:7") {
		t.Errorf("link fault annotation missing:\n%s", out)
	}
	if !strings.Contains(out, "fault:switch-down:3") {
		t.Errorf("switch fault annotation subject should be the switch ID:\n%s", out)
	}
}
