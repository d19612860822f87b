package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"vertigo/internal/sim"
	"vertigo/internal/units"
)

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
