package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vertigo/internal/sim"
	"vertigo/internal/units"
)

func TestMultiFaultFanOut(t *testing.T) {
	eng := sim.NewEngine(1)
	mon := NewMonitor(eng, Config{})
	samp := NewSampler(eng, SamplerConfig{})
	var buf bytes.Buffer
	tr := NewTracer(eng, &buf, 0)
	mux := NewMulti(mon, samp, tr)

	ev := FaultEvent{Time: units.Millisecond, Kind: FaultLinkDown, Link: 4, Switch: -1}
	mux.Fault(ev)
	mux.Fault(FaultEvent{Time: 3 * units.Millisecond, Kind: FaultLinkUp, Link: 4, Switch: -1})

	if got := mon.Faults(); len(got) != 2 || got[0] != ev {
		t.Fatalf("monitor recorded %v", got)
	}
	ttrs := mon.TimesToRecover()
	if len(ttrs) != 1 || ttrs[0] != 2*units.Millisecond {
		t.Fatalf("TTRs = %v, want one 2ms recovery", ttrs)
	}
	if marks := samp.FaultMarks(); len(marks) != 2 {
		t.Fatalf("sampler marks = %v", marks)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Ev   string `json:"ev"`
		Kind string `json:"kind"`
		Link int    `json:"link"`
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if err := json.Unmarshal([]byte(first), &rec); err != nil {
		t.Fatalf("tracer line %q: %v", first, err)
	}
	if rec.Ev != "fault" || rec.Kind != "link-down" || rec.Link != 4 {
		t.Fatalf("tracer record = %+v", rec)
	}
}

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
