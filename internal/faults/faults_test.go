package faults

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"vertigo/internal/units"
)

func TestParseRoundTrip(t *testing.T) {
	src := "down@10ms:link=5; up@14ms:link=5; swdown@20ms:sw=2; swup@25ms:sw=2; " +
		"corrupt@0s:link=3,ber=0.001; degrade@5ms:link=4,factor=0.25"
	sched, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) != 6 {
		t.Fatalf("parsed %d events, want 6", len(sched.Events))
	}
	again, err := Parse(sched.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", sched.String(), err)
	}
	if len(again.Events) != len(sched.Events) {
		t.Fatalf("round trip changed event count: %d -> %d", len(sched.Events), len(again.Events))
	}
	for i := range sched.Events {
		if again.Events[i] != sched.Events[i] {
			t.Errorf("event %d changed in round trip: %v -> %v", i, sched.Events[i], again.Events[i])
		}
	}
}

func TestParseEventFields(t *testing.T) {
	sched, err := Parse("corrupt@2ms:link=7,ber=1e-4")
	if err != nil {
		t.Fatal(err)
	}
	e := sched.Events[0]
	if e.Kind != Corrupt || e.Link != 7 || e.BER != 1e-4 || e.At != 2*units.Millisecond {
		t.Fatalf("parsed %+v", e)
	}
}

func TestFlapExpansion(t *testing.T) {
	sched, err := Parse("flap@10ms:link=5,down=1ms,period=4ms,count=3")
	if err != nil {
		t.Fatal(err)
	}
	want := Flap(5, 10*units.Millisecond, units.Millisecond, 4*units.Millisecond, 3)
	if len(sched.Events) != 6 || len(want) != 6 {
		t.Fatalf("flap expanded to %d events, want 6", len(sched.Events))
	}
	for i, e := range sched.Events {
		if e != want[i] {
			t.Errorf("event %d = %v, want %v", i, e, want[i])
		}
	}
	// Cycles: down at 10, 14, 18 ms; each up 1 ms later.
	if sched.Events[4].At != 18*units.Millisecond || sched.Events[4].Kind != LinkDown {
		t.Errorf("third cycle starts at %v (%v)", sched.Events[4].At, sched.Events[4].Kind)
	}
	if sched.Events[5].At != 19*units.Millisecond || sched.Events[5].Kind != LinkUp {
		t.Errorf("third cycle ends at %v (%v)", sched.Events[5].At, sched.Events[5].Kind)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, wantSub string }{
		{"down", "missing @time"},
		{"down@xyz:link=1", "bad duration"},
		{"down@1ms", "missing link="},
		{"swdown@1ms:link=1", "missing sw="},
		{"corrupt@1ms:link=1", "missing ber="},
		{"degrade@1ms:link=1", "missing factor="},
		{"explode@1ms:link=1", "unknown kind"},
		{"down@1ms:link", "malformed argument"},
		{"flap@1ms:link=1,down=2ms,period=1ms,count=3", "0 < down < period"},
		{"flap@1ms:link=1,down=1ms,period=4ms,count=0", "count >= 1"},
		{"down@-5ms:link=1", "negative duration"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) accepted", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestParseEmptyAndSeparators(t *testing.T) {
	sched, err := Parse(" ; down@1ms:link=0 ; ; up@2ms:link=0 ; ")
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) != 2 {
		t.Fatalf("parsed %d events, want 2", len(sched.Events))
	}
}

func TestValidate(t *testing.T) {
	ok := &Schedule{Events: []Event{
		{At: units.Millisecond, Kind: LinkDown, Link: 3},
		{At: 2 * units.Millisecond, Kind: SwitchDown, Switch: 1},
		{At: 0, Kind: Corrupt, Link: 0, BER: 0.5},
		{At: 0, Kind: Degrade, Link: 1, Factor: 2},
	}}
	if err := ok.Validate(4, 2, 10*units.Millisecond); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	// Unknown bounds are skipped.
	if err := ok.Validate(-1, -1, 0); err != nil {
		t.Fatalf("boundless validation rejected: %v", err)
	}

	bad := []Schedule{
		{Events: []Event{{At: -1, Kind: LinkDown, Link: 0}}},
		{Events: []Event{{At: 20 * units.Millisecond, Kind: LinkDown, Link: 0}}},
		{Events: []Event{{At: 0, Kind: LinkDown, Link: 4}}},
		{Events: []Event{{At: 0, Kind: LinkUp, Link: -1}}},
		{Events: []Event{{At: 0, Kind: SwitchDown, Switch: 2}}},
		{Events: []Event{{At: 0, Kind: Corrupt, Link: 0, BER: 1.5}}},
		{Events: []Event{{At: 0, Kind: Degrade, Link: 0, Factor: 0}}},
		{Events: []Event{{At: 0, Kind: Kind(99)}}},
	}
	for i := range bad {
		if err := bad[i].Validate(4, 2, 10*units.Millisecond); err == nil {
			t.Errorf("bad schedule %d accepted: %v", i, bad[i].Events)
		}
	}
}

func TestNilScheduleIsEmptyAndValid(t *testing.T) {
	var s *Schedule
	if !s.Empty() {
		t.Error("nil schedule not empty")
	}
	if err := s.Validate(1, 1, units.Second); err != nil {
		t.Errorf("nil schedule invalid: %v", err)
	}
	if (&Schedule{}).Empty() != true {
		t.Error("zero schedule not empty")
	}
}

// TestParseBoundsFlap: one flap item used to size an allocation straight from
// its count, before anything was validated. Every such item is now refused
// with an error that names it, having allocated next to nothing.
func TestParseBoundsFlap(t *testing.T) {
	for _, c := range []struct{ src, wantSub string }{
		{"flap@0s:link=0,down=1ns,period=2ns,count=2000000", "past 65536 events"},
		{"flap@0s:link=0,down=1ns,period=2ns,count=200000000", "past 65536 events"},
		{"flap@0s:link=0,down=1ns,period=2ns,count=4611686018427387904", "past 65536 events"},
		// 30,000 cycles of 100,000 h run past int64 nanoseconds; so does one
		// cycle that starts at the far end of the range.
		{"flap@0s:link=0,down=1ns,period=100000h,count=30000", "largest representable time"},
		{"flap@2562047h:link=0,down=1h,period=2h,count=1", "largest representable time"},
		{"flap@0s:link=0,down=1ns,period=2ns,count=20000; flap@0s:link=1,down=1ns,period=2ns,count=20000", "past 65536 events"},
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := Parse(c.src)
		runtime.ReadMemStats(&m1)
		item := strings.TrimSpace(c.src[strings.LastIndex(c.src, ";")+1:])
		if err == nil || !strings.Contains(err.Error(), c.wantSub) || !strings.Contains(err.Error(), item) {
			t.Errorf("Parse(%q) error %v, want one naming %q with %q", c.src, err, item, c.wantSub)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got > 4<<20 {
			t.Errorf("Parse(%q) allocated %d bytes before refusing", c.src, got)
		}
	}
	sched, err := Parse("flap@1h:link=3,down=1ns,period=2ns,count=32768")
	if err != nil || len(sched.Events) != maxParsed {
		t.Fatalf("the largest flap Parse takes: %v", err)
	}
	if last := sched.Events[maxParsed-1]; last.At != units.FromDuration(time.Hour)+2*32767+1 || last.Kind != LinkUp {
		t.Fatalf("last event %v", last)
	}
}

// TestParseValidates: what Parse accepts, Validate accepts, so a serve job or
// a -fault flag with an index or a rate that can never be right is refused
// where it is read rather than once per run.
func TestParseValidates(t *testing.T) {
	for _, src := range []string{
		"down@1ms:link=-1", "swup@1ms:sw=-2", "corrupt@0s:link=0,ber=1.5", "corrupt@0s:link=0,ber=NaN",
		"degrade@0s:link=0,factor=0", "degrade@0s:link=0,factor=NaN", "degrade@0s:link=0,factor=+Inf",
		"flap@0s:link=-4,down=1ms,period=2ms,count=1",
	} {
		if s, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted %v", src, s)
		}
	}
}

// FuzzParse: whatever the text, Parse does not panic and does not build more
// than maxParsed events; a schedule it returns passes the boundless Validate
// and survives String and Parse unchanged.
func FuzzParse(f *testing.F) {
	f.Add("down@10ms:link=5; up@14ms:link=5")
	f.Add("flap@5ms:link=5,down=1ms,period=4ms,count=3")
	f.Add("swdown@10ms:sw=2; swup@20ms:sw=2")
	f.Add("corrupt@0s:link=5,ber=1e-3")
	f.Add("degrade@10ms:link=5,factor=0.25; degrade@20ms:link=5,factor=1")
	f.Add("flap@5ms:link=16,down=1ms,period=4ms,count=2;corrupt@0s:link=17,ber=1e-3") // CI's -fault string
	f.Add("flap@0s:link=0,down=1ns,period=2ns,count=2000000")
	f.Add("flap@0s:link=0,down=1ns,period=2ns,count=4611686018427387904")
	f.Add("flap@2562047h:link=0,down=1h,period=2h,count=1")
	f.Add("corrupt@0s:link=0,ber=NaN")
	f.Fuzz(func(t *testing.T, src string) {
		sched, err := Parse(src)
		if err != nil {
			return
		}
		if len(sched.Events) > maxParsed {
			t.Fatalf("%d events from %d bytes of text", len(sched.Events), len(src))
		}
		if err := sched.Validate(-1, -1, 0); err != nil {
			t.Fatalf("parsed, then invalid: %v", err)
		}
		again, err := Parse(sched.String())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", sched.String(), err)
		}
		if len(again.Events) != len(sched.Events) {
			t.Fatalf("round trip changed the event count: %d -> %d", len(sched.Events), len(again.Events))
		}
		for i, e := range sched.Events {
			if again.Events[i] != e {
				t.Fatalf("event %d changed in the round trip: %v -> %v", i, e, again.Events[i])
			}
		}
	})
}
