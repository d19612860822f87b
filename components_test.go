package vertigo_test

import (
	"testing"

	"vertigo"
)

// TestMarkerReportsItsTelemetry: the public Marker is the simulator's, so it
// counts the boosts it applies and the signatures its duplicate filter was
// too full to keep — which a marker sized for four in-flight segments shows
// by the tenth.
func TestMarkerReportsItsTelemetry(t *testing.T) {
	m := vertigo.NewMarker(vertigo.MarkerOptions{})
	m.StartFlow(1, 10*vertigo.MSS)
	m.Mark(1, 0, vertigo.MSS, nil, 0)
	if info, _ := m.Mark(1, 0, vertigo.MSS, nil, 0); info.RetCnt != 1 || m.Boosts != 1 {
		t.Fatalf("retransmission: retcnt %d, %d boosts; want 1, 1", info.RetCnt, m.Boosts)
	}
	if m.FilterOverflows != 0 {
		t.Fatalf("%d filter overflows in a default-sized marker", m.FilterOverflows)
	}

	tiny := vertigo.NewMarker(vertigo.MarkerOptions{FlowCapacity: 4})
	tiny.StartFlow(1, 10*vertigo.MSS)
	for seg := int64(0); seg < 10; seg++ {
		if _, err := tiny.Mark(1, seg*vertigo.MSS, vertigo.MSS, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if tiny.FilterOverflows == 0 {
		t.Fatal("ten segments through a filter sized for four: no overflow reported")
	}
}
