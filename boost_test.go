package vertigo

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"vertigo/internal/core"
)

// TestBoostLog2: the simulator's Config and both host components read a
// boost factor through boostLog2 — exact exponents for powers of two, the
// paper's 2 for zero, and one error (a panic in the constructors) for
// anything else.
func TestBoostLog2(t *testing.T) {
	for factor, want := range map[int]uint{0: 1, 1: 0, 2: 1, 4: 2, 8: 3} {
		if got, err := boostLog2(factor); err != nil || got != want {
			t.Errorf("boostLog2(%d) = %d, %v; want %d", factor, got, err, want)
		}
	}
	for _, factor := range []int{3, 6, -2} {
		if _, err := boostLog2(factor); err == nil {
			t.Errorf("boostLog2(%d) accepted", factor)
		}
	}
	cfg := Defaults(SchemeVertigo, TransportDCTCP)
	cfg.BoostFactor = 6
	if _, err := cfg.lower(); err == nil || !strings.Contains(err.Error(), "not a power of two") {
		t.Errorf("lower with boost factor 6: %v", err)
	}
	for name, build := range map[string]func(){
		"NewMarker":  func() { NewMarker(MarkerOptions{BoostFactor: 6}) },
		"NewOrderer": func() { NewOrderer(OrdererOptions{BoostFactor: 6}) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(error).Error(), "boost factor 6 is not a power of two") {
					t.Errorf("%s with boost factor 6: recovered %v, want the boostLog2 error", name, r)
				}
			}()
			build()
		}()
	}
}

// TestBoostFactorOneDisablesBoosting: BoostFactor 1 is "no boosting" — the
// default scenario with the marker's boosting off and a zero exponent, and
// so its Report.
func TestBoostFactorOneDisablesBoosting(t *testing.T) {
	cfg := Defaults(SchemeVertigo, TransportDCTCP)
	cfg.Spines, cfg.Leaves, cfg.HostsPerLeaf = 2, 4, 4
	cfg.Duration = 20 * time.Millisecond
	cfg.BackgroundLoad, cfg.IncastScale, cfg.IncastLoad = 0.5, 8, 0.4
	cfg.BoostFactor = 1
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BoostFactor = 2
	cc, err := cfg.lower()
	if err != nil {
		t.Fatal(err)
	}
	cc.Marker.Boosting, cc.Marker.BoostFactorLog2 = false, 0
	res, err := core.Run(cc)
	if err != nil {
		t.Fatal(err)
	}
	if want := report(res); !reflect.DeepEqual(got, want) {
		t.Errorf("BoostFactor 1 ran another scenario:\n got %+v\nwant %+v", got, want)
	}
	if got.Retransmits == 0 {
		t.Error("no retransmissions: the run cannot tell boosting from none")
	}
}
