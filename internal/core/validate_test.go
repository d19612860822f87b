package core

import (
	"strings"
	"testing"
	"time"

	"vertigo/internal/fabric"
	"vertigo/internal/faults"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

func TestConfigValidateRejections(t *testing.T) {
	base := func() Config { return smallConfig(fabric.ECMP, transport.DCTCP) }
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantSub string
	}{
		{"zero sim time", func(c *Config) { c.SimTime = 0 }, "sim time"},
		{"negative sim time", func(c *Config) { c.SimTime = -units.Second }, "sim time"},
		{"zero hosts", func(c *Config) { c.LeafSpineCfg.HostsPerLeaf = 0 }, "hosts"},
		{"negative bg load", func(c *Config) { c.BGLoad = -0.1 }, "background load"},
		{"negative incast qps", func(c *Config) { c.IncastQPS = -1 }, "incast rate"},
		{"negative incast scale", func(c *Config) { c.IncastScale = -2 }, "incast scale"},
		{"negative flow size", func(c *Config) { c.IncastFlowSize = -5 }, "flow size"},
		{"negative heal delay", func(c *Config) { c.HealDelay = -units.Millisecond }, "heal delay"},
		{"negative sample tick", func(c *Config) { c.SampleTick = -units.Microsecond }, "sample tick"},
		{"negative wall timeout", func(c *Config) { c.WallTimeout = -time.Second }, "wall timeout"},
		{"negative shards", func(c *Config) { c.Shards = -3 }, "shard count"},
		{"fault beyond sim end", func(c *Config) {
			c.Faults = (&faults.Schedule{}).Add(
				faults.Event{At: c.SimTime * 2, Kind: faults.LinkDown, Link: 0})
		}, "after the"},
		{"fault bad ber", func(c *Config) {
			c.Faults = (&faults.Schedule{}).Add(
				faults.Event{Kind: faults.Corrupt, Link: 0, BER: 2})
		}, "bit-error rate"},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q, want substring %q", tc.name, err, tc.wantSub)
		}
		// Run must reject it identically, before committing any work.
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted what Validate rejects", tc.name)
		}
	}
	good := base()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestRunRejectsOutOfRangeFaultIndices(t *testing.T) {
	// Indices pass the pre-topology Validate but must fail in Run against
	// the built topology.
	cfg := smallConfig(fabric.ECMP, transport.DCTCP)
	cfg.SimTime = units.Millisecond
	cfg.Faults = (&faults.Schedule{}).Add(
		faults.Event{Kind: faults.LinkDown, Link: 1 << 20})
	if _, err := Run(cfg); err == nil {
		t.Error("out-of-range fault link accepted by Run")
	}
	cfg.Faults = (&faults.Schedule{}).Add(
		faults.Event{Kind: faults.SwitchDown, Switch: 1 << 20})
	if _, err := Run(cfg); err == nil {
		t.Error("out-of-range fault switch accepted by Run")
	}
}

func TestRunWithFaultScheduleAccounts(t *testing.T) {
	// A short run with a flap and healing: fault counters must land in the
	// summary, and the run must complete normally.
	cfg := smallConfig(fabric.Vertigo, transport.DCTCP)
	cfg.SimTime = 5 * units.Millisecond
	uplink := cfg.NumHosts() // first leaf uplink
	cfg.Faults = (&faults.Schedule{}).Add(
		faults.Flap(uplink, units.Millisecond, 500*units.Microsecond, 2*units.Millisecond, 2)...)
	cfg.HealDelay = 100 * units.Microsecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.FaultEvents == 0 {
		t.Error("no fault events accounted")
	}
	if s.LinkRecoveries != 2 {
		t.Errorf("link recoveries = %d, want 2", s.LinkRecoveries)
	}
	if s.MTTR != 500*units.Microsecond {
		t.Errorf("MTTR = %v, want 500µs", s.MTTR)
	}
	if s.FIBInstalls != 4 {
		t.Errorf("FIB installs = %d, want 4 (one per transition)", s.FIBInstalls)
	}
}

// TestHealerSeesLinkFailures: a permanent link failure — a LinkDown with no
// LinkUp — stays dead in the control plane's view, also when a later,
// unrelated flap triggers another recomputation, and the tables it installs
// route around it.
func TestHealerSeesLinkFailures(t *testing.T) {
	cfg := smallConfig(fabric.ECMP, transport.DCTCP)
	cfg.SimTime = 5 * units.Millisecond
	dead := cfg.NumHosts()        // leaf 0's first uplink
	flapped := cfg.NumHosts() + 1 // its second
	cfg.Faults = (&faults.Schedule{}).Add(faults.Event{At: units.Millisecond, Kind: faults.LinkDown, Link: dead})
	cfg.Faults.Add(faults.Flap(flapped, 2*units.Millisecond, 500*units.Microsecond, units.Millisecond, 1)...)
	cfg.HealDelay = 100 * units.Microsecond
	tp, err := topo.NewLeafSpine(cfg.LeafSpineCfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorld(&cfg, tp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.eng.Run(cfg.SimTime)
	if w.inj == nil || w.inj.FailedLinks() != 1 {
		t.Fatalf("injector does not count the permanently failed link (injector %v)", w.inj)
	}
	if w.met.FIBInstalls != 3 {
		t.Errorf("FIB installs = %d, want 3 (the failure and both flap edges)", w.met.FIBInstalls)
	}
	fib := w.net.FIB()
	if fib == tp.FIB {
		t.Fatal("pristine FIB installed while a link is permanently failed")
	}
	for _, end := range []topo.Endpoint{tp.Links[dead].A, tp.Links[dead].B} {
		for dst := 0; dst < tp.NumHosts; dst++ {
			for _, port := range fib.NextHops(end.Node, dst) {
				if port == end.Port {
					t.Fatalf("healed FIB still routes switch %d -> host %d over dead link %d", end.Node, dst, dead)
				}
			}
		}
	}
}

func TestRunWallTimeout(t *testing.T) {
	// An already-expired wall budget must abort the run with an error, not
	// return truncated results.
	cfg := smallConfig(fabric.ECMP, transport.DCTCP)
	cfg.WallTimeout = time.Nanosecond
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "wall-clock") {
		t.Fatalf("Run with expired wall budget returned %v, want wall-clock error", err)
	}
}
