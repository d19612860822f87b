package vertigo_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vertigo"
)

func tinyConfig(s vertigo.Scheme, tr vertigo.Transport) vertigo.Config {
	cfg := vertigo.Defaults(s, tr)
	cfg.Spines, cfg.Leaves, cfg.HostsPerLeaf = 2, 4, 4
	cfg.Duration = 20 * time.Millisecond
	cfg.BackgroundLoad = 0.25
	cfg.IncastScale = 8
	cfg.IncastFlowKB = 20
	cfg.IncastLoad = 0.20
	return cfg
}

func TestPublicRun(t *testing.T) {
	cfg := tinyConfig(vertigo.SchemeVertigo, vertigo.TransportDCTCP)
	rep, err := vertigo.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlowsCompleted == 0 || rep.QueriesCompleted == 0 {
		t.Fatalf("nothing completed: %+v", rep)
	}
	if rep.MeanQCT <= 0 || rep.P99QCT < rep.MeanQCT/10 {
		t.Fatalf("implausible QCTs: mean %v p99 %v", rep.MeanQCT, rep.P99QCT)
	}
	res, err := vertigo.RunResult(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p50 := rep.QCTPercentile(50)
	if p50 <= 0 || p50 > rep.P99QCT || p50 != res.Summary.QCTPercentile(50).Duration() {
		t.Fatalf("QCT p50 %v, want in (0, p99 %v] and the Summary's %v", p50, rep.P99QCT, res.Summary.QCTPercentile(50).Duration())
	}
}

func TestPublicRunDeterministic(t *testing.T) {
	cfg := tinyConfig(vertigo.SchemeDIBS, vertigo.TransportSwift)
	a, err := vertigo.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := vertigo.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events || a.MeanFCT != b.MeanFCT {
		t.Fatalf("same config diverged: %d/%v vs %d/%v", a.Events, a.MeanFCT, b.Events, b.MeanFCT)
	}
	cfg.Seed = 99
	c, err := vertigo.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Events == a.Events {
		t.Fatal("different seed produced identical run (suspicious)")
	}
}

func TestPublicConfigValidation(t *testing.T) {
	bad := tinyConfig(vertigo.SchemeVertigo, vertigo.TransportDCTCP)
	bad.Scheme = "hotpotato"
	if _, err := vertigo.Run(bad); err == nil {
		t.Error("unknown scheme accepted")
	}
	bad = tinyConfig(vertigo.SchemeVertigo, vertigo.TransportDCTCP)
	bad.Transport = "carrier-pigeon"
	if _, err := vertigo.Run(bad); err == nil {
		t.Error("unknown transport accepted")
	}
	bad = tinyConfig(vertigo.SchemeVertigo, vertigo.TransportDCTCP)
	bad.Topology = "torus"
	if _, err := vertigo.Run(bad); err == nil {
		t.Error("unknown topology accepted")
	}
	bad = tinyConfig(vertigo.SchemeVertigo, vertigo.TransportDCTCP)
	bad.BackgroundWorkload = "nope"
	if _, err := vertigo.Run(bad); err == nil {
		t.Error("unknown workload accepted")
	}
	bad = tinyConfig(vertigo.SchemeVertigo, vertigo.TransportDCTCP)
	bad.BoostFactor = 3
	if _, err := vertigo.Run(bad); err == nil {
		t.Error("non-power-of-two boost factor accepted")
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	cfg := vertigo.Defaults(vertigo.SchemeVertigo, vertigo.TransportDCTCP)
	if cfg.Spines != 4 || cfg.Leaves != 8 || cfg.HostsPerLeaf != 40 {
		t.Errorf("topology defaults drifted: %+v", cfg)
	}
	if cfg.BufferKB != 300 || cfg.ECNThresholdPk != 65 {
		t.Errorf("fabric defaults drifted: %+v", cfg)
	}
	if cfg.IncastQPS != 4000 || cfg.IncastScale != 100 || cfg.IncastFlowKB != 40 {
		t.Errorf("incast defaults drifted (paper Table 1): %+v", cfg)
	}
	if cfg.OrderTimeout != 360*time.Microsecond || cfg.BoostFactor != 2 {
		t.Errorf("vertigo defaults drifted: %+v", cfg)
	}
	if cfg.Duration != 5*time.Second {
		t.Errorf("duration default drifted: %v", cfg.Duration)
	}
}

func TestFatTreePublicRun(t *testing.T) {
	cfg := tinyConfig(vertigo.SchemeVertigo, vertigo.TransportDCTCP)
	cfg.Topology = vertigo.TopologyFatTree
	cfg.FatTreeK = 4
	rep, err := vertigo.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlowsCompleted == 0 {
		t.Fatal("no flows completed on fat-tree")
	}
}

func TestAblationFlagsWire(t *testing.T) {
	// Each ablation flag must change the run (events differ from baseline).
	base := tinyConfig(vertigo.SchemeVertigo, vertigo.TransportDCTCP)
	ref, err := vertigo.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*vertigo.Config){
		"DisableSched":   func(c *vertigo.Config) { c.DisableSched = true },
		"DisableDeflect": func(c *vertigo.Config) { c.DisableDeflect = true },
		"DisableOrder":   func(c *vertigo.Config) { c.DisableOrder = true },
		"LAS":            func(c *vertigo.Config) { c.LAS = true },
		"Tau":            func(c *vertigo.Config) { c.OrderTimeout = 120 * time.Microsecond },
	} {
		cfg := base
		mut(&cfg)
		rep, err := vertigo.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Events == ref.Events {
			t.Errorf("%s: flag had no observable effect", name)
		}
	}
}

// TestPacketTraceFile: Run creates PacketTracePath, writes one JSON object a
// line leading with its timestamp, and closes the file: no descriptor is left
// on it and it can be removed.
func TestPacketTraceFile(t *testing.T) {
	cfg := tinyConfig(vertigo.SchemeVertigo, vertigo.TransportDCTCP)
	cfg.Duration = 2 * time.Millisecond
	cfg.PacketTracePath = filepath.Join(t.TempDir(), "p.jsonl")
	if _, err := vertigo.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if fds, err := os.ReadDir("/proc/self/fd"); err == nil { // where the OS can say
		for _, fd := range fds {
			if dst, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); dst == cfg.PacketTracePath {
				t.Errorf("Run left descriptor %s open on the trace file", fd.Name())
			}
		}
	}
	raw, err := os.ReadFile(cfg.PacketTracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) < 100 {
		t.Fatalf("trace has %d lines", len(lines))
	}
	for i, line := range lines {
		var rec struct {
			T *int64 `json:"t"`
		}
		if !bytes.HasPrefix(line, []byte(`{"t":`)) || json.Unmarshal(line, &rec) != nil || rec.T == nil {
			t.Fatalf("line %d is not a JSON object leading with t: %s", i+1, line)
		}
	}
	if err := os.Remove(cfg.PacketTracePath); err != nil {
		t.Error(err)
	}
}
