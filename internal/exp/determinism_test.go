package exp

import (
	"bytes"
	"sync"
	"testing"

	"vertigo/internal/fabric"
	"vertigo/internal/metrics"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// workers is the default Options at the given sweep concurrency.
func workers(n int) *Options {
	opt := NewOptions()
	opt.Spec.Jobs = n
	return opt
}

// renderAll runs the experiment at Tiny scale under opt and returns every
// table rendered as text.
func renderAll(t *testing.T, id string, opt *Options) []byte {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(Tiny, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tb := range tables {
		tb.Fprint(&buf)
	}
	return buf.Bytes()
}

// parallelFig1 is fig1's -j8 render with every probe on. It is simulated
// afresh, never read from the reference memo, and once per process: the two
// tests that compare it with the -j1 reference share it, one for the tables
// and one for the time-series artifacts.
var parallelFig1 struct {
	once  sync.Once
	sweep sweepRun
}

// parallelObserved is parallelFig1, rendered on first use.
func parallelObserved(t *testing.T) sweepRun {
	t.Helper()
	parallelFig1.once.Do(func() { parallelFig1.sweep = render(t, "fig1", observed, workers(8)) })
	if parallelFig1.sweep.tables == nil {
		t.Fatal("fig1's -j8 render failed")
	}
	return parallelFig1.sweep
}

// TestParallelSweepDeterminism pins the runner's core guarantee: rendered
// tables are byte-identical whether the sweep ran sequentially or on a
// worker pool, because render callbacks fire in submission order. (The
// pair's samples.csv and trace.jsonl are TestObservationIdentityArtifacts'.)
func TestParallelSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	seq := reference(t, "fig1", observed)
	par := parallelObserved(t)
	if !bytes.Equal(seq.tables, par.tables) {
		t.Errorf("parallel render differs from sequential:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", seq.tables, par.tables)
	}
}

// TestFatTreeK16SweepDeterminism extends the -j1/-j8 byte-identity guarantee
// to the scale=huge topology class: a short sweep on the k=16 fat-tree
// (1024 hosts) renders identical tables sequentially and on 8 workers. The
// horizon is sub-millisecond so the test stays unit-test sized while still
// exercising the allocation-lean k=16 build and per-run state recycling
// under concurrent sweeps.
func TestFatTreeK16SweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	sc := Scale{
		Name: "k16det", Spines: 8, Leaves: 16, HostsPerLeaf: 64, FatTreeK: 16,
		SimTime: 200 * units.Microsecond, IncastScale: 16, IncastFlowKB: 4, Seed: 1,
	}
	render := func(n int) []byte {
		tbl := &Table{
			ID:      "k16det",
			Title:   "fat-tree k=16 determinism probe",
			Columns: []string{"system", "flows", "pkts", "drops", "FCT_p99", "QCT_mean"},
		}
		sw := newSweep(workers(n))
		for _, p := range []fabric.Policy{fabric.ECMP, fabric.DIBS, fabric.Vertigo} {
			p := p
			cfg := withLoads(fatTreeConfig(sc, p, transport.DCTCP), 0.10, 0.40)
			sw.add("k16det/"+p.String(), cfg,
				func(s *metrics.Summary, _ *metrics.Collector) {
					tbl.Add(schemeName(p, transport.DCTCP), s.FlowsStarted,
						s.PacketsSent, s.Drops, s.P99FCT, s.MeanQCT)
				})
		}
		if err := sw.run(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tbl.Fprint(&buf)
		return buf.Bytes()
	}
	seq := render(1)
	par := render(8)
	if !bytes.Equal(seq, par) {
		t.Errorf("k=16 parallel render differs from sequential:\n--- j=1 ---\n%s\n--- j=8 ---\n%s",
			seq, par)
	}
}
