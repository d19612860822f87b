package exp

import (
	"bytes"
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

// TestParallelSweepDeterminism pins the runner's core guarantee: rendered
// tables are byte-identical whether the sweep ran sequentially or on a
// worker pool, because render callbacks fire in submission order.
func TestParallelSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, id := range []string{"fig1", "fig8"} {
		seq := renderAll(t, id, workers(1))
		par := renderAll(t, id, workers(8))
		if !bytes.Equal(seq, par) {
			t.Errorf("%s: parallel render differs from sequential:\n--- j=1 ---\n%s\n--- j=8 ---\n%s",
				id, seq, par)
		}
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
