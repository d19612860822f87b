package exp

import (
	"fmt"

	"vertigo/internal/fabric"
	"vertigo/internal/metrics"
	"vertigo/internal/transport"
)

func init() {
	register(&Experiment{
		ID:    "fig8",
		Title: "Query completion under rising incast scale (fan-in sweep)",
		Run:   runFig8,
	})
	register(&Experiment{
		ID:    "fig9",
		Title: "Mean QCT under rising incast flow size (1KB → 180KB)",
		Run:   runFig9,
	})
	register(&Experiment{
		ID:    "fig10",
		Title: "Mean QCT under rising burstiness at fixed 80% offered load",
		Run:   runFig10,
	})
	register(&Experiment{
		ID:    "fig7",
		Title: "Fat-tree validation: FCT/QCT distributions under DCTCP and Swift",
		Run:   runFig7,
	})
}

// fig8Policies are the systems compared in the incast-parameter sweeps.
var fig8Policies = []fabric.Policy{fabric.ECMP, fabric.DRILL, fabric.DIBS, fabric.Vertigo}

// runFig8 reproduces Figure 8: incast scale sweep at fixed rate and flow
// size over 50% background. The paper sweeps 50..450 servers of 320 hosts
// (some queries exceed the cluster); we sweep the same fractions of the
// scaled cluster.
func runFig8(sc Scale, opt *Options) ([]*Table, error) {
	t := &Table{
		ID:      "fig8",
		Title:   "Rising incast scale (50% background)",
		Columns: []string{"system", "scale", "query_compl", "mean_QCT", "mean_FCT", "p99_FCT"},
		Notes: []string{
			"paper Fig. 8: only Vertigo keeps completing queries as the fan-in grows",
		},
	}
	hosts := sc.Hosts()
	fractions := []float64{0.15, 0.30, 0.60, 1.0} // of the cluster, paper: 50..450 of 320
	sw := newSweep(opt)
	for _, p := range fig8Policies {
		for _, f := range fractions {
			scale := int(f * float64(hosts))
			if scale < 2 {
				scale = 2
			}
			cfg := baseConfig(sc, p, transport.DCTCP)
			cfg.BGLoad = 0.50
			cfg.IncastScale = scale
			cfg.IncastFlowSize = 40 * 1000
			// Fixed query rate scaled from the paper's 4000 QPS on 320 hosts.
			cfg.IncastQPS = 4000 * float64(hosts) / 320
			sw.add(fmt.Sprintf("fig8/%s/scale=%d", p, scale), cfg,
				func(s *metrics.Summary, _ *metrics.Collector) {
					t.Add(schemeName(p, transport.DCTCP), scale, pct(s.QueryCompletionP),
						s.MeanQCT, s.MeanFCT, s.P99FCT)
				})
		}
	}
	return []*Table{t}, sw.run()
}

// runFig9 reproduces Figure 9: incast flow size sweep at fixed scale and
// rate over 50% background, including the TCP+ECMP baseline the figure shows.
func runFig9(sc Scale, opt *Options) ([]*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "Rising incast flow size (50% background)",
		Columns: []string{"system", "flowKB", "mean_QCT", "query_compl", "drop_rate"},
		Notes: []string{
			"paper Fig. 9: schemes without flow-size information misclassify large incast flows",
		},
	}
	systems := []struct {
		policy fabric.Policy
		proto  transport.Protocol
	}{
		{fabric.ECMP, transport.Reno},
		{fabric.ECMP, transport.DCTCP},
		{fabric.DRILL, transport.DCTCP},
		{fabric.DIBS, transport.DCTCP},
		{fabric.Vertigo, transport.DCTCP},
	}
	hosts := sc.Hosts()
	sw := newSweep(opt)
	for _, sys := range systems {
		for _, kb := range []int{1, 40, 100, 180} {
			cfg := baseConfig(sc, sys.policy, sys.proto)
			cfg.BGLoad = 0.50
			cfg.IncastFlowSize = int64(kb) * 1000
			cfg.IncastQPS = 4000 * float64(hosts) / 320
			sw.add(fmt.Sprintf("fig9/%s/%dKB", schemeName(sys.policy, sys.proto), kb), cfg,
				func(s *metrics.Summary, _ *metrics.Collector) {
					t.Add(schemeName(sys.policy, sys.proto), kb, s.MeanQCT,
						pct(s.QueryCompletionP), pct(100*s.DropRate))
				})
		}
	}
	return []*Table{t}, sw.run()
}

// runFig10 reproduces Figure 10: fixed 80% offered load with the incast
// share (burstiness) rising as background shrinks.
func runFig10(sc Scale, opt *Options) ([]*Table, error) {
	t := &Table{
		ID:      "fig10",
		Title:   "Rising burstiness at fixed 80% offered load",
		Columns: []string{"system", "incast_share", "mean_QCT", "p99_FCT", "drop_rate"},
		Notes: []string{
			"paper Fig. 10: QCT rises with burstiness for all systems; Vertigo stays lowest",
		},
	}
	const total = 0.80
	sw := newSweep(opt)
	for _, p := range fig8Policies {
		for _, incast := range []float64{0.15, 0.35, 0.55} {
			cfg := withLoads(baseConfig(sc, p, transport.DCTCP), total-incast, total)
			sw.add(fmt.Sprintf("fig10/%s/incast=%.0f%%", p, incast*100), cfg,
				func(s *metrics.Summary, _ *metrics.Collector) {
					t.Add(schemeName(p, transport.DCTCP), pct(100*incast/total),
						s.MeanQCT, s.P99FCT, pct(100*s.DropRate))
				})
		}
	}
	return []*Table{t}, sw.run()
}

// runFig7 reproduces Figure 7: the fat-tree validation with three load
// mixes under DCTCP and Swift, reporting FCT/QCT distribution points.
func runFig7(sc Scale, opt *Options) ([]*Table, error) {
	mixes := []struct{ bg, incast float64 }{
		{0.25, 0.10},
		{0.50, 0.25},
		{0.25, 0.60},
	}
	var tables []*Table
	sw := newSweep(opt)
	for _, proto := range []transport.Protocol{transport.DCTCP, transport.Swift} {
		t := &Table{
			ID:    "fig7",
			Title: "Fat-tree k=" + fmt.Sprint(sc.FatTreeK) + ", transport " + proto.String(),
			Columns: []string{"system", "bg+incast", "FCT_p50", "FCT_p99",
				"QCT_p50", "QCT_p99", "query_compl"},
			Notes: []string{"paper Fig. 7: Vertigo cuts ECMP and DIBS tails on fat-tree too"},
		}
		for _, mix := range mixes {
			for _, p := range []fabric.Policy{fabric.ECMP, fabric.DIBS, fabric.Vertigo} {
				cfg := withLoads(fatTreeConfig(sc, p, proto), mix.bg, mix.bg+mix.incast)
				label := fmt.Sprintf("fig7/%s/%s/%.0f+%.0f", proto, p, mix.bg*100, mix.incast*100)
				sw.add(label, cfg, func(s *metrics.Summary, _ *metrics.Collector) {
					t.Add(schemeName(p, proto),
						fmt.Sprintf("%.0f%%+%.0f%%", mix.bg*100, mix.incast*100),
						s.FCTPercentile(50), s.FCTPercentile(99), s.QCTPercentile(50), s.QCTPercentile(99),
						pct(s.QueryCompletionP))
				})
			}
		}
		tables = append(tables, t)
	}
	return tables, sw.run()
}
