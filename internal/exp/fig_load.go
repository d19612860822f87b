package exp

import (
	"vertigo/internal/fabric"
	"vertigo/internal/metrics"
	"vertigo/internal/transport"
)

// Loads swept by the load-dependent experiments. The paper sweeps 25–95% in
// 10-point steps; four points capture the shape (pre-knee, knee, post-knee).
var sweepLoads = []float64{0.35, 0.55, 0.75, 0.90}

func init() {
	register(&Experiment{
		ID:    "fig1",
		Title: "Random deflection breaks past ~65% load (completion %, QCT, FCT, goodput)",
		Run:   runFig1,
	})
	register(&Experiment{
		ID:    "sec2",
		Title: "§2 deflection pathologies: hops, mice FCT, reordering, random-vs-po2 loss",
		Run:   runSec2,
	})
	register(&Experiment{
		ID:    "fig5",
		Title: "QCT/FCT mean and p99 vs load under 25/50/75% background, DCTCP",
		Run:   runFig5,
	})
	register(&Experiment{
		ID:    "fig6",
		Title: "Mean QCT across TCP/DCTCP/Swift for ECMP/DIBS/Vertigo, plus QCT CDF",
		Run:   runFig6,
	})
	register(&Experiment{
		ID:    "table2",
		Title: "Flow and query completion ratios at 75% load (50% BG + 25% incast)",
		Run:   runTable2,
	})
}

// runFig1 reproduces Figure 1: TCP+ECMP, DCTCP+ECMP and random
// deflection (DIBS+DCTCP) under rising incast load over 15% background.
func runFig1(sc Scale, opt *Options) ([]*Table, error) {
	systems := []struct {
		label  string
		policy fabric.Policy
		proto  transport.Protocol
	}{
		{"tcp+ecmp", fabric.ECMP, transport.Reno},
		{"dctcp+ecmp", fabric.ECMP, transport.DCTCP},
		{"randdefl+dctcp", fabric.DIBS, transport.DCTCP},
	}
	t := &Table{
		ID:    "fig1",
		Title: "Random packet deflection under rising load (15% background + incast)",
		Columns: []string{"system", "load", "query_compl", "mean_QCT", "flow_compl",
			"mean_FCT", "goodput_Gbps", "elephant_Mbps", "mean_hops"},
		Notes: []string{
			"paper Fig. 1: deflection's completions and goodput collapse past ~65% load",
			"mean_hops shows deflection's path stretch (paper §2: +20% at 50% load)",
		},
	}
	sw := newSweep(opt)
	for _, sys := range systems {
		for _, load := range sweepLoads {
			cfg := withLoads(baseConfig(sc, sys.policy, sys.proto), 0.15, load)
			sw.add("fig1/"+sys.label+"/"+pct(load*100), cfg,
				func(s *metrics.Summary, _ *metrics.Collector) {
					t.Add(sys.label, pct(load*100), pct(s.QueryCompletionP), s.MeanQCT,
						pct(s.FlowCompletionP), s.MeanFCT,
						float64(s.OverallGoodput)/1e9, float64(s.ElephantGoodput)/1e6, s.MeanHops)
				})
		}
	}
	return []*Table{t}, sw.run()
}

// runSec2 quantifies the §2 pathology claims with counters.
func runSec2(sc Scale, opt *Options) ([]*Table, error) {
	t := &Table{
		ID:    "sec2",
		Title: "Deflection pathologies vs ECMP baseline (35% and 75% load)",
		Columns: []string{"system", "load", "mean_hops", "mice_FCT", "reorder_rate",
			"drop_rate", "deflections"},
		Notes: []string{
			"paper §2: at 35% load random deflection raises reordering ~10x and loss +57%",
			"pow-2 deflection choice vs random shows the power-of-two-choices win",
		},
	}
	sw := newSweep(opt)
	mk := func(label string, policy fabric.Policy, deflChoices int, load float64) {
		cfg := withLoads(baseConfig(sc, policy, transport.DCTCP), 0.15, load)
		if deflChoices > 0 {
			cfg.Fabric.DeflChoices = deflChoices
		}
		sw.add("sec2/"+label+"/"+pct(load*100), cfg,
			func(s *metrics.Summary, _ *metrics.Collector) {
				t.Add(label, pct(load*100), s.MeanHops, s.MeanMiceFCT,
					pct(100*s.ReorderRate), pct(100*s.DropRate), s.Deflections)
			})
	}
	for _, load := range []float64{0.35, 0.75} {
		mk("ecmp", fabric.ECMP, 0, load)
		mk("rand-deflect", fabric.DIBS, 0, load)
		mk("vertigo-defl^1", fabric.Vertigo, 1, load)
		mk("vertigo-defl^2", fabric.Vertigo, 2, load)
	}
	return []*Table{t}, sw.run()
}

// runFig5 reproduces Figure 5: the four schemes under DCTCP across three
// background loads with rising incast.
func runFig5(sc Scale, opt *Options) ([]*Table, error) {
	policies := []fabric.Policy{fabric.ECMP, fabric.DRILL, fabric.DIBS, fabric.Vertigo}
	var tables []*Table
	sw := newSweep(opt)
	for _, bg := range []float64{0.25, 0.50, 0.75} {
		t := &Table{
			ID:      "fig5",
			Title:   "Schemes under DCTCP, background load " + pct(bg*100),
			Columns: []string{"system", "load", "mean_QCT", "mean_FCT", "p99_QCT", "p99_FCT", "query_compl"},
		}
		for _, p := range policies {
			for _, extra := range []float64{0.10, 0.20, 0.35} {
				total := bg + extra
				if total > 0.97 {
					continue
				}
				cfg := withLoads(baseConfig(sc, p, transport.DCTCP), bg, total)
				sw.add("fig5/"+p.String()+"/"+pct(total*100), cfg,
					func(s *metrics.Summary, _ *metrics.Collector) {
						t.Add(schemeName(p, transport.DCTCP), pct(total*100),
							s.MeanQCT, s.MeanFCT, s.P99QCT, s.P99FCT, pct(s.QueryCompletionP))
					})
			}
		}
		tables = append(tables, t)
	}
	return tables, sw.run()
}

// runFig6 reproduces Figure 6: mean QCT for DIBS and Vertigo under all three
// transports (plus ECMP+Swift), and the QCT CDF at high load.
func runFig6(sc Scale, opt *Options) ([]*Table, error) {
	systems := []struct {
		policy fabric.Policy
		proto  transport.Protocol
	}{
		{fabric.DIBS, transport.Reno},
		{fabric.DIBS, transport.DCTCP},
		{fabric.DIBS, transport.Swift},
		{fabric.ECMP, transport.Swift},
		{fabric.Vertigo, transport.Reno},
		{fabric.Vertigo, transport.DCTCP},
		{fabric.Vertigo, transport.Swift},
	}
	t := &Table{
		ID:      "fig6",
		Title:   "Mean QCT with TCP, DCTCP and Swift (25% background + incast)",
		Columns: []string{"system", "load", "mean_QCT", "query_compl", "drop_rate"},
		Notes: []string{
			"paper Fig. 6a: Vertigo stays efficient under plain TCP; DIBS needs DCTCP",
			"paper §4.2: Vertigo+Swift drop rates are orders of magnitude below ECMP+Swift",
		},
	}
	cdf := &Table{
		ID:      "fig6b",
		Title:   "QCT CDF at high load",
		Columns: []string{"system", "p25", "p50", "p75", "p95", "p99"},
	}
	sw := newSweep(opt)
	for _, sys := range systems {
		for _, load := range []float64{0.45, 0.65, 0.85} {
			cfg := withLoads(baseConfig(sc, sys.policy, sys.proto), 0.25, load)
			sw.add("fig6/"+schemeName(sys.policy, sys.proto)+"/"+pct(load*100), cfg,
				func(s *metrics.Summary, _ *metrics.Collector) {
					t.Add(schemeName(sys.policy, sys.proto), pct(load*100),
						s.MeanQCT, pct(s.QueryCompletionP), pct(100*s.DropRate))
					if load == 0.85 {
						cdf.Add(schemeName(sys.policy, sys.proto),
							s.QCTPercentile(25), s.QCTPercentile(50), s.QCTPercentile(75), s.QCTPercentile(95), s.QCTPercentile(99))
					}
				})
		}
	}
	return []*Table{t, cdf}, sw.run()
}

// runTable2 reproduces Table 2: completion ratios at 75% load.
func runTable2(sc Scale, opt *Options) ([]*Table, error) {
	t := &Table{
		ID:      "table2",
		Title:   "Flow and query completion at 75% load (50% BG + 25% incast)",
		Columns: []string{"cc/system", "flow_compl", "query_compl"},
		Notes:   []string{"paper Table 2: Vertigo > DIBS > ECMP for both transports"},
	}
	sw := newSweep(opt)
	for _, proto := range []transport.Protocol{transport.DCTCP, transport.Swift} {
		for _, p := range []fabric.Policy{fabric.ECMP, fabric.DIBS, fabric.Vertigo} {
			cfg := withLoads(baseConfig(sc, p, proto), 0.50, 0.75)
			sw.add("table2/"+schemeName(p, proto), cfg,
				func(s *metrics.Summary, _ *metrics.Collector) {
					t.Add(schemeName(p, proto), pct(s.FlowCompletionP), pct(s.QueryCompletionP))
				})
		}
	}
	return []*Table{t}, sw.run()
}
