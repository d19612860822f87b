package exp

import (
	"fmt"

	"vertigo/internal/fabric"
	"vertigo/internal/faults"
	"vertigo/internal/metrics"
	"vertigo/internal/transport"
)

func init() {
	register(&Experiment{
		ID: "failover",
		Title: "Extension: link failure mid-run — deflection routes around " +
			"carrier loss before the control plane heals",
		Run: runFailover,
	})
}

// runFailover is an extension beyond the paper: kill one leaf uplink halfway
// through the run, with no routing reconvergence. ECMP and DRILL keep
// hashing flows onto the dead port and blackhole them; DIBS and Vertigo
// treat the dead port as a full queue and deflect around it in place.
func runFailover(sc Scale, opt *Options) ([]*Table, error) {
	t := &Table{
		ID:      "failover",
		Title:   "One leaf uplink fails at T/2 (DCTCP, 50% load)",
		Columns: []string{"system", "flow_compl", "mean_FCT", "drops", "link_down_drops"},
		Notes: []string{
			"extension beyond the paper: dead ports behave as full queues, so",
			"deflection-capable schemes (DIBS, Vertigo) reroute in the dataplane",
		},
	}
	sw := newSweep(opt)
	for _, p := range []fabric.Policy{fabric.ECMP, fabric.DRILL, fabric.DIBS, fabric.Vertigo} {
		cfg := withLoads(baseConfig(sc, p, transport.DCTCP), 0.30, 0.50)
		// The first leaf-spine link follows the host access links.
		firstUplink := sc.Hosts()
		cfg.Faults = (&faults.Schedule{}).Add(faults.Event{At: sc.SimTime / 2, Kind: faults.LinkDown, Link: firstUplink})
		sw.add(fmt.Sprintf("failover/%s", p), cfg,
			func(s *metrics.Summary, col *metrics.Collector) {
				t.Add(schemeName(p, transport.DCTCP), pct(s.FlowCompletionP), s.MeanFCT,
					s.Drops, col.Drops[metrics.DropLinkDown])
			})
	}
	return []*Table{t}, sw.run()
}
