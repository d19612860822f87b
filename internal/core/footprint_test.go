package core

import (
	"testing"

	"vertigo/internal/fabric"
	"vertigo/internal/host"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// TestRunFootprintFollowsLiveFlows: what a run keeps for its flows follows
// the flows that are open, not the flows that have been. A small
// Vertigo+DCTCP run, stopped at T and again at 2T, holds a flow record per
// open flow, a bound handler per live sender and receiver — a finished
// inbound flow is a bit, not a binding — a receive slot per live receiver or
// ordering state, and one pending reclaim event for all its orderer
// tombstones, where each used to have its own.
func TestRunFootprintFollowsLiveFlows(t *testing.T) {
	const T = 10 * units.Millisecond
	cfg := smallConfig(fabric.Vertigo, transport.DCTCP)
	cfg.SimTime = 2 * T
	tp, err := topo.NewLeafSpine(cfg.LeafSpineCfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorld(&cfg, tp)
	if err != nil {
		t.Fatal(err)
	}
	err = armGenerators(&cfg, w.eng, w.met, tp.NumHosts, func(src, dst int, size int64, incast bool, query int) {
		spec := transport.FlowSpec{ID: w.ids.Next(), Src: src, Dst: dst, Size: size, Incast: incast, Query: query}
		w.senders.Get(w.hosts[src], w.met, w.ids, spec, nil).Start()
	})
	if err != nil {
		t.Fatal(err)
	}
	w.bound(&cfg)
	for _, until := range []units.Time{T, 2 * T} {
		w.eng.Run(until)
		m, fp := w.met, host.FootprintOf(w.net)
		started, completed := m.FlowsStarted(), m.FlowsCompleted()
		live := w.senders.Live() + w.receivers.Live()
		t.Logf("at %v: %d flows started, %d completed, %d records; %d handlers for %d live endpoints; %+v; %d events pending",
			until, started, completed, m.LiveFlows(), fp.Handlers, live, fp, w.eng.Pending())
		if completed < 1000 || fp.Reclaims == 0 {
			t.Fatalf("at %v: %d flows completed, %d tombstones queued: the run shows nothing", until, completed, fp.Reclaims)
		}
		if m.LiveFlows() > started-completed {
			t.Errorf("at %v: %d flow records held for %d open flows", until, m.LiveFlows(), started-completed)
		}
		if fp.Handlers > live {
			t.Errorf("at %v: %d handlers bound for %d live senders and receivers", until, fp.Handlers, live)
		}
		if fp.RecvSlots > w.receivers.Live()+fp.OrderSlots {
			t.Errorf("at %v: %d receive slots for %d live receivers and %d ordering states",
				until, fp.RecvSlots, w.receivers.Live(), fp.OrderSlots)
		}
		if fp.ReclaimEvents > 1 {
			t.Errorf("at %v: %d reclaim events pending for %d tombstones", until, fp.ReclaimEvents, fp.Reclaims)
		}
	}
}
