package exp

import (
	"bytes"
	"testing"

	"vertigo/internal/units"
)

// These tests pin the acceptance criterion for dataplane packet-train
// coalescing: it is an event-engine optimization, not a model change, so
// every experiment must produce byte-identical artifacts at any train
// length and any worker count.

// renderTrain renders an experiment's tables at Tiny scale with the given
// train-length override and sweep concurrency.
func renderTrain(t *testing.T, id string, train, conc int) []byte {
	t.Helper()
	opt := workers(conc)
	opt.TrainLen = train
	return renderAll(t, id, opt)
}

// TestTrainIdentitySweeps compares rendered tables across TrainLen 0 (the
// per-packet engine), 16, and 64 at -j1 and -j8. fig1 is the standard burst
// suite where trains are active; flapstorm exercises the fault stand-down
// (carrier flaps latch faultsSeen, so trains must disable without changing
// results); corrupt sweeps per-link BER, where only the corrupting port
// must fall back to per-packet sends.
func TestTrainIdentitySweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, id := range []string{"fig1", "flapstorm", "corrupt"} {
		want := renderTrain(t, id, 0, 1)
		for _, train := range []int{0, 16, 64} {
			for _, conc := range []int{1, 8} {
				if train == 0 && conc == 1 {
					continue // the baseline itself
				}
				got := renderTrain(t, id, train, conc)
				if !bytes.Equal(got, want) {
					t.Errorf("%s: tables differ at train=%d j=%d from train=0 j=1:\n--- baseline ---\n%s\n--- got ---\n%s",
						id, train, conc, want, got)
				}
			}
		}
	}
}

// artifactsTrain runs one experiment at Tiny with sampling and packet
// tracing attached, returning the assembled samples.csv and trace.jsonl
// artifacts.
func artifactsTrain(t *testing.T, id string, train, conc int) (samples, trace []byte) {
	t.Helper()
	opt := workers(conc)
	opt.TrainLen = train
	opt.SampleTick = 200 * units.Microsecond
	opt.TraceFlow = 1
	rec := NewRecorder()
	opt.OnRun = rec.Record
	renderAll(t, id, opt)
	return rec.SamplesCSV(), rec.TraceJSONL()
}

// TestTrainIdentityArtifacts compares the time-series artifacts. Attaching
// the sampler and tracer installs a fabric observer, which stands trains
// down entirely — identity here proves the guard rail leaves the model
// untouched, and that the recorder's label-keyed reassembly keeps the
// shared files byte-stable regardless of worker completion order.
func TestTrainIdentityArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	const id = "fig1"
	wantSamples, wantTrace := artifactsTrain(t, id, 0, 1)
	if len(wantSamples) == 0 || len(wantTrace) == 0 {
		t.Fatalf("baseline produced empty artifacts: samples=%d trace=%d bytes",
			len(wantSamples), len(wantTrace))
	}
	for _, c := range []struct{ train, conc int }{{64, 1}, {0, 8}, {64, 8}} {
		samples, trace := artifactsTrain(t, id, c.train, c.conc)
		if !bytes.Equal(samples, wantSamples) {
			t.Errorf("samples.csv differs at train=%d j=%d (%d vs %d bytes)",
				c.train, c.conc, len(samples), len(wantSamples))
		}
		if !bytes.Equal(trace, wantTrace) {
			t.Errorf("trace.jsonl differs at train=%d j=%d (%d vs %d bytes)",
				c.train, c.conc, len(trace), len(wantTrace))
		}
	}
}
