package vertigo_test

// Benchmark harness: one testing.B benchmark per table and figure in the
// paper's evaluation, plus the §4.4 host-path microbenchmarks. Simulation
// benches run the corresponding experiment at the Tiny scale (a full sweep
// per iteration) and report the headline scalar via b.ReportMetric, so
// `go test -bench` regenerates every artifact:
//
//	go test -bench=BenchmarkFig5 -benchmem
//
// prints the Fig. 5 table rows alongside the timing. Absolute values track
// the scaled-down fabric; see EXPERIMENTS.md for the shape comparison
// against the paper. How fast the simulator itself runs is not measured
// here: that is the benchmark of record, benchmark/ and BENCHMARK.json.

import (
	"testing"
	"time"

	"vertigo"
	"vertigo/internal/exp"
)

// benchExperiment runs one experiment sweep per iteration and reports its
// tables through b.Log on the final iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	sc := exp.Tiny
	var tables []*exp.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err = e.Run(sc, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, t := range tables {
		var sb tableWriter
		t.Fprint(&sb)
		b.Log("\n" + string(sb))
	}
}

type tableWriter []byte

func (w *tableWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// One benchmark per paper artifact.

func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkSec2(b *testing.B)   { benchExperiment(b, "sec2") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11a(b *testing.B) { benchExperiment(b, "fig11a") }
func BenchmarkFig11b(b *testing.B) { benchExperiment(b, "fig11b") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkDefSet(b *testing.B) { benchExperiment(b, "defset") }

// BenchmarkNonBursty regenerates the §4.2 non-incast workload comparison.
func BenchmarkNonBursty(b *testing.B) { benchExperiment(b, "nonbursty") }

// BenchmarkHeadline runs the paper's headline comparison (85% load, all four
// schemes under DCTCP) once per iteration and reports Vertigo's mean QCT.
func BenchmarkHeadline(b *testing.B) {
	for _, scheme := range []vertigo.Scheme{
		vertigo.SchemeECMP, vertigo.SchemeDRILL, vertigo.SchemeDIBS, vertigo.SchemeVertigo,
	} {
		scheme := scheme
		b.Run(string(scheme), func(b *testing.B) {
			var rep *vertigo.Report
			for i := 0; i < b.N; i++ {
				cfg := vertigo.Defaults(scheme, vertigo.TransportDCTCP)
				cfg.Spines, cfg.Leaves, cfg.HostsPerLeaf = 2, 4, 4
				cfg.Duration = 40 * time.Millisecond
				cfg.BackgroundLoad = 0.25
				cfg.IncastScale = 8
				cfg.IncastFlowKB = 20
				cfg.IncastLoad = 0.60
				var err error
				rep, err = vertigo.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.MeanQCT.Microseconds()), "meanQCT_µs")
			b.ReportMetric(rep.QueryCompletionPct, "queryCompl_%")
			b.ReportMetric(float64(rep.Drops), "drops")
		})
	}
}

// --- §4.4 host-path microbenchmarks -----------------------------------------
//
// The paper measures the marking component's cost at two hash lookups
// (~300 ns on their Xeon) and <0.1% throughput impact. These benches measure
// the same code paths: per-segment marking (flow table + cuckoo filter +
// header encode) and per-segment ordering on in-order and reordered streams.

func BenchmarkMarkingPerPacket(b *testing.B) {
	// Mark each segment of a flow exactly once, cycling flows so the filter
	// stays at a realistic occupancy (one flow's worth of signatures).
	const segsPerFlow = 1 << 14
	m := vertigo.NewMarker(vertigo.MarkerOptions{FlowCapacity: 4 * segsPerFlow})
	const flowSize = int64(segsPerFlow) * vertigo.MSS
	key := uint64(1)
	m.StartFlow(key, flowSize)
	var hdr [vertigo.ShimHeaderLen]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := i % segsPerFlow
		if seg == 0 && i > 0 {
			m.EndFlow(key)
			key++
			m.StartFlow(key, flowSize)
		}
		off := int64(seg) * vertigo.MSS
		if _, err := m.Mark(key, off, vertigo.MSS, hdr[:], 0x0800); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarkingRetransmission(b *testing.B) {
	m := vertigo.NewMarker(vertigo.MarkerOptions{FlowCapacity: 1 << 12})
	m.StartFlow(1, 1<<20)
	var hdr [vertigo.ShimHeaderLen]byte
	m.Mark(1, 0, vertigo.MSS, hdr[:], 0x0800)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Same segment every time: exercises the duplicate-detected path.
		if _, err := m.Mark(1, 0, vertigo.MSS, hdr[:], 0x0800); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrderingInOrder(b *testing.B) {
	o := vertigo.NewOrderer(vertigo.OrdererOptions{})
	now := time.Unix(0, 0)
	const n = 1 << 14
	segs := markedSegments(b, 1, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One full flow per epoch; each epoch runs under a fresh key so the
		// completed flow's tombstone is left behind, as in steady state.
		s := segs[i%n]
		s.Key += uint64(i / n)
		o.Receive(now, s)
	}
}

func BenchmarkOrderingReversedWindows(b *testing.B) {
	// Worst realistic case: every 16-segment window arrives fully inverted
	// (the SRPT-queue pattern the ordering layer exists to absorb).
	const win = 16
	const n = 1 << 14 // multiple of win, so epochs stay window-aligned
	o := vertigo.NewOrderer(vertigo.OrdererOptions{})
	now := time.Unix(0, 0)
	segs := markedSegments(b, 1, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := i % n
		base := pos / win * win
		s := segs[base+win-1-pos%win]
		s.Key += uint64(i / n)
		o.Receive(now, s)
	}
}

func markedSegments(b *testing.B, key uint64, n int) []vertigo.Segment {
	b.Helper()
	m := vertigo.NewMarker(vertigo.MarkerOptions{FlowCapacity: 2 * n})
	size := int64(n) * vertigo.MSS
	m.StartFlow(key, size)
	segs := make([]vertigo.Segment, n)
	for i := 0; i < n; i++ {
		fi, err := m.Mark(key, int64(i)*vertigo.MSS, vertigo.MSS, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		segs[i] = vertigo.Segment{Key: key, Info: fi, Len: vertigo.MSS, Last: i == n-1}
	}
	return segs
}

func BenchmarkShimEncodeDecode(b *testing.B) {
	fi := vertigo.FlowInfo{RFS: 123456, RetCnt: 3, FlowID: 5, First: true}
	var buf [vertigo.ShimHeaderLen]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vertigo.EncodeShim(buf[:], fi, 0x0800); err != nil {
			b.Fatal(err)
		}
		if _, _, err := vertigo.DecodeShim(buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}
