package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// absFloor is the absolute difference below which a metric is neither worse
// nor unresolved: a tenth of a one-millisecond set-up is scheduler noise, and
// so is a twentieth of 0.009 allocations per packet.
var absFloor = map[string]float64{
	"allocs_per_pkt": 0.005,
	"setup_s":        0.005,
}

// verdict compares one end-to-end metric of a parent (a) and a change (b).
// worse: b's median is worse than a's by more than the bound. unresolved:
// it is not, but either side's own runs spread (interquartile range over
// median) wider than the bound, so "unchanged" is not shown either.
func verdict(m metricSpec, a, b stat) (delta float64, v string) {
	delta = (b.Median - a.Median) / a.Median
	loss := b.Median - a.Median
	if m.Better == "higher" {
		loss = -loss
	}
	floor := absFloor[m.Name]
	wide := func(s stat) bool { return s.Q3-s.Q1 > m.Bound*s.Median && s.Q3-s.Q1 > floor }
	switch {
	case loss > m.Bound*a.Median && loss > floor:
		return delta, "worse"
	case wide(a) || wide(b):
		return delta, "unresolved"
	}
	return delta, "ok"
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// compareFiles prints one row per workload and end-to-end metric of two
// result.json files, and whether each workload's digest changed. It reports
// true when any row is worse or a workload's fail rate rose.
func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) (worse bool, err error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	return compareDocs(spec, a, b, w), nil
}

func compareDocs(spec *benchSpec, a, b *document, w io.Writer) (worse bool) {
	other := map[string]workloadResult{}
	for _, wl := range b.Workloads {
		other[wl.Name] = wl
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median (min-max)\tB median (min-max)\tdelta\tbound\tverdict")
	for _, wa := range a.Workloads {
		wb, ok := other[wa.Name]
		if !ok {
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			delta, v := verdict(m, sa, sb)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.5g (%.5g-%.5g)\t%.5g (%.5g-%.5g)\t%+.1f%%\t%.0f%%\t%s\n",
				wa.Name, m.Name, sa.Median, sa.Min, sa.Max, sb.Median, sb.Min, sb.Max, 100*delta, 100*m.Bound, v)
		}
		v := "ok"
		if wb.FailRate > wa.FailRate {
			v, worse = "worse", true
		}
		fmt.Fprintf(tw, "%s\tfail_rate\t%g\t%g\t\t0%%\t%s\n", wa.Name, wa.FailRate, wb.FailRate, v)
		digest := "same"
		if wa.SimDigest != wb.SimDigest {
			digest = "changed"
		}
		fmt.Fprintf(tw, "%s\tsim_digest\t%.12s\t%.12s\t\t\tdigest %s\n", wa.Name, wa.SimDigest, wb.SimDigest, digest)
	}
	tw.Flush()
	return worse
}
