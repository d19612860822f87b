package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// MergeSamplers folds the per-domain samplers of a sharded run into one
// series in canonical order: samples by (time, switch, port), fault marks by
// (time, kind, link, switch). The canonical order is a property of the
// scenario alone — which domain recorded a sample is an artifact of the
// partition — so merged samples.csv output is byte-identical for any shard
// count. Nil entries are skipped; the result is detached from any engine and
// only good for reading (Samples, WriteCSV and friends).
func MergeSamplers(parts []*Sampler) *Sampler {
	out := &Sampler{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		if out.cfg.Tick == 0 {
			out.cfg, out.ends = p.cfg, p.ends
		}
		out.samples = append(out.samples, p.samples...)
		out.marks = append(out.marks, p.marks...)
		out.truncated += p.truncated
	}
	sort.SliceStable(out.samples, func(i, j int) bool {
		a, b := &out.samples[i], &out.samples[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Port.Switch != b.Port.Switch {
			return a.Port.Switch < b.Port.Switch
		}
		return a.Port.Port < b.Port.Port
	})
	sortFaults(out.marks)
	return out
}

// sortFaults puts fault events in their canonical order: by (time, kind,
// link, switch).
func sortFaults(evs []FaultEvent) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Link != b.Link {
			return a.Link < b.Link
		}
		return a.Switch < b.Switch
	})
}

// MergeMonitors folds the finished per-domain monitors of a sharded run into
// one: the union of their port tables (a port reports only in the domain that
// owns it, so no row is summed), the episodes in Finish's canonical order,
// and the deflection histograms summed. Like a merged sampler the result is
// only good for reading. parts is non-empty.
func MergeMonitors(parts []*Monitor) *Monitor {
	out := &Monitor{cfg: parts[0].cfg}
	for _, p := range parts {
		for _, ps := range p.ports.order {
			out.ports.insert(ps.Key.Switch, ps.Key.Port, ps)
		}
		out.episodes = append(out.episodes, p.episodes...)
		for n, c := range p.DeflectionHist {
			out.DeflectionHist[n] += c
		}
	}
	sortEpisodes(out.episodes)
	return out
}

// MergeJSONLTraces merges per-domain JSONL packet traces (as captured into
// per-domain buffers by a sharded run) and writes the merged stream to w.
// Every tracer line — dataplane events and fault annotations alike — leads
// with `{"t":<time>`, so lines sort canonically by (time, line bytes);
// like the sampler merge, the result is independent of the shard count.
func MergeJSONLTraces(w io.Writer, parts [][]byte) error {
	type line struct {
		t   int64
		raw []byte
	}
	var lines []line
	for _, part := range parts {
		for len(part) > 0 {
			nl := bytes.IndexByte(part, '\n')
			var raw []byte
			if nl < 0 {
				raw, part = part, nil
			} else {
				raw, part = part[:nl], part[nl+1:]
			}
			if len(raw) == 0 {
				continue
			}
			t, err := traceLineTime(raw)
			if err != nil {
				return err
			}
			lines = append(lines, line{t: t, raw: raw})
		}
	}
	sort.SliceStable(lines, func(i, j int) bool {
		if lines[i].t != lines[j].t {
			return lines[i].t < lines[j].t
		}
		return bytes.Compare(lines[i].raw, lines[j].raw) < 0
	})
	bw := bufio.NewWriter(w)
	for _, l := range lines {
		bw.Write(l.raw)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// traceLineTime extracts the timestamp from a tracer JSONL line's leading
// `{"t":<digits>` prefix.
func traceLineTime(raw []byte) (int64, error) {
	const pre = `{"t":`
	if len(raw) < len(pre) || string(raw[:len(pre)]) != pre {
		return 0, fmt.Errorf("telemetry: merge: trace line without %q prefix: %.40s", pre, raw)
	}
	rest := raw[len(pre):]
	end := 0
	for end < len(rest) && (rest[end] == '-' || (rest[end] >= '0' && rest[end] <= '9')) {
		end++
	}
	t, err := strconv.ParseInt(string(rest[:end]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("telemetry: merge: bad trace timestamp in %.40s: %w", raw, err)
	}
	return t, nil
}
