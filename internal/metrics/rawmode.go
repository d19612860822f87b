package metrics

import "fmt"

// RawMode controls whether Summarize keeps the raw per-flow FCT/QCT series
// on the Summary next to the log-bucketed histograms, and whether the
// Collector keeps completed flows' records. The histograms carry the whole
// distribution in 65 counters and merge across sharded runs, so the raw
// series exist only for exact percentiles and fine-grained CDF figures — a
// luxury that stops scaling around a million flows. No Summary aggregate
// depends on the mode.
type RawMode int

// Raw-series modes.
const (
	// RawAuto (the default) keeps the raw series while the run is small —
	// at most RawAutoMaxFlows started flows — and drops them beyond that.
	// The threshold is on flows *started*, which is fixed by the workload
	// configuration, so whether a run keeps its raw series never depends on
	// completion behaviour. A completed flow's record is deleted at once.
	RawAuto RawMode = iota
	// RawKeep always keeps the raw series, and every completed flow's
	// record for Collector.Flow and RangeFlows.
	RawKeep
	// RawDrop always drops them; percentiles and CDFs fall back to the
	// histograms at factor-of-two resolution. Completed records go as
	// under RawAuto.
	RawDrop
)

// RawAutoMaxFlows is RawAuto's cutoff on flows started. 200k flows of raw
// int64 samples is ~1.6 MB per summary — past that the histograms take over.
const RawAutoMaxFlows = 200_000

func (m RawMode) String() string {
	switch m {
	case RawKeep:
		return "keep"
	case RawDrop:
		return "drop"
	default:
		return "auto"
	}
}

// ParseRawMode parses "auto", "keep" or "drop".
func ParseRawMode(s string) (RawMode, error) {
	switch s {
	case "auto", "":
		return RawAuto, nil
	case "keep":
		return RawKeep, nil
	case "drop":
		return RawDrop, nil
	}
	return RawAuto, fmt.Errorf("metrics: unknown raw-series mode %q (want auto, keep or drop)", s)
}

// MarshalText renders the mode as ParseRawMode reads it.
func (m RawMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses the mode with ParseRawMode.
func (m *RawMode) UnmarshalText(b []byte) error {
	v, err := ParseRawMode(string(b))
	if err == nil {
		*m = v
	}
	return err
}

// keepRaw reports whether a summary with n started flows keeps raw series.
func (m RawMode) keepRaw(n int) bool {
	switch m {
	case RawKeep:
		return true
	case RawDrop:
		return false
	default:
		return n <= RawAutoMaxFlows
	}
}
