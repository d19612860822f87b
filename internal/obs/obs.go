// Package obs is the simulator's live introspection plane: a process-global,
// zero-allocation metrics registry that a few packages register into once (at
// package init) and bump with plain atomic operations, plus the debug HTTP
// surface (/metrics, /statusz, /healthz, expvar, pprof) that exposes it, and
// a crash flight recorder.
//
// The registry exists so a warm process — a long sweep, or vertigo-serve —
// can be scraped mid-run instead of only reporting at run end. Two
// invariants make that safe:
//
//   - Bumps are wait-free atomic adds with no allocation and no locks, so
//     publishing cannot perturb simulation timing-determinism (registry
//     values never feed back into the model) and cannot trip the race
//     detector when many engines run concurrently.
//   - Reads are snapshots, never drains: scraping copies counter values and
//     resets nothing, so a concurrently-scraped run produces byte-identical
//     artifacts to an unscraped one.
//
// Metrics are process-global aggregates across every concurrently-running
// simulation (the -j workers of a sweep all add to the same cells). The
// simulation's own families are declared in one place, internal/core, whose
// publisher folds each run's own tallies — EngineStats, PoolStats, the
// metrics.Collector — into them on the engine's publish cadence; no
// simulation layer writes the registry itself.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically-increasing atomic counter. The zero value is
// usable, but counters should be created through a Registry so they appear
// in scrapes.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// NumBuckets, BucketOf, BucketLow and BucketHigh are the log-2 bucket grid,
// defined here once: bucket i>0 holds values in [2^(i-1), 2^i), bucket 0
// holds zero and negative values. Histogram counts on it atomically and
// metrics.Histogram with min/max and merging, so registry histograms and
// end-of-run Summary histograms are directly comparable (and mergeable by
// bucket index).
const NumBuckets = 65

// BucketOf returns the bucket index for v.
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketLow returns the inclusive lower bound of bucket i.
func BucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// BucketHigh returns the inclusive upper bound of bucket i.
func BucketHigh(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return 1<<i - 1
}

// Histogram is an atomic log-bucketed histogram of int64 observations
// (nanoseconds, bytes). Observe is three wait-free atomic adds — no locks,
// no allocation — so it is safe on per-packet paths bumped from many
// concurrent simulations. Unlike metrics.Histogram it carries no min/max
// (they would need CAS loops on the hot path); quantiles come from the
// bucket grid at scrape time.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.counts[BucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// AddCounts adds a batch tallied elsewhere on the same bucket grid — counts
// per bucket and the sum of the values — as if each value had been observed
// here. A simulation tallies its own histograms in plain memory and its
// publisher folds their growth in with this, so no per-packet path touches a
// cache line another simulation writes.
func (h *Histogram) AddCounts(counts *[NumBuckets]uint64, sum int64) {
	var n uint64
	for i, c := range counts {
		if c > 0 {
			h.counts[i].Add(c)
			n += c
		}
	}
	h.count.Add(n)
	h.sum.Add(sum)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Snapshot copies the histogram's state. The copy is not atomic across
// buckets — observations racing the snapshot may be partially visible — but
// every individual read is, which is all a monitoring scrape needs.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, BucketCount{High: BucketHigh(i), Count: c})
		}
	}
	return s
}

// BucketCount is one non-empty bucket of a histogram snapshot: Count
// observations at or below High (per-bucket, not cumulative).
type BucketCount struct {
	High  int64  `json:"le"`
	Count uint64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// upper edge of the bucket holding the nearest-rank observation. Resolution
// is the bucket width (factor of two).
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen uint64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			return b.High
		}
	}
	if n := len(s.Buckets); n > 0 {
		return s.Buckets[n-1].High
	}
	return 0
}

// series is one stored metric: the label value ("" for unlabeled families)
// plus exactly one live cell per the family's kind.
type series struct {
	labelValue string
	c          *Counter
	g          *Gauge
	h          *Histogram
}

// family is one named metric family.
type family struct {
	name   string
	help   string
	kind   Kind
	label  string // label name for vec families, "" otherwise
	series []*series
}

// Registry holds metric families. Registration (Counter, Gauge, ...) takes a
// lock and may allocate; it happens once per process at package init.
// Registering the same name again returns the existing metric (so tests and
// re-imports are harmless) and panics only if the kind differs — that is
// always a programming error worth failing loudly on.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// Default is the process-global registry: every package-level metric in the
// simulator registers here, and the debug server serves it.
var Default = NewRegistry()

// lookup finds or creates the named family, enforcing kind consistency.
func (r *Registry) lookup(name, help string, kind Kind, label string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || f.label != label {
			panic("obs: metric " + name + " re-registered as a different kind")
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, label: label}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, KindCounter, "")
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(f.series) == 0 {
		f.series = append(f.series, &series{c: &Counter{}})
	}
	return f.series[0].c
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, KindGauge, "")
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(f.series) == 0 {
		f.series = append(f.series, &series{g: &Gauge{}})
	}
	return f.series[0].g
}

// Histogram registers (or finds) an unlabeled histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	f := r.lookup(name, help, KindHistogram, "")
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(f.series) == 0 {
		f.series = append(f.series, &series{h: &Histogram{}})
	}
	return f.series[0].h
}

// CounterVec is a counter family with one label of fixed cardinality. At
// returns the counter for the i-th registered label value, so hot paths
// index by enum, never by string.
type CounterVec struct{ cs []*Counter }

// At returns the counter for the i-th label value.
func (v *CounterVec) At(i int) *Counter { return v.cs[i] }

// CounterVec registers (or finds) a labeled counter family with the given
// fixed label values. Re-registration must present the same values in the
// same order.
func (r *Registry) CounterVec(name, help, label string, values ...string) *CounterVec {
	f := r.lookup(name, help, KindCounter, label)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(f.series) == 0 {
		for _, v := range values {
			f.series = append(f.series, &series{labelValue: v, c: &Counter{}})
		}
	} else if len(f.series) != len(values) {
		panic("obs: counter vec " + name + " re-registered with different label values")
	}
	vec := &CounterVec{cs: make([]*Counter, len(f.series))}
	for i, s := range f.series {
		vec.cs[i] = s.c
	}
	return vec
}

// NewCounter registers a counter on the Default registry.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewGauge registers a gauge on the Default registry.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// NewHistogram registers a histogram on the Default registry.
func NewHistogram(name, help string) *Histogram { return Default.Histogram(name, help) }

// NewCounterVec registers a labeled counter family on the Default registry.
func NewCounterVec(name, help, label string, values ...string) *CounterVec {
	return Default.CounterVec(name, help, label, values...)
}

// SeriesSnap is one series of a family snapshot.
type SeriesSnap struct {
	Label string        `json:"label,omitempty"` // label value for vec families
	Value float64       `json:"value"`           // counter/gauge value; histogram count
	Hist  *HistSnapshot `json:"hist,omitempty"`
	P50   int64         `json:"p50,omitempty"` // histogram quantile estimates
	P99   int64         `json:"p99,omitempty"`
}

// FamilySnap is a point-in-time copy of one metric family, the JSON shape
// /statusz serves.
type FamilySnap struct {
	Name   string       `json:"name"`
	Help   string       `json:"help,omitempty"`
	Kind   string       `json:"kind"`
	Label  string       `json:"label,omitempty"`
	Series []SeriesSnap `json:"series"`
}

// Snapshot copies every family, sorted by name. It holds the registration
// lock only to copy the family index; cell reads are atomic loads, so a
// snapshot never blocks or perturbs writers.
func (r *Registry) Snapshot() []FamilySnap {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnap, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnap{Name: f.name, Help: f.help, Kind: f.kind.String(), Label: f.label}
		for _, s := range f.series {
			var ss SeriesSnap
			ss.Label = s.labelValue
			switch f.kind {
			case KindCounter:
				ss.Value = float64(s.c.Value())
			case KindGauge:
				ss.Value = float64(s.g.Value())
			case KindHistogram:
				snap := s.h.Snapshot()
				ss.Value = float64(snap.Count)
				ss.P50 = snap.Quantile(0.50)
				ss.P99 = snap.Quantile(0.99)
				ss.Hist = &snap
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}
