// Package telemetry implements the network-monitoring integration the paper
// leaves as future work (§5): with deflection in play, packet drops no
// longer reveal transient congestion, so a telemetry system must track link
// utilization, queue occupancy and per-packet deflection counts instead.
// The Monitor implements fabric.Observer and derives exactly those signals,
// including a microburst detector in the style of BurstRadar: episodes of
// high queue occupancy classified by duration (microbursts last under a
// millisecond, per the Facebook measurements the paper cites [76]).
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/units"
)

// Config parameterizes the monitor.
type Config struct {
	// BurstThreshold starts a congestion episode when a queue's occupancy
	// reaches this many bytes (default: half the paper's 300 KB buffer).
	BurstThreshold units.ByteSize
	// BurstClear ends the episode when occupancy falls back below this
	// (default: a quarter of the buffer), giving hysteresis.
	BurstClear units.ByteSize
	// MicroburstMax classifies episodes at most this long as microbursts
	// (default 1 ms, the paper's defining bound).
	MicroburstMax units.Time
}

// DefaultConfig returns thresholds matched to the paper's 300 KB ports.
func DefaultConfig() Config {
	return Config{
		BurstThreshold: 150 * units.KB,
		BurstClear:     75 * units.KB,
		MicroburstMax:  units.Millisecond,
	}
}

// PortKey identifies one egress port; Switch == -1 is a host NIC.
type PortKey struct {
	Switch, Port int
}

func (k PortKey) String() string {
	if k.Switch < 0 {
		return fmt.Sprintf("host%d.nic", k.Port)
	}
	return fmt.Sprintf("s%d.p%d", k.Switch, k.Port)
}

// Episode is one congestion event on a port.
type Episode struct {
	Port     PortKey
	Start    units.Time
	Duration units.Time
	Peak     units.ByteSize
}

// Microburst reports whether the episode is microburst-length.
func (e Episode) Microburst(max units.Time) bool { return e.Duration <= max }

// PortStats aggregates one port's counters.
type PortStats struct {
	Key         PortKey
	BusyTime    units.Time // cumulative serialization time
	TxPackets   int64
	TxBytes     int64
	HighWater   units.ByteSize // max queue occupancy seen
	Drops       int64
	Deflections int64 // deflections away from this port

	inEpisode    bool
	episodeStart units.Time
	episodePeak  units.ByteSize
}

// Utilization returns the port's link utilization over the elapsed time.
func (p *PortStats) Utilization(elapsed units.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(p.BusyTime) / float64(elapsed)
}

// portTable finds a port's state by (switch, port) without hashing — every
// dataplane callback starts with this lookup — in a table with one row per
// switch (row 0 the host NICs), grown on first sight. order lists the ports
// first seen first, for deterministic iteration.
type portTable[T any] struct {
	rows  [][]*T
	order []*T
}

// lookup returns the state of a port seen before, or nil.
func (t *portTable[T]) lookup(sw, port int) *T {
	if r := sw + 1; r < len(t.rows) {
		if row := t.rows[r]; port < len(row) {
			return row[port]
		}
	}
	return nil
}

// insert records v as the state of a port seen for the first time.
func (t *portTable[T]) insert(sw, port int, v *T) {
	r := sw + 1
	for len(t.rows) <= r {
		t.rows = append(t.rows, nil)
	}
	for len(t.rows[r]) <= port {
		t.rows[r] = append(t.rows[r], nil)
	}
	t.rows[r][port] = v
	t.order = append(t.order, v)
}

// Monitor collects fabric telemetry. Attach with fabric.Network.AddObserver.
// Timestamps are read from the engine's as-of clock: the fabric reports a
// transmission when it replays it, stamped with the instant it happened.
type Monitor struct {
	eng   *sim.Engine
	cfg   Config
	ports portTable[PortStats]

	episodes []Episode
	// DeflectionHist[n] counts delivered data packets that were deflected
	// exactly n times (n capped at len-1); its sum is the data packets
	// delivered.
	DeflectionHist [17]int64
}

// NewMonitor returns a monitor reading simulated time from eng.
func NewMonitor(eng *sim.Engine, cfg Config) *Monitor {
	def := DefaultConfig()
	if cfg.BurstThreshold <= 0 {
		cfg.BurstThreshold = def.BurstThreshold
	}
	if cfg.BurstClear <= 0 || cfg.BurstClear >= cfg.BurstThreshold {
		cfg.BurstClear = cfg.BurstThreshold / 2
	}
	if cfg.MicroburstMax <= 0 {
		cfg.MicroburstMax = def.MicroburstMax
	}
	return &Monitor{eng: eng, cfg: cfg}
}

func (m *Monitor) port(sw, port int) *PortStats {
	ps := m.ports.lookup(sw, port)
	if ps == nil {
		ps = &PortStats{Key: PortKey{sw, port}}
		m.ports.insert(sw, port, ps)
	}
	return ps
}

// Enqueue implements fabric.Observer.
func (m *Monitor) Enqueue(sw, port int, p *packet.Packet, occ units.ByteSize) {
	ps := m.port(sw, port)
	if occ > ps.HighWater {
		ps.HighWater = occ
	}
	m.track(ps, occ)
}

// Transmit implements fabric.Observer.
func (m *Monitor) Transmit(sw, port int, p *packet.Packet, busy units.Time, occ units.ByteSize) {
	ps := m.port(sw, port)
	ps.BusyTime += busy
	ps.TxPackets++
	ps.TxBytes += int64(p.Size())
	m.track(ps, occ)
}

// Deflect implements fabric.Observer.
func (m *Monitor) Deflect(sw, fromPort, toPort int, p *packet.Packet) {
	m.port(sw, fromPort).Deflections++
}

// Drop implements fabric.Observer.
func (m *Monitor) Drop(sw, port int, p *packet.Packet, reason metrics.DropReason) {
	if port < 0 {
		port = 0
	}
	m.port(sw, port).Drops++
}

// Deliver implements fabric.Observer.
func (m *Monitor) Deliver(host int, p *packet.Packet) {
	if p.Kind != packet.Data {
		return
	}
	n := p.Deflections
	if n >= len(m.DeflectionHist) {
		n = len(m.DeflectionHist) - 1
	}
	m.DeflectionHist[n]++
}

// track runs the occupancy episode state machine.
func (m *Monitor) track(ps *PortStats, occ units.ByteSize) {
	now := m.eng.AsOf()
	switch {
	case !ps.inEpisode && occ >= m.cfg.BurstThreshold:
		ps.inEpisode = true
		ps.episodeStart = now
		ps.episodePeak = occ
	case ps.inEpisode && occ > ps.episodePeak:
		ps.episodePeak = occ
	case ps.inEpisode && occ <= m.cfg.BurstClear:
		ps.inEpisode = false
		m.episodes = append(m.episodes, Episode{
			Port:     ps.Key,
			Start:    ps.episodeStart,
			Duration: now - ps.episodeStart,
			Peak:     ps.episodePeak,
		})
	}
}

// Finish closes episodes still open at simulation end, ports in first-seen
// order, and puts the list in its canonical order: by end instant, then
// start, then port. An episode is recorded when the fabric reports the
// transmission that ended it, which for a replayed pop is whenever the port
// was next touched; the order of recording is not a property of the run.
// The monitor lets go of the engine, so a retained one keeps its report and
// not the simulated world.
func (m *Monitor) Finish() {
	now := m.eng.Now()
	for _, ps := range m.ports.order {
		if ps.inEpisode {
			ps.inEpisode = false
			m.episodes = append(m.episodes, Episode{
				Port:     ps.Key,
				Start:    ps.episodeStart,
				Duration: now - ps.episodeStart,
				Peak:     ps.episodePeak,
			})
		}
	}
	sortEpisodes(m.episodes)
	m.eng = nil
}

// sortEpisodes puts episodes in their canonical order: by end instant, then
// start, then port.
func sortEpisodes(eps []Episode) {
	sort.SliceStable(eps, func(i, j int) bool {
		a, b := &eps[i], &eps[j]
		if ea, eb := a.Start+a.Duration, b.Start+b.Duration; ea != eb {
			return ea < eb
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Port.Switch != b.Port.Switch {
			return a.Port.Switch < b.Port.Switch
		}
		return a.Port.Port < b.Port.Port
	})
}

// Episodes returns all recorded congestion episodes.
func (m *Monitor) Episodes() []Episode { return m.episodes }

// Microbursts returns the episodes short enough to be microbursts.
func (m *Monitor) Microbursts() []Episode {
	var out []Episode
	for _, e := range m.episodes {
		if e.Microburst(m.cfg.MicroburstMax) {
			out = append(out, e)
		}
	}
	return out
}

// Ports returns per-port stats sorted by descending utilization.
func (m *Monitor) Ports(elapsed units.Time) []*PortStats {
	out := append([]*PortStats(nil), m.ports.order...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].BusyTime != out[j].BusyTime {
			return out[i].BusyTime > out[j].BusyTime
		}
		return out[i].Key.String() < out[j].Key.String()
	})
	return out
}

// WriteReport renders a monitoring summary of the run s summarizes: hot
// ports, congestion episodes, fault events and link recoveries, and the
// deflections-per-delivered-packet histogram.
func (m *Monitor) WriteReport(w io.Writer, s *metrics.Summary, topN int) {
	elapsed := s.Duration
	ports := m.Ports(elapsed)
	if topN > len(ports) {
		topN = len(ports)
	}
	fmt.Fprintf(w, "telemetry: %d ports observed over %v\n", len(ports), elapsed)
	fmt.Fprintf(w, "%-14s %-8s %-10s %-10s %-8s %-8s\n",
		"port", "util", "highwater", "txpkts", "drops", "defl")
	for _, ps := range ports[:topN] {
		fmt.Fprintf(w, "%-14s %-8s %-10v %-10d %-8d %-8d\n",
			ps.Key, fmt.Sprintf("%.1f%%", 100*ps.Utilization(elapsed)),
			ps.HighWater, ps.TxPackets, ps.Drops, ps.Deflections)
	}
	micro := m.Microbursts()
	fmt.Fprintf(w, "congestion episodes: %d total, %d microbursts (<= %v)\n",
		len(m.episodes), len(micro), m.cfg.MicroburstMax)
	if s.FaultEvents > 0 {
		fmt.Fprintf(w, "fault events: %d", s.FaultEvents)
		if s.LinkRecoveries > 0 {
			fmt.Fprintf(w, ", %d link recoveries (mean TTR %v)", s.LinkRecoveries, s.MTTR)
		}
		fmt.Fprintln(w)
	}
	var hist strings.Builder
	var delivered int64
	for n, c := range m.DeflectionHist {
		delivered += c
		if c > 0 && n > 0 {
			fmt.Fprintf(&hist, " %dx:%d", n, c)
		}
	}
	if hist.Len() > 0 {
		fmt.Fprintf(w, "deflections per delivered packet:%s (of %d delivered)\n",
			hist.String(), delivered)
	}
}
