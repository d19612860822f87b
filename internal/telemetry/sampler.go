package telemetry

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"vertigo/internal/metrics"
	"vertigo/internal/packet"
	"vertigo/internal/sim"
	"vertigo/internal/units"
)

// SamplerConfig parameterizes the time-series sampler.
type SamplerConfig struct {
	// Tick is the sampling period (default 100 µs: fine enough to resolve
	// the sub-millisecond episodes the paper is about, coarse enough that a
	// full run stays megabytes).
	Tick units.Time
	// MaxSamples caps retained samples (default 1<<20); once reached, later
	// samples are counted in Truncated and discarded. Negative = unlimited.
	MaxSamples int
}

// DefaultSamplerConfig returns the default sampling parameters.
func DefaultSamplerConfig() SamplerConfig {
	return SamplerConfig{Tick: 100 * units.Microsecond, MaxSamples: 1 << 20}
}

// Sample is one point of the per-port time series: queue occupancy at the
// tick instant and link utilization over the preceding tick.
type Sample struct {
	Time  units.Time
	Port  PortKey
	Queue units.ByteSize
	Util  float64
}

// Sampler records per-port queue occupancy and utilization on a fixed tick,
// the occupancy *time series* (not end-of-run aggregates) that buffer-sizing
// work says actually explains behaviour under bursts. It observes the fabric
// event stream to track instantaneous state and snapshots it from a
// self-rescheduling engine event; idle ports (empty queue, idle link over
// the whole tick) produce no sample, so quiet fabrics stay cheap.
//
// Attach with fabric.Network.AddObserver and call Start before the run.
type Sampler struct {
	eng  *sim.Engine
	cfg  SamplerConfig
	ends units.Time

	ports  portTable[portState] // sampled in first-seen order
	tick   func()               // prebuilt tick closure, scheduled once per period
	settle func()               // see SetSettler

	samples   []Sample
	truncated int64
	marks     []FaultEvent // fault annotations (see fault.go)
}

// portState is one port's state accumulated since the last tick.
type portState struct {
	key  PortKey
	occ  units.ByteSize // occupancy after the most recent enqueue/dequeue
	busy units.Time     // serialization time started during this tick
}

// NewSampler returns a sampler reading simulated time from eng.
func NewSampler(eng *sim.Engine, cfg SamplerConfig) *Sampler {
	def := DefaultSamplerConfig()
	if cfg.Tick <= 0 {
		cfg.Tick = def.Tick
	}
	if cfg.MaxSamples == 0 {
		cfg.MaxSamples = def.MaxSamples
	}
	s := &Sampler{eng: eng, cfg: cfg}
	s.tick = s.onTick
	return s
}

// SetSettler gives the sampler the function that brings every port's state
// up to the current instant; the fabric supplies it on attachment. The fabric
// reports a transmission when it replays it, which can be after the instant
// it happened, so each tick settles the fabric before its snapshot.
func (s *Sampler) SetSettler(settle func()) { s.settle = settle }

// Start schedules sampling ticks up to (and including) until.
func (s *Sampler) Start(until units.Time) {
	s.ends = until
	if s.cfg.Tick <= until {
		s.eng.SchedAfter(s.cfg.Tick, s.tick)
	}
}

// Finish detaches the sampler from its run once the engine has run to the
// end: the series stays readable, and a retained sampler keeps it and not
// the simulated world its engine and settler reach.
func (s *Sampler) Finish() { s.eng, s.settle = nil, nil }

func (s *Sampler) onTick() {
	now := s.eng.Now()
	if s.settle != nil {
		s.settle()
	}
	for _, ps := range s.ports.order {
		if ps.occ == 0 && ps.busy == 0 {
			continue
		}
		util := float64(ps.busy) / float64(s.cfg.Tick)
		ps.busy = 0
		if s.cfg.MaxSamples >= 0 && len(s.samples) >= s.cfg.MaxSamples {
			s.truncated++
			continue
		}
		s.samples = append(s.samples, Sample{Time: now, Port: ps.key, Queue: ps.occ, Util: util})
	}
	if now+s.cfg.Tick <= s.ends {
		// Self-rescheduling tick: the firing frame is reused in place.
		s.eng.SchedAfter(s.cfg.Tick, s.tick)
	}
}

func (s *Sampler) port(sw, port int) *portState {
	ps := s.ports.lookup(sw, port)
	if ps == nil {
		ps = &portState{key: PortKey{sw, port}}
		s.ports.insert(sw, port, ps)
	}
	return ps
}

// Enqueue implements fabric.Observer.
func (s *Sampler) Enqueue(sw, port int, p *packet.Packet, occ units.ByteSize) {
	s.port(sw, port).occ = occ
}

// Transmit implements fabric.Observer.
func (s *Sampler) Transmit(sw, port int, p *packet.Packet, busy units.Time, occ units.ByteSize) {
	ps := s.port(sw, port)
	ps.occ = occ
	ps.busy += busy
}

// Deflect implements fabric.Observer.
func (s *Sampler) Deflect(sw, fromPort, toPort int, p *packet.Packet) {}

// Drop implements fabric.Observer.
func (s *Sampler) Drop(sw, port int, p *packet.Packet, reason metrics.DropReason) {}

// Deliver implements fabric.Observer.
func (s *Sampler) Deliver(host int, p *packet.Packet) {}

// Samples returns the recorded series in (time, first-seen port) order.
func (s *Sampler) Samples() []Sample { return s.samples }

// Truncated returns how many samples were discarded to the MaxSamples cap.
func (s *Sampler) Truncated() int64 { return s.truncated }

// Tick returns the effective sampling period.
func (s *Sampler) Tick() units.Time { return s.cfg.Tick }

// WriteCSV renders the series as samples.csv rows. A non-empty runLabel is
// prepended to every row so series from many runs can share one file.
func (s *Sampler) WriteCSV(w io.Writer, runLabel string, header bool) error {
	cw := csv.NewWriter(w)
	if header {
		if err := cw.Write(SamplesCSVHeader()); err != nil {
			return err
		}
	}
	for _, sm := range s.samples {
		rec := []string{
			runLabel,
			strconv.FormatInt(int64(sm.Time), 10),
			sm.Port.String(),
			strconv.FormatInt(int64(sm.Queue), 10),
			strconv.FormatFloat(sm.Util, 'f', 4, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	// Fault annotations share the schema: the port column carries the
	// transition (e.g. "fault:link-down:5"), queue/util are zero. Plotting
	// tools can split on the "fault:" prefix to draw the fault timeline.
	for _, ev := range s.marks {
		subject := ev.Link
		if ev.Switch >= 0 {
			subject = ev.Switch
		}
		rec := []string{
			runLabel,
			strconv.FormatInt(int64(ev.Time), 10),
			fmt.Sprintf("fault:%s:%d", ev.Kind, subject),
			"0",
			"0",
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("telemetry: writing samples: %w", err)
	}
	return nil
}

// SamplesCSVHeader returns the samples.csv column names.
func SamplesCSVHeader() []string {
	return []string{"run", "time_ns", "port", "queue_bytes", "util"}
}
