// Package faults is the deterministic fault-schedule engine: a Schedule is
// an ordered list of timed events — transient link down/up (flaps),
// whole-switch failure and recovery, per-link bit-error corruption, and link
// rate brownouts — that an Injector replays into a running fabric. All
// injection happens on the simulator thread from engine events, so identical
// (seed, schedule) pairs reproduce byte-identical runs.
//
// Schedules are written programmatically (Event literals, Flap) or parsed
// from the compact text form used by the -fault CLI flag:
//
//	down@10ms:link=5; up@14ms:link=5
//	flap@5ms:link=5,down=1ms,period=4ms,count=3
//	swdown@10ms:sw=2; swup@20ms:sw=2
//	corrupt@0s:link=5,ber=1e-3
//	degrade@10ms:link=5,factor=0.25; degrade@20ms:link=5,factor=1
//
// Events are semicolon-separated; each is kind@time[:key=value,...]. Times
// use Go duration syntax. Same-timestamp events apply in schedule order.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"vertigo/internal/units"
)

// Kind is a fault-event type.
type Kind int

// Fault-event kinds.
const (
	// LinkDown fails both directions of a link (carrier loss).
	LinkDown Kind = iota
	// LinkUp restores a failed link.
	LinkUp
	// SwitchDown fails a whole switch: every attached link loses carrier and
	// packets already on the wire toward it are discarded on arrival.
	SwitchDown
	// SwitchUp recovers a failed switch and every attached link.
	SwitchUp
	// Corrupt sets a link's bit-error rate: each packet serialized onto the
	// link is dropped with probability BER. BER zero clears the fault.
	Corrupt
	// Degrade scales a link's rate by Factor (a brownout); Factor 1 restores
	// full speed.
	Degrade
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "down"
	case LinkUp:
		return "up"
	case SwitchDown:
		return "swdown"
	case SwitchUp:
		return "swup"
	case Corrupt:
		return "corrupt"
	case Degrade:
		return "degrade"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault transition.
type Event struct {
	At     units.Time `json:"at_ns"`
	Kind   Kind       `json:"kind"`
	Link   int        `json:"link,omitempty"`   // LinkDown/LinkUp/Corrupt/Degrade
	Switch int        `json:"switch,omitempty"` // SwitchDown/SwitchUp
	BER    float64    `json:"ber,omitempty"`    // Corrupt
	Factor float64    `json:"factor,omitempty"` // Degrade
}

func (e Event) String() string {
	s := fmt.Sprintf("%s@%v", e.Kind, e.At.Duration())
	switch e.Kind {
	case SwitchDown, SwitchUp:
		s += fmt.Sprintf(":sw=%d", e.Switch)
	case Corrupt:
		s += fmt.Sprintf(":link=%d,ber=%g", e.Link, e.BER)
	case Degrade:
		s += fmt.Sprintf(":link=%d,factor=%g", e.Link, e.Factor)
	default:
		s += fmt.Sprintf(":link=%d", e.Link)
	}
	return s
}

// Schedule is an ordered fault program. Order matters only between events
// sharing a timestamp (they apply in slice order); otherwise events fire at
// their own times.
type Schedule struct {
	Events []Event `json:"events"`
}

// Add appends events and returns the schedule for chaining.
func (s *Schedule) Add(evs ...Event) *Schedule {
	s.Events = append(s.Events, evs...)
	return s
}

// Empty reports whether the schedule has no events.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// String renders the schedule in the Parse syntax (round-trippable).
func (s *Schedule) String() string {
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// Flap expands a link flap into alternating down/up events: count cycles
// starting at start, each holding the link down for downFor out of every
// period.
func Flap(link int, start, downFor, period units.Time, count int) []Event {
	evs := make([]Event, 0, 2*count)
	for i := 0; i < count; i++ {
		at := start + units.Time(i)*period
		evs = append(evs,
			Event{At: at, Kind: LinkDown, Link: link},
			Event{At: at + downFor, Kind: LinkUp, Link: link},
		)
	}
	return evs
}

// Validate checks every event against the deployment bounds: numLinks and
// numSwitches cap the index ranges (negative skips that check, for
// validation before the topology is built), and simTime caps event times
// (non-positive skips). Errors name the offending event.
func (s *Schedule) Validate(numLinks, numSwitches int, simTime units.Time) error {
	if s == nil {
		return nil
	}
	for i, e := range s.Events {
		if e.At < 0 {
			return fmt.Errorf("faults: event %d (%s) at negative time", i, e)
		}
		if simTime > 0 && e.At > simTime {
			return fmt.Errorf("faults: event %d (%s) fires after the %v simulation end", i, e, simTime)
		}
		switch e.Kind {
		case LinkDown, LinkUp, Corrupt, Degrade:
			if e.Link < 0 || (numLinks >= 0 && e.Link >= numLinks) {
				return fmt.Errorf("faults: event %d (%s) link %d out of range [0,%d)", i, e, e.Link, numLinks)
			}
		case SwitchDown, SwitchUp:
			if e.Switch < 0 || (numSwitches >= 0 && e.Switch >= numSwitches) {
				return fmt.Errorf("faults: event %d (%s) switch %d out of range [0,%d)", i, e, e.Switch, numSwitches)
			}
		default:
			return fmt.Errorf("faults: event %d has unknown kind %d", i, int(e.Kind))
		}
		// Written so that NaN, which compares false to everything, fails.
		if e.Kind == Corrupt && !(e.BER >= 0 && e.BER <= 1) {
			return fmt.Errorf("faults: event %d (%s) bit-error rate %g outside [0,1]", i, e, e.BER)
		}
		if e.Kind == Degrade && !(e.Factor > 0 && e.Factor <= math.MaxFloat64) {
			return fmt.Errorf("faults: event %d (%s) rate factor %g must be positive and finite", i, e, e.Factor)
		}
	}
	return nil
}

// maxParsed bounds the schedule Parse builds. The text arrives from outside
// (the -fault flag, a vertigo-serve job's fault field) and one flap item
// expands to 2*count events, so without a bound a forty-byte string asks for
// gigabytes before anything is validated.
const maxParsed = 1 << 16

// Parse reads the compact schedule syntax (see the package comment). Flap
// events expand into their down/up pairs, so the returned schedule contains
// only primitive transitions. What Parse accepts passes Validate(-1, -1, 0)
// and holds at most maxParsed events.
func Parse(src string) (*Schedule, error) {
	sched := &Schedule{}
	for _, item := range strings.Split(src, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(item, "@")
		if !ok {
			return nil, fmt.Errorf("faults: event %q missing @time", item)
		}
		timeStr, argStr, _ := strings.Cut(rest, ":")
		at, err := parseTime(timeStr)
		if err != nil {
			return nil, fmt.Errorf("faults: event %q: %w", item, err)
		}
		args, err := parseArgs(argStr)
		if err != nil {
			return nil, fmt.Errorf("faults: event %q: %w", item, err)
		}
		switch kindStr {
		case "down", "up":
			link, err := args.intArg("link")
			if err != nil {
				return nil, fmt.Errorf("faults: event %q: %w", item, err)
			}
			kind := LinkDown
			if kindStr == "up" {
				kind = LinkUp
			}
			sched.Add(Event{At: at, Kind: kind, Link: link})
		case "swdown", "swup":
			sw, err := args.intArg("sw")
			if err != nil {
				return nil, fmt.Errorf("faults: event %q: %w", item, err)
			}
			kind := SwitchDown
			if kindStr == "swup" {
				kind = SwitchUp
			}
			sched.Add(Event{At: at, Kind: kind, Switch: sw})
		case "corrupt":
			link, err1 := args.intArg("link")
			ber, err2 := args.floatArg("ber")
			if err := firstErr(err1, err2); err != nil {
				return nil, fmt.Errorf("faults: event %q: %w", item, err)
			}
			sched.Add(Event{At: at, Kind: Corrupt, Link: link, BER: ber})
		case "degrade":
			link, err1 := args.intArg("link")
			factor, err2 := args.floatArg("factor")
			if err := firstErr(err1, err2); err != nil {
				return nil, fmt.Errorf("faults: event %q: %w", item, err)
			}
			sched.Add(Event{At: at, Kind: Degrade, Link: link, Factor: factor})
		case "flap":
			link, err1 := args.intArg("link")
			downFor, err2 := args.durArg("down")
			period, err3 := args.durArg("period")
			count, err4 := args.intArg("count")
			if err := firstErr(err1, err2, err3, err4); err != nil {
				return nil, fmt.Errorf("faults: event %q: %w", item, err)
			}
			if downFor <= 0 || period <= downFor || count < 1 {
				return nil, fmt.Errorf("faults: event %q needs 0 < down < period and count >= 1", item)
			}
			if count > (maxParsed-len(sched.Events))/2 { // before Flap sizes an array by it
				return nil, fmt.Errorf("faults: event %q takes the schedule past %d events", item, maxParsed)
			}
			// The last cycle's up event is the latest: at + (count-1)*period + down.
			if room := math.MaxInt64 - at; downFor > room || units.Time(count-1) > (room-downFor)/period {
				return nil, fmt.Errorf("faults: event %q: its last cycle ends past the largest representable time", item)
			}
			sched.Add(Flap(link, at, downFor, period, count)...)
		default:
			return nil, fmt.Errorf("faults: event %q has unknown kind %q (down|up|swdown|swup|corrupt|degrade|flap)", item, kindStr)
		}
		if len(sched.Events) > maxParsed {
			return nil, fmt.Errorf("faults: event %q takes the schedule past %d events", item, maxParsed)
		}
	}
	if err := sched.Validate(-1, -1, 0); err != nil {
		return nil, err
	}
	return sched, nil
}

type eventArgs map[string]string

func parseArgs(s string) (eventArgs, error) {
	args := eventArgs{}
	if s == "" {
		return args, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("malformed argument %q (want key=value)", kv)
		}
		args[k] = v
	}
	return args, nil
}

func (a eventArgs) intArg(key string) (int, error) {
	v, ok := a[key]
	if !ok {
		return 0, fmt.Errorf("missing %s=", key)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: %w", key, v, err)
	}
	return n, nil
}

func (a eventArgs) floatArg(key string) (float64, error) {
	v, ok := a[key]
	if !ok {
		return 0, fmt.Errorf("missing %s=", key)
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: %w", key, v, err)
	}
	return f, nil
}

func (a eventArgs) durArg(key string) (units.Time, error) {
	v, ok := a[key]
	if !ok {
		return 0, fmt.Errorf("missing %s=", key)
	}
	return parseTime(v)
}

func parseTime(s string) (units.Time, error) {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("bad duration %q: %w", s, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	return units.FromDuration(d), nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
