package vertigo_test

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"vertigo"
)

// The §4.4 ordering benchmarks pass one instant to every call. A receive path
// passes each frame's arrival time instead, so nearly every call moves the
// orderer's clock; these variants measure that traffic. Their clock starts at
// time.Now(), so its readings carry the monotonic clock, as a caller's do.

func BenchmarkOrderingInOrderMovingClock(b *testing.B) {
	o := vertigo.NewOrderer(vertigo.OrdererOptions{})
	now := time.Now()
	const n = 1 << 14
	segs := markedSegments(b, 1, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := segs[i%n]
		s.Key += uint64(i / n)
		now = now.Add(time.Microsecond)
		o.Receive(now, s)
	}
}

func BenchmarkOrderingReversedWindowsMovingClock(b *testing.B) {
	const win = 16
	const n = 1 << 14
	o := vertigo.NewOrderer(vertigo.OrdererOptions{})
	now := time.Now()
	segs := markedSegments(b, 1, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := i % n
		base := pos / win * win
		s := segs[base+win-1-pos%win]
		s.Key += uint64(i / n)
		now = now.Add(time.Microsecond)
		o.Receive(now, s)
	}
}

// BenchmarkOrderingJitteredArrivals runs vertigo-hostdemo's receive loop at
// -loss 0: every segment of 16 flows arrives up to 200 µs late, so a few
// share each instant and most are held, and the loop expires any due
// deadline before each Receive. One op is one arrival; each round of the
// schedule starts 1 ms after the last, under fresh flow keys.
func BenchmarkOrderingJitteredArrivals(b *testing.B) {
	const flows, segsPerFlow = 16, 64
	const jitterUS, round = 200, time.Millisecond
	type arrival struct {
		at  time.Duration
		seg vertigo.Segment
	}
	rng := rand.New(rand.NewSource(1))
	var sched []arrival
	for f := uint64(1); f <= flows; f++ {
		for _, s := range markedSegments(b, f, segsPerFlow) {
			sched = append(sched, arrival{time.Duration(rng.Intn(jitterUS+1)) * time.Microsecond, s})
		}
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].at < sched[j].at })
	o := vertigo.NewOrderer(vertigo.OrdererOptions{Timeout: 360 * time.Microsecond})
	start := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, a := i/len(sched), sched[i%len(sched)]
		at := start.Add(time.Duration(r)*round + a.at)
		s := a.seg
		s.Key += uint64(r * flows)
		if dl, ok := o.NextDeadline(); ok && !at.Before(dl) {
			o.Expire(at)
		}
		o.Receive(at, s)
	}
}
