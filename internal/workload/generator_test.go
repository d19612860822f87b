package workload

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"vertigo/internal/metrics"
	"vertigo/internal/sim"
	"vertigo/internal/units"
)

func TestBackgroundOffersConfiguredLoad(t *testing.T) {
	eng := sim.NewEngine(1)
	var bytes int64
	flows := 0
	bg := &Background{
		Eng:      eng,
		Hosts:    64,
		Dist:     CacheFollower,
		HostRate: 10 * units.Gbps,
		Load:     0.5,
		Start: func(src, dst int, size int64, incast bool, query int) {
			if src == dst {
				t.Fatal("background flow to self")
			}
			if incast || query != -1 {
				t.Fatal("background flow marked as incast")
			}
			bytes += size
			flows++
		},
	}
	const horizon = 200 * units.Millisecond
	bg.Run(horizon)
	eng.Run(horizon)
	if flows == 0 {
		t.Fatal("no background flows generated")
	}
	offered := float64(bytes) * 8 / horizon.Seconds()
	want := 0.5 * float64(10*units.Gbps) * 64
	if offered < want*0.8 || offered > want*1.2 {
		t.Errorf("offered %.3g bps, want ~%.3g (50%% of 64x10G)", offered, want)
	}
}

func TestBackgroundZeroLoadGeneratesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	bg := &Background{
		Eng: eng, Hosts: 8, Dist: CacheFollower, HostRate: 10 * units.Gbps,
		Load:  0,
		Start: func(int, int, int64, bool, int) { t.Fatal("flow at zero load") },
	}
	bg.Run(units.Second)
	eng.Run(units.Second)
}

func TestIncastQueryStructure(t *testing.T) {
	eng := sim.NewEngine(1)
	met := metrics.NewCollector()
	type flow struct{ src, dst int }
	flowsByQuery := make(map[int][]flow)
	ic := &Incast{
		Eng: eng, Met: met, Hosts: 32,
		QPS: 1000, Scale: 10, FlowSize: 40000,
		RequestDelay: 5 * units.Microsecond,
		Start: func(src, dst int, size int64, incast bool, query int) {
			if !incast || size != 40000 {
				t.Fatalf("bad incast flow: incast=%v size=%d", incast, size)
			}
			flowsByQuery[query] = append(flowsByQuery[query], flow{src, dst})
		},
	}
	const horizon = 100 * units.Millisecond
	ic.Run(horizon)
	eng.Run(horizon + units.Second)
	if len(met.Queries) == 0 {
		t.Fatal("no queries generated")
	}
	for q, fs := range flowsByQuery {
		if len(fs) != 10 {
			t.Fatalf("query %d has %d flows, want 10", q, len(fs))
		}
		client := fs[0].dst
		seen := map[int]bool{}
		for _, f := range fs {
			if f.dst != client {
				t.Fatalf("query %d has multiple clients", q)
			}
			if f.src == client {
				t.Fatalf("query %d: client is its own server", q)
			}
			if seen[f.src] {
				t.Fatalf("query %d: duplicate server %d", q, f.src)
			}
			seen[f.src] = true
		}
	}
}

func TestIncastScaleClampedToHosts(t *testing.T) {
	eng := sim.NewEngine(1)
	met := metrics.NewCollector()
	count := 0
	ic := &Incast{
		Eng: eng, Met: met, Hosts: 4,
		QPS: 100, Scale: 100, FlowSize: 1000,
		Start: func(src, dst int, size int64, incast bool, query int) { count++ },
	}
	ic.Run(100 * units.Millisecond)
	eng.Run(200 * units.Millisecond)
	if len(met.Queries) == 0 {
		t.Fatal("no queries")
	}
	if count != len(met.Queries)*3 {
		t.Fatalf("flows %d, want %d (scale clamped to hosts-1=3)", count, len(met.Queries)*3)
	}
}

func TestQPSForLoadInvertsLoad(t *testing.T) {
	qps := QPSForLoad(0.4, 320, 100, 40_000, 10*units.Gbps)
	ic := &Incast{Hosts: 320, QPS: qps, Scale: 100, FlowSize: 40_000}
	if got := ic.Load(10 * units.Gbps); got < 0.399 || got > 0.401 {
		t.Fatalf("round-trip load %.4f, want 0.4", got)
	}
	// Four hosts answer a 100-way query three at a time; both directions of
	// the conversion count three.
	small := &Incast{Hosts: 4, QPS: QPSForLoad(0.4, 4, 100, 40_000, 10*units.Gbps), Scale: 100, FlowSize: 40_000}
	if got := small.Load(10 * units.Gbps); got < 0.399 || got > 0.401 {
		t.Fatalf("round-trip load on 4 hosts %.4f, want 0.4", got)
	}
	if want := QPSForLoad(0.4, 4, 3, 40_000, 10*units.Gbps); small.QPS != want {
		t.Fatalf("scale 100 on 4 hosts asks %.1f qps, scale 3 asks %.1f", small.QPS, want)
	}
	if QPSForLoad(0.5, 10, 0, 100, units.Gbps) != 0 {
		t.Fatal("zero scale should yield zero QPS")
	}
}

func TestIncastRate(t *testing.T) {
	eng := sim.NewEngine(7)
	met := metrics.NewCollector()
	ic := &Incast{
		Eng: eng, Met: met, Hosts: 64,
		QPS: 4000, Scale: 5, FlowSize: 1000,
		Start: func(int, int, int64, bool, int) {},
	}
	const horizon = 500 * units.Millisecond
	ic.Run(horizon)
	eng.Run(horizon + units.Second)
	got := float64(len(met.Queries)) / horizon.Seconds()
	if got < 3200 || got > 4800 {
		t.Errorf("query rate %.0f/s, want ~4000", got)
	}
}

func TestIncastPeriodicIntervals(t *testing.T) {
	eng := sim.NewEngine(1)
	met := metrics.NewCollector()
	var times []units.Time
	ic := &Incast{
		Eng: eng, Met: met, Hosts: 16,
		QPS: 1000, Scale: 2, FlowSize: 1000, Periodic: true,
		Start: func(int, int, int64, bool, int) {},
	}
	ic.Run(10 * units.Millisecond)
	eng.Run(20 * units.Millisecond)
	for _, q := range met.Queries {
		times = append(times, q.Start)
	}
	if len(times) != 10 {
		t.Fatalf("%d queries in 10ms at 1000 QPS periodic, want 10", len(times))
	}
	for i := 1; i < len(times); i++ {
		if d := times[i] - times[i-1]; d != units.Millisecond {
			t.Fatalf("interval %v, want exactly 1ms", d)
		}
	}
}

// TestPermIntoMatchesRandPerm pins the reusable permutation to math/rand's:
// from the same source state it must return the same permutation and leave
// the source in the same state, whatever the buffer held before, or every
// incast run's server choice (and sim_digest) would move.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 16, 1024} {
		want, got := rand.New(rand.NewSource(int64(n)+3)), rand.New(rand.NewSource(int64(n)+3))
		buf := make([]int, n)
		for round := 0; round < 3; round++ { // later rounds reuse a dirty buffer
			w := want.Perm(n)
			permInto(got, buf)
			if !slices.Equal(buf, w) {
				t.Fatalf("n=%d round %d: permInto = %v, rand.Perm = %v", n, round, buf, w)
			}
			if a, b := got.Int63(), want.Int63(); a != b {
				t.Fatalf("n=%d round %d: source states diverged (%d vs %d)", n, round, a, b)
			}
		}
	}
}

// TestIncastFireDoesNotAllocatePermutation: after the first query sized the
// permutation buffer and the request table, a query allocates nothing
// proportional to the host count or to its fan-out — requests ride recycled
// table slots and argument events, not a closure each — and the table stays
// as large as one query's requests in flight.
func TestIncastFireDoesNotAllocatePermutation(t *testing.T) {
	eng := sim.NewEngine(1)
	const scale = 32
	started := 0
	ic := &Incast{
		Eng: eng, Met: metrics.NewCollector(), Hosts: 1024, QPS: 1, Scale: scale, FlowSize: 1000,
		RequestDelay: 5 * units.Microsecond,
		Start: func(src, dst int, _ int64, incast bool, query int) {
			if !incast || src == dst || query != started/scale {
				t.Fatalf("response %d: src %d dst %d incast %v query %d", started, src, dst, incast, query)
			}
			started++
		},
	}
	ic.Run(0) // builds the handlers; the first arrival falls past the deadline
	query := func() {
		ic.fire()
		eng.Run(eng.Now() + 10*units.Microsecond)
	}
	query()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const fires = 200
	for i := 0; i < fires; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	// What is left is the engine growing the calendar bucket the query's
	// requests land in (three doublings) and the collector's query log.
	if per := float64(after.Mallocs-before.Mallocs) / fires; per > 4 {
		t.Fatalf("a query allocates %.1f objects; a closure per request made it %d and more", per, scale)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / fires; per > 2048 {
		t.Fatalf("a query allocates %d B at 1024 hosts; the permutation alone was 8192", per)
	}
	if started != (fires+1)*scale || len(ic.reqs) != scale {
		t.Fatalf("%d responses started (want %d), request table holds %d slots (want %d)",
			started, (fires+1)*scale, len(ic.reqs), scale)
	}
}
