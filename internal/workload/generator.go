package workload

import (
	"math"
	"math/rand"

	"vertigo/internal/metrics"
	"vertigo/internal/sim"
	"vertigo/internal/units"
)

// FlowStarter launches one flow; the core wires it to a transport sender.
// query is the owning incast query ID, or -1 for background flows.
type FlowStarter func(src, dst int, size int64, incast bool, query int)

// expInterval draws an exponential inter-arrival for a Poisson process with
// the given mean rate (events per second).
func expInterval(eng *sim.Engine, perSecond float64) units.Time {
	if perSecond <= 0 {
		return units.Time(math.MaxInt64 / 4)
	}
	d := eng.Rand().ExpFloat64() / perSecond
	t := units.Time(d * float64(units.Second))
	if t < 1 {
		t = 1
	}
	return t
}

// Background generates all-to-all background flows: Poisson arrivals at an
// aggregate rate chosen so the expected offered load equals a fraction of
// the hosts' total access-link capacity, with sizes from an empirical
// distribution — the paper's background traffic model (§4.1).
type Background struct {
	Eng      *sim.Engine
	Hosts    int
	Dist     *SizeDist
	HostRate units.BitRate
	Load     float64 // fraction of aggregate host capacity, e.g. 0.5
	Start    FlowStarter

	rate    float64 // flows per second
	until   units.Time
	arrival func() // the one arrival handler, built by Run
}

// Rate returns the aggregate flow arrival rate in flows per second.
func (b *Background) Rate() float64 { return b.rate }

// Run starts the arrival process; it self-perpetuates until the deadline.
func (b *Background) Run(until units.Time) {
	if b.Load <= 0 || b.Hosts < 2 {
		return
	}
	capacityBps := float64(b.HostRate) * float64(b.Hosts)
	b.rate = b.Load * capacityBps / (8 * b.Dist.MeanBytes())
	b.until = until
	b.arrival = func() {
		rng := b.Eng.Rand()
		src := rng.Intn(b.Hosts)
		dst := rng.Intn(b.Hosts - 1)
		if dst >= src {
			dst++
		}
		b.Start(src, dst, b.Dist.Sample(rng), false, -1)
		b.next()
	}
	b.next()
}

func (b *Background) next() {
	at := b.Eng.Now() + expInterval(b.Eng, b.rate)
	if at > b.until {
		return
	}
	b.Eng.At(at, b.arrival)
}

// Incast generates the paper's microburst application: at rate QPS, a random
// client queries Scale random servers, each of which responds with FlowSize
// bytes; the query completes when every response flow finishes (§4.1).
type Incast struct {
	Eng      *sim.Engine
	Met      *metrics.Collector
	Hosts    int
	QPS      float64
	Scale    int
	FlowSize int64
	// Periodic fires queries at fixed 1/QPS intervals (the §2 incast app
	// sends "at predefined intervals"); the default is Poisson arrivals.
	Periodic bool
	// RequestDelay models the query packet's trip from client to servers.
	RequestDelay units.Time
	Start        FlowStarter

	perm    []int // fire's server permutation, reused across queries
	until   units.Time
	arrival func() // the one query-arrival handler, built by Run

	// Requests on their way to the servers: fire parks each in a slot of reqs
	// and schedules respond with the slot number; respond frees the slot, so
	// the table stays as large as the most requests ever in flight at once.
	reqs    []request
	freeReq []uint32
	respond sim.ArgHandler
}

// request is one server's share of a query, between the query firing and
// the request reaching the server.
type request struct{ server, client, query int }

// fanIn returns how many servers answer one query: scale, clamped to the
// hosts-1 a client can ask. fire picks that many and the load conversions
// below count that many, so a fabric smaller than scale is offered the load
// it was asked for.
func fanIn(scale, hosts int) int { return min(scale, hosts-1) }

// Load returns the incast traffic's offered load as a fraction of aggregate
// host access capacity.
func (ic *Incast) Load(hostRate units.BitRate) float64 {
	return ic.QPS * float64(fanIn(ic.Scale, ic.Hosts)) * float64(ic.FlowSize) * 8 /
		(float64(hostRate) * float64(ic.Hosts))
}

// QPSForLoad returns the query rate that offers the given load fraction.
func QPSForLoad(load float64, hosts, scale int, flowSize int64, hostRate units.BitRate) float64 {
	scale = fanIn(scale, hosts)
	if scale <= 0 || flowSize <= 0 {
		return 0
	}
	return load * float64(hostRate) * float64(hosts) / (float64(scale) * float64(flowSize) * 8)
}

// Run starts the query process; it self-perpetuates until the deadline.
func (ic *Incast) Run(until units.Time) {
	if ic.QPS <= 0 || ic.Scale <= 0 || ic.Hosts < 2 {
		return
	}
	ic.until = until
	ic.arrival = func() {
		ic.fire()
		ic.next()
	}
	ic.respond = func(slot uint64) {
		r := ic.reqs[slot]
		ic.freeReq = append(ic.freeReq, uint32(slot))
		ic.Start(r.server, r.client, ic.FlowSize, true, r.query)
	}
	ic.next()
}

func (ic *Incast) next() {
	var gap units.Time
	if ic.Periodic {
		gap = units.Time(float64(units.Second) / ic.QPS)
		if gap < 1 {
			gap = 1
		}
	} else {
		gap = expInterval(ic.Eng, ic.QPS)
	}
	at := ic.Eng.Now() + gap
	if at > ic.until {
		return
	}
	ic.Eng.At(at, ic.arrival)
}

// permInto fills m with the permutation rng.Perm(len(m)) would return,
// drawing exactly what Perm draws, without Perm's allocation (8 KB a query
// at 1024 hosts). m's previous contents do not matter: the only stale value
// the loop reads is m[i] when j == i, and it overwrites that at once.
func permInto(rng *rand.Rand, m []int) {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}

// fire launches one query now.
func (ic *Incast) fire() {
	rng := ic.Eng.Rand()
	client := rng.Intn(ic.Hosts)
	scale := fanIn(ic.Scale, ic.Hosts)
	query := ic.Met.StartQuery(scale, ic.Eng.Now())
	// Sample `scale` distinct servers != client by partial Fisher-Yates over
	// the host range with the client swapped out.
	if len(ic.perm) != ic.Hosts {
		ic.perm = make([]int, ic.Hosts)
	}
	permInto(rng, ic.perm)
	picked := 0
	for _, s := range ic.perm {
		if s == client {
			continue
		}
		var slot uint32
		if n := len(ic.freeReq); n > 0 {
			slot, ic.freeReq = ic.freeReq[n-1], ic.freeReq[:n-1]
		} else {
			slot = uint32(len(ic.reqs))
			ic.reqs = append(ic.reqs, request{})
		}
		ic.reqs[slot] = request{server: s, client: client, query: query}
		ic.Eng.AfterArg(ic.RequestDelay, ic.respond, uint64(slot))
		picked++
		if picked == scale {
			break
		}
	}
}
