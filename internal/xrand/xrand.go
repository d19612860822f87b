// Package xrand is a tiny deterministic PRNG for per-entity random streams.
//
// Every random draw of the fabric — a switch's policy decisions, a port's
// jitter and bit errors — comes from a stream of the element's own; the
// engine's math/rand stream is the workload generators' alone. One shared
// stream makes each draw's value depend on the global *order* of draws: a
// policy's draws shift the generators' (every scheme is offered another
// workload), and a port that replays a transmission when it is next touched,
// rather than in an event of its own, takes its jitter draw at another
// position. A stream per element
// makes draws positional — the k-th draw of a port has the same value whether
// taken when the k-th packet starts serializing or later, when the port
// replays that pop — which the lazy wire relies on.
//
// The generator is splitmix64 (Steele et al., "Fast splittable pseudorandom
// number generators"): 8 bytes of state, one add and three xor-shifts per
// draw, full 2^64 period. A fleet of thousands of ports costs kilobytes,
// where per-port math/rand.Rand sources would cost ~5 KB each.
package xrand

// Source is a splitmix64 PRNG. The zero value is a valid stream (seed 0);
// distinct seeds give statistically independent streams. Not safe for
// concurrent use; values are meant to be embedded, one per entity.
type Source struct {
	state uint64
}

// New returns a source seeded with seed.
func New(seed uint64) Source { return Source{state: seed} }

// Seed resets the stream.
func (s *Source) Seed(seed uint64) { s.state = seed }

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63n returns a uniform random int64 in [0, n). It panics if n <= 0.
// Like math/rand, it rejects the biased tail of the modulo so the
// distribution is exactly uniform.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	if n&(n-1) == 0 { // power of two: mask is exact
		return int64(s.Uint64() & uint64(n-1))
	}
	max := uint64(1)<<63 - 1 - (uint64(1)<<63)%uint64(n)
	v := s.Uint64() >> 1
	for v > max {
		v = s.Uint64() >> 1
	}
	return int64(v % uint64(n))
}

// Float64 returns a uniform random float64 in [0, 1), using the draw's top
// 53 bits.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Mix is a splitmix64 finalizer, exported for deriving stream seeds from
// structured identities (engine seed, switch ID, port index) so that nearby
// identities still yield decorrelated streams.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
