package exp

import (
	"bytes"
	"testing"
)

// These tests pin the sharded contract (core.Config.Shards) as the sweeps
// carry it: the spec's shard count reaching every run of an experiment's
// render. The run-level claims — -shards=1 is the serial engine, -shards=N
// repeats exactly, over every policy, a flap schedule and corrupting links, at
// N = 2 and 4 — are core's TestShardedDegradesToSerial and
// TestShardedDeterministic. Different N are NOT byte-comparable to each other
// or to serial — same-instant event ordering is partition-dependent — and
// DESIGN.md documents why; only statistical agreement holds across N.

// shardedIDs are the experiments the shard tests render: the standard burst
// suite, a fault schedule (fault replication must not double-count when there
// is only one domain) and per-link BER.
var shardedIDs = []string{"fig1", "flapstorm", "corrupt"}

// TestShardIdentitySerial compares -shards=1 at -j8 against the plain serial
// reference (the zero value, rendered as at -j1): neither the dispatch gate
// nor the worker pool may perturb a single byte, and one render differing in
// both proves each — a change from either alone would show.
func TestShardIdentitySerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, id := range shardedIDs {
		want := reference(t, id, observation{}).tables
		opt := workers(8)
		opt.Spec.Shards = 1
		if got := render(t, id, observation{}, opt).tables; !bytes.Equal(got, want) {
			t.Errorf("%s: tables differ at shards=1 j=8 from shards=0 j=1:\n--- baseline ---\n%s\n--- got ---\n%s",
				id, want, got)
		}
	}
}

// TestShardIdentityPerCount pins per-count determinism of a render: at two
// shards the rendered tables are byte-identical at -j1 and -j8. The two
// renders are two independent simulations of every point, so they prove
// repeat determinism as well as independence from the worker count. This is
// the reproducibility promise a sharded artifact ships with — rerunning with
// the same -shards reproduces it exactly, on any machine, at any -j. (Four
// shards are core's TestShardedDeterministic's.)
func TestShardIdentityPerCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	const shards = 2
	for _, id := range shardedIDs {
		want := shardedReference(t, id, observation{}, shards).tables
		if len(want) == 0 {
			t.Fatalf("%s: empty render at shards=%d", id, shards)
		}
		opt := workers(8)
		opt.Spec.Shards = shards
		if got := render(t, id, observation{}, opt).tables; !bytes.Equal(got, want) {
			t.Errorf("%s: tables differ at shards=%d j=8 from j=1:\n--- baseline ---\n%s\n--- got ---\n%s",
				id, shards, want, got)
		}
	}
}
