package exp

import (
	"bytes"
	"testing"
)

// These tests pin the acceptance criteria for sharded multi-core execution
// (core.Config.Shards). The contract has two halves:
//
//   - -shards=1 is the untouched serial engine: artifacts are byte-identical
//     to a run that never heard of sharding.
//   - -shards=N (N>1) is a deterministic universe of its own: for a fixed N
//     the artifacts are byte-identical across repeated runs and any sweep
//     worker count. Different N are NOT byte-comparable to each other or to
//     serial — same-instant event ordering is partition-dependent — and
//     DESIGN.md documents why; only statistical agreement holds across N.

// renderShards renders an experiment's tables at Tiny scale with the given
// shard count and sweep concurrency.
func renderShards(t *testing.T, id string, shards, conc int) []byte {
	t.Helper()
	opt := workers(conc)
	opt.Spec.Shards = shards
	return renderAll(t, id, opt)
}

// TestShardIdentitySerial compares -shards=1 at -j8 against the plain serial
// baseline (the zero value at -j1): neither the dispatch gate nor the worker
// pool may perturb a single byte, and one render differing in both proves
// each — a change from either alone would show. fig1 is the standard burst
// suite; flapstorm carries a fault schedule (fault replication must not
// double-count when there is only one domain); corrupt sweeps per-link BER.
func TestShardIdentitySerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, id := range []string{"fig1", "flapstorm", "corrupt"} {
		want := renderShards(t, id, 0, 1)
		if got := renderShards(t, id, 1, 8); !bytes.Equal(got, want) {
			t.Errorf("%s: tables differ at shards=1 j=8 from shards=0 j=1:\n--- baseline ---\n%s\n--- got ---\n%s",
				id, want, got)
		}
	}
}

// TestShardIdentityPerCount pins per-count determinism: for each shard
// count the rendered tables are byte-identical at -j1 and -j8. The two
// renders are two independent runs of every point, so they prove repeat
// determinism as well as independence from the worker count. This is the
// reproducibility promise a sharded artifact ships with — rerunning with the
// same -shards reproduces it exactly, on any machine, at any -j.
func TestShardIdentityPerCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, id := range []string{"fig1", "flapstorm", "corrupt"} {
		for _, shards := range []int{2, 4} {
			want := renderShards(t, id, shards, 1)
			if len(want) == 0 {
				t.Fatalf("%s: empty render at shards=%d", id, shards)
			}
			if got := renderShards(t, id, shards, 8); !bytes.Equal(got, want) {
				t.Errorf("%s: tables differ at shards=%d j=8 from j=1:\n--- baseline ---\n%s\n--- got ---\n%s",
					id, shards, want, got)
			}
		}
	}
}
