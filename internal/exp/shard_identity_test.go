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

// TestShardIdentitySerial compares -shards=1 (and the explicit zero value)
// against the plain serial baseline at -j1 and -j8: the dispatch gate must
// not perturb a single byte. fig1 is the standard burst suite; flapstorm
// carries a fault schedule (fault replication must not double-count when
// there is only one domain); corrupt sweeps per-link BER.
func TestShardIdentitySerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, id := range []string{"fig1", "flapstorm", "corrupt"} {
		want := renderShards(t, id, 0, 1)
		for _, shards := range []int{0, 1} {
			for _, conc := range []int{1, 8} {
				if shards == 0 && conc == 1 {
					continue // the baseline itself
				}
				got := renderShards(t, id, shards, conc)
				if !bytes.Equal(got, want) {
					t.Errorf("%s: tables differ at shards=%d j=%d from shards=0 j=1:\n--- baseline ---\n%s\n--- got ---\n%s",
						id, shards, conc, want, got)
				}
			}
		}
	}
}

// TestShardIdentityPerCount pins per-count determinism: for each shard
// count the rendered tables are byte-identical across repeated runs and
// across sweep worker counts. This is the reproducibility promise a
// sharded artifact ships with — rerunning with the same -shards reproduces
// it exactly, on any machine, at any -j.
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
			for _, conc := range []int{1, 8} {
				if conc == 1 {
					got := renderShards(t, id, shards, 1)
					if !bytes.Equal(got, want) {
						t.Errorf("%s: tables differ between repeated runs at shards=%d", id, shards)
					}
					continue
				}
				got := renderShards(t, id, shards, conc)
				if !bytes.Equal(got, want) {
					t.Errorf("%s: tables differ at shards=%d j=%d from j=1:\n--- baseline ---\n%s\n--- got ---\n%s",
						id, shards, conc, want, got)
				}
			}
		}
	}
}
