package cuckoo

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInsertContains(t *testing.T) {
	f := New(1000)
	for i := uint64(0); i < 500; i++ {
		if !f.Insert(i) {
			t.Fatalf("insert %d failed at len %d", i, f.Len())
		}
	}
	for i := uint64(0); i < 500; i++ {
		if !f.Contains(i) {
			t.Fatalf("false negative for %d", i)
		}
	}
	if f.Len() != 500 {
		t.Fatalf("Len = %d, want 500", f.Len())
	}
}

func TestDelete(t *testing.T) {
	f := New(100)
	f.Insert(42)
	if !f.Delete(42) {
		t.Fatal("delete of present key failed")
	}
	if f.Contains(42) {
		t.Fatal("key still present after delete")
	}
	if f.Delete(42) {
		t.Fatal("second delete reported success")
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d after delete, want 0", f.Len())
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	f := New(10000)
	for i := uint64(0); i < 10000; i++ {
		f.Insert(i)
	}
	fp := 0
	const probes = 100000
	for i := uint64(1 << 40); i < 1<<40+probes; i++ {
		if f.Contains(i) {
			fp++
		}
	}
	// 16-bit fingerprints give ~0.02% expected; allow an order of margin.
	if rate := float64(fp) / probes; rate > 0.005 {
		t.Fatalf("false positive rate %.4f too high", rate)
	}
}

func TestHighLoadInsertions(t *testing.T) {
	// The filter must take at least its nominal capacity without failing.
	n := 5000
	f := New(n)
	for i := 0; i < n; i++ {
		if !f.Insert(uint64(i)) {
			t.Fatalf("insert failed at %d/%d", i, n)
		}
	}
}

// Property: no false negatives for any insert/delete interleaving where the
// key is inserted and not subsequently deleted.
func TestPropertyNoFalseNegatives(t *testing.T) {
	fcheck := func(keys []uint64, seed int64) bool {
		f := New(4 * (len(keys) + 1))
		rng := rand.New(rand.NewSource(seed))
		live := make(map[uint64]int)
		for _, k := range keys {
			if rng.Intn(3) == 0 && live[k] > 0 {
				f.Delete(k)
				live[k]--
			} else if f.Insert(k) {
				live[k]++
			}
		}
		for k, n := range live {
			if n > 0 && !f.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fcheck, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateInsertions(t *testing.T) {
	// A key inserted twice survives one delete (counting semantics, as the
	// marking component relies on for overlapping retransmission windows).
	f := New(100)
	f.Insert(7)
	f.Insert(7)
	f.Delete(7)
	if !f.Contains(7) {
		t.Fatal("key absent after 2 inserts and 1 delete")
	}
	f.Delete(7)
	if f.Contains(7) {
		t.Fatal("key present after matching deletes")
	}
}

func TestTinyCapacity(t *testing.T) {
	f := New(1)
	if !f.Insert(99) || !f.Contains(99) {
		t.Fatal("tiny filter cannot hold one item")
	}
}

func BenchmarkInsert(b *testing.B) {
	f := New(b.N + 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Insert(uint64(i))
	}
}

func BenchmarkContains(b *testing.B) {
	f := New(1 << 16)
	for i := uint64(0); i < 1<<15; i++ {
		f.Insert(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(uint64(i) & (1<<16 - 1))
	}
}
