package arena

import "testing"

func TestGetReturnsRequestedCapacity(t *testing.T) {
	var a Pool[int]
	for _, n := range []int{1, 2, 3, 7, 8, 9, 100, 1 << 10, (1 << 10) + 1} {
		s := a.Get(n)
		if len(s) != 0 || cap(s) < n {
			t.Fatalf("Get(%d): len=%d cap=%d", n, len(s), cap(s))
		}
	}
}

func TestRecycleRoundTrip(t *testing.T) {
	var a Pool[int]
	s := a.Get(100)
	s = append(s, 1, 2, 3)
	a.Put(s)
	r := a.Get(100)
	if cap(r) < 100 || len(r) != 0 {
		t.Fatalf("recycled: len=%d cap=%d", len(r), cap(r))
	}
	if a.Hits() != 1 {
		t.Fatalf("hits = %d, want 1", a.Hits())
	}
	// Zeroed on Put: stale contents must not leak through a reslice.
	r = r[:3]
	if r[0] != 0 || r[1] != 0 || r[2] != 0 {
		t.Fatalf("recycled array not zeroed: %v", r)
	}
}

func TestPointerSlicesZeroedOnPut(t *testing.T) {
	var a Pool[*int]
	x := new(int)
	s := a.Get(8)
	s = append(s, x, x, x)
	a.Put(s)
	full := s[:cap(s)]
	for i, p := range full {
		if p != nil {
			t.Fatalf("element %d still pins pointer after Put", i)
		}
	}
}

func TestLooseFitOneClassUp(t *testing.T) {
	var a Pool[byte]
	a.Put(make([]byte, 0, 16))
	if s := a.Get(7); cap(s) < 16 {
		// class 3 empty; class 4's array is an acceptable loose fit
		t.Fatalf("Get(7) allocated fresh (cap=%d) with a class-up array available", cap(s))
	}
	if a.Hits() != 1 {
		t.Fatalf("hits = %d, want 1", a.Hits())
	}
}

func TestClassRetentionBounded(t *testing.T) {
	var a Pool[int]
	for i := 0; i < 3*maxPerClass; i++ {
		a.Put(make([]int, 0, 256))
	}
	if got := len(a.classes[8]); got != maxPerClass {
		t.Fatalf("class retained %d arrays, want %d", got, maxPerClass)
	}
}

func TestDegenerateInputs(t *testing.T) {
	var a Pool[byte]
	a.Put(nil)             // no-op
	a.Put(make([]byte, 0)) // zero cap: no-op
	if s := a.Get(0); cap(s) < 1 {
		t.Fatalf("Get(0) returned cap %d", cap(s))
	}
	// Above the largest recyclable class: served exactly, never recycled.
	big := a.Get(1 << numClasses)
	if cap(big) < 1<<numClasses {
		t.Fatalf("oversized Get returned cap %d", cap(big))
	}
	a.Put(big)
	if a.Get(1<<numClasses) != nil && a.Hits() != 0 {
		t.Fatal("oversized array was recycled")
	}
}

// TestSmallClassesAreCarvedFromChunks: a miss in a small class costs an
// allocation per chunk, not per array; every carved array has exactly its
// class's capacity, none overlaps another — each keeps what was written to it
// while its neighbours are filled to capacity — and carved arrays round-trip
// through Put and Get by class, however many are returned.
func TestSmallClassesAreCarvedFromChunks(t *testing.T) {
	var a Pool[int]
	const perClass = 40 // more than maxPerClass: small classes retain them all
	var held [][]int
	next := 1
	allocs := testing.AllocsPerRun(1, func() {
		for c := 0; c < carveClasses; c++ {
			for i := 0; i < perClass; i++ {
				s := a.Get(1 << c)
				if len(s) != 0 || cap(s) != 1<<c {
					t.Fatalf("Get(%d): len=%d cap=%d, want a carved array of exactly the class", 1<<c, len(s), cap(s))
				}
				for len(s) < cap(s) {
					s = append(s, next)
				}
				next++
				held = append(held, s)
			}
		}
	})
	total := perClass * (1<<carveClasses - 1)
	if want := float64(total/chunkLen + 1 + 16); allocs > want { // chunks, plus the test's own list growing
		t.Fatalf("carving %d arrays of %d elements made %.0f allocations, want at most %.0f", len(held), total, allocs, want)
	}
	for i, s := range held {
		for _, v := range s {
			if v != i+1 {
				t.Fatalf("array %d (cap %d) holds %d: it shares memory with array %d", i, cap(s), v, v-1)
			}
		}
	}
	for _, s := range held {
		a.Put(s)
	}
	misses := a.Misses()
	for c := 0; c < carveClasses; c++ {
		seen := map[*int]bool{}
		for i := 0; i < perClass; i++ {
			s := a.Get(1 << c)
			if cap(s) != 1<<c {
				t.Fatalf("recycled Get(%d) has cap %d", 1<<c, cap(s))
			}
			if s = s[:1]; s[0] != 0 || seen[&s[0]] {
				t.Fatalf("recycled Get(%d) #%d: dirty, or handed out twice", 1<<c, i)
			}
			seen[&s[0]] = true
		}
	}
	if a.Misses() != misses {
		t.Fatalf("%d of the returned arrays were not kept", a.Misses()-misses)
	}
}

// TestChunksStartSmallAndDouble: a pool's first chunk is firstChunk elements
// and each next one twice the last, up to chunkLen — so a pool that hands out
// a single small array holds a small chunk — and a class larger than the
// next doubling gets a chunk of its own size.
func TestChunksStartSmallAndDouble(t *testing.T) {
	var a Pool[int]
	var got []int
	for len(got) < 12 {
		if a.Get(1); len(a.chunk) == a.chunkN-1 { // a fresh chunk's first array
			got = append(got, a.chunkN)
		}
	}
	want := []int{16, 32, 64, 128, 256, 512, 1024, 2048, 2048, 2048, 2048, 2048}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunk lengths %v, want %v", got, want)
		}
	}
	var b Pool[int]
	if b.Get(1 << (carveClasses - 1)); b.chunkN != 1<<(carveClasses-1) {
		t.Fatalf("a first miss for %d elements carved a chunk of %d", 1<<(carveClasses-1), b.chunkN)
	}
}
