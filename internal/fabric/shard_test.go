package fabric

import (
	"math/rand"
	"testing"

	"vertigo/internal/units"
)

// TestSortCrossCanonicalOrder: a window's cross-domain arrivals, gathered
// from the source domains' outboxes in whatever order, are injected in the
// canonical (At, SrcSw, SrcPort) order. Arrivals at one instant from several
// switches and ports have exactly one order, the same at every partition, so
// a sharded run is reproducible and a tie is never broken the other way.
func TestSortCrossCanonicalOrder(t *testing.T) {
	var want []CrossItem
	for at := units.Time(1); at <= 3; at++ {
		for sw := int32(0); sw < 4; sw++ {
			for port := int32(0); port < 3; port++ {
				want = append(want, CrossItem{At: at, SrcSw: sw, SrcPort: port, DstSw: 7 - sw})
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		got := append([]CrossItem(nil), want...)
		rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		SortCross(got)
		for i, w := range want {
			if g := got[i]; g.At != w.At || g.SrcSw != w.SrcSw || g.SrcPort != w.SrcPort || g.DstSw != w.DstSw {
				t.Fatalf("trial %d: item %d is (%v, sw %d, port %d), want (%v, sw %d, port %d)",
					trial, i, g.At, g.SrcSw, g.SrcPort, w.At, w.SrcSw, w.SrcPort)
			}
		}
	}
}
