package exp

import (
	"sync"
	"testing"
)

// TestParallelExperimentsRace runs two experiments concurrently (as
// `vertigo-exp -parallel` does), each with a parallel inner sweep, under the
// race detector: simulations must share no mutable state.
func TestParallelExperimentsRace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	// One Options for both, as the CLI hands them.
	opt := workers(4)
	opt.Progress = func(string, ...any) {} // exercise the progress path too
	var wg sync.WaitGroup
	for _, id := range []string{"fig13", "defset"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Run(Tiny, opt); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
