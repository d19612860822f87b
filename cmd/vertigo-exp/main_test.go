package main

import (
	"bytes"
	"errors"
	"testing"

	"vertigo/internal/obs"
)

// TestCLIRejectsBeforeRunning: a spec that cannot run — a fault after the
// end of the simulated window, a negative heal delay — is an error before
// anything prints and before the first run starts.
func TestCLIRejectsBeforeRunning(t *testing.T) {
	started := obs.Default.Counter("vertigo_exp_runs_started_total", "experiment runs started")
	for name, args := range map[string][]string{
		"fault past the window": {"-scale", "tiny", "-fault", "flap@1s:link=16,down=1ms,period=4ms,count=2", "failover"},
		"negative heal delay":   {"-scale", "tiny", "-heal-delay", "-1ms", "failover"},
	} {
		before := started.Value()
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil || errors.Is(err, errUsage) {
			t.Errorf("%s: err = %v, want a spec error", name, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed before rejecting:\n%s", name, stdout.String())
		}
		if n := started.Value() - before; n != 0 {
			t.Errorf("%s: %d runs started before the rejection", name, n)
		}
	}
}
