package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// flap is a fault schedule that fits the tiny scale's 30 ms window.
const flap = "flap@5ms:link=16,down=1ms,period=4ms,count=2;corrupt@0s:link=17,ber=1e-3"

// resolveStrict decodes a spec the way vertigo-serve does — no unknown
// fields — and resolves it.
func resolveStrict(t *testing.T, raw []byte) (Spec, Scale, *Options) {
	t.Helper()
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	sc, opt, err := s.Resolve()
	if err != nil {
		t.Fatalf("resolving %s: %v", raw, err)
	}
	return s, sc, opt
}

// TestSpecEncodingsAgree: a spec given as vertigo-exp flags and the same
// spec given as vertigo-serve JSON resolve to one sweep — equal Scale,
// equal Options, equal Hash — including when one spells a default out or
// writes a duration another way.
func TestSpecEncodingsAgree(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		json  string
	}{
		{nil, `{}`},
		{[]string{"-scale", "small", "-seed", "1", "-sim-time", "80ms", "-j", "1"}, `{}`},
		{[]string{"-scale", "tiny", "-seed", "3", "-sim-time", "4ms"}, `{"scale":"tiny","seed":3,"sim_time":"4000us"}`},
		{[]string{"-scale", "tiny", "-fault", flap, "-heal-delay", "500us"},
			`{"scale":"tiny","fault":"` + flap + `","heal_delay":"0.5ms"}`},
		{[]string{"-j", "4", "-run-timeout", "2m", "-max-events", "1000000", "-sample-tick", "100us",
			"-trace-flow", "7", "-chaos-panic-at", "40ms"},
			`{"jobs":4,"run_timeout":"120s","max_events":1000000,"sample_tick":"100us","trace_flow":7,"chaos_panic_at":"40ms"}`},
	} {
		var fromFlags Spec
		fs := flag.NewFlagSet("spec", flag.ContinueOnError)
		fromFlags.RegisterFlags(fs)
		if err := fs.Parse(tc.flags); err != nil {
			t.Fatalf("%q: %v", tc.flags, err)
		}
		scA, optA, err := fromFlags.Resolve()
		if err != nil {
			t.Fatalf("%q: %v", tc.flags, err)
		}
		fromJSON, scB, optB := resolveStrict(t, []byte(tc.json))
		if !reflect.DeepEqual(scA, scB) || !reflect.DeepEqual(optA, optB) {
			t.Errorf("%q and %s resolve apart:\n%+v %+v\n%+v %+v", tc.flags, tc.json, scA, optA, scB, optB)
		}
		if a, b := fromFlags.Hash(), fromJSON.Hash(); a != b {
			t.Errorf("%q and %s hash apart: %s vs %s", tc.flags, tc.json, a, b)
		}
	}
}

// TestManifestSpecResolves: manifest.json records what ran — decoding its
// spec and resolving it gives back the sweep's Scale and Options.
func TestManifestSpecResolves(t *testing.T) {
	spec := Spec{Scale: "tiny", Seed: 3, Fault: flap, HealDelay: Duration(500 * time.Microsecond)}
	sc, opt, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m := BuildManifest([]string{"fig1"}, sc, opt.Spec, NewRecorder(), time.Now(), time.Second)
	if err := WriteArtifacts(dir, m, nil, NewRecorder()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spec     json.RawMessage `json:"spec"`
		Hosts    int             `json:"hosts"`
		FatTreeK int             `json:"fattree_k"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Hosts != Tiny.Hosts() || doc.FatTreeK != Tiny.FatTreeK {
		t.Errorf("manifest hosts=%d fattree_k=%d, want %d and %d", doc.Hosts, doc.FatTreeK, Tiny.Hosts(), Tiny.FatTreeK)
	}
	_, sc2, opt2 := resolveStrict(t, doc.Spec)
	if !reflect.DeepEqual(sc, sc2) || !reflect.DeepEqual(opt, opt2) {
		t.Errorf("manifest spec %s resolves to another sweep:\n%+v %+v\n%+v %+v", doc.Spec, sc, opt, sc2, opt2)
	}
}

// TestSpecHashIsStable: a spec's hash is what it was before two fields were
// retired (the shard count and the raw-series mode), for every spec that set
// neither — the values below were computed then — so vertigo-serve journals
// and artifact directories keyed by hash keep resolving.
func TestSpecHashIsStable(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{}, "b4fa7761e5beef4c"},
		{Spec{Scale: "tiny", Seed: 3, SimTime: Duration(4 * time.Millisecond), Jobs: 2,
			Fault: "flap@1ms:link=16,down=500us,period=1ms,count=2", HealDelay: Duration(500 * time.Microsecond),
			RunTimeout: Duration(2 * time.Minute), MaxEvents: 1000000, SampleTick: Duration(100 * time.Microsecond),
			TraceFlow: 7}, "d3b43a0d2adaf1ef"},
	} {
		if got := tc.spec.Hash(); got != tc.want {
			t.Errorf("%+v hashes to %s, want %s", tc.spec, got, tc.want)
		}
	}
}
