package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// FuzzSpec drives arbitrary bytes through the one strict spec decoder and
// the admission resolver. Nothing panics; a decoded spec survives encode →
// decode unchanged; normalizing a spec does not change its hash and is
// idempotent; and resolve either accepts (returning the executable form)
// or returns an error.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		// README and CI.
		`{"experiment":"failover","scale":"tiny","sim_time":"4ms","tenant":"ci"}`,
		`{"experiment":"failover","scale":"tiny","sim_time":"4ms"}`,
		`{"experiment":"failover","scale":"tiny","sim_time":"4ms","seed":3}`,
		`{"experiment":"fig1","scale":"small","jobs":4}`,
		// The crash drill.
		`{"experiment":"failover","scale":"tiny","sim_time":"4ms","chaos_panic_at":"1ms","retries":0}`,
		// A flap that asks for hundreds of millions of events.
		`{"experiment":"failover","scale":"tiny","fault":"flap@0s:link=0,down=1ns,period=2ns,count=200000000"}`,
		`{"experiment":"failover","scale":"tiny","fault":"flap@0s:link=0,down=1ns,period=2ns,count=4611686018427387904"}`,
		`{"experiment":"fig1","scale":"tiny","fault":"flap@5ms:link=16,down=1ms,period=4ms,count=2;corrupt@0s:link=17,ber=1e-3","heal_delay":"500us","jobs":2,"run_timeout":"1m","max_events":1000000,"sample_tick":"100us","trace_flow":1}`,
		`{"experiment":"failover","scale":"huge","sim_time":"-1s","jobs":-3}`,
		`{"experiment":"failover","bogus_field":1}`,
	} {
		f.Add([]byte(seed))
	}
	cfg := (&Config{}).withDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSpec(nil, io.NopCloser(bytes.NewReader(data)))
		if err != nil {
			return
		}
		enc, err := json.Marshal(&s)
		if err != nil {
			t.Fatalf("encoding %+v: %v", s, err)
		}
		again, err := decodeSpec(nil, io.NopCloser(bytes.NewReader(enc)))
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("decode → encode → decode lost the spec: %s → %s → %+v (%v)", data, enc, again, err)
		}
		n := s
		n.Normalize()
		if n.Hash() != s.Hash() {
			t.Fatalf("normalizing %s changed its hash", data)
		}
		nn := n
		if nn.Normalize(); !reflect.DeepEqual(nn, n) {
			t.Fatalf("Normalize is not idempotent on %s", data)
		}
		res, err := s.resolve(cfg)
		if (res == nil) == (err == nil) {
			t.Fatalf("resolve(%s) = %v, %v: want exactly one of them", data, res, err)
		}
	})
}

// FuzzReplayJournal feeds arbitrary journal files — torn tails, duplicate
// and unknown IDs, done records without an accept — to a restarting
// daemon. Replay and resume never panic, and every accepted job without a
// terminal done record is re-enqueued exactly once, unless resume settles it
// (a completed job with its hash, or a spec that no longer resolves).
func FuzzReplayJournal(f *testing.F) {
	accept := func(id, hash, spec string) string {
		return `{"ev":"accept","id":"` + id + `","hash":"` + hash + `","t":"2026-01-02T03:04:05Z","spec":` + spec + "}\n"
	}
	done := func(id, hash, state string) string {
		return `{"ev":"done","id":"` + id + `","hash":"` + hash + `","state":"` + state + `"}` + "\n"
	}
	const ok, other = `{"experiment":"failover","scale":"tiny"}`, `{"experiment":"failover","scale":"tiny","seed":9}`
	for _, seed := range []string{
		"",
		accept("j1", "a", ok),
		accept("j1", "a", ok) + `{"ev":"accept","id":"j2","ha`,
		accept("j1", "a", ok) + accept("j1", "b", other),
		accept("j1", "a", ok) + accept("j2", "b", other) + done("j1", "a", "completed"),
		accept("x-7", "a", ok) + accept("", "b", other),
		done("j9", "a", "completed") + accept("j1", "a", ok),
		accept("j1", "a", ok) + done("j1", "a", "running") + done("j1", "a", ""),
		accept("j1", "h", ok) + done("j1", "h", "completed") + accept("j2", "h", ok),
		accept("j1", "a", `{"experiment":"retired-figure"}`) + accept("j2", "b", `{"experiment":"failover","scale":"galactic"}`),
		accept("j1", "a", "null") + "\n\n" + `{"ev":"done"}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(journalPath(dir), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := replayJournal(dir)
		if err != nil {
			return // a line past the scanner's limit: New refuses the journal
		}
		// The jobs the journal leaves unfinished: the first accept of an ID
		// that carries a spec, with no terminal done record after it.
		pending := map[string]bool{}
		for _, r := range recs {
			_, seen := pending[r.ID]
			switch {
			case r.Ev == "accept" && r.Spec != nil && !seen:
				pending[r.ID] = true
			case r.Ev == "done" && seen && r.State.Terminal():
				pending[r.ID] = false
			}
		}
		s, err := New(Config{DataDir: dir})
		if err != nil {
			t.Fatalf("New after a clean replay: %v", err)
		}
		defer s.journal.Close()
		queued := map[string]int{}
		for _, j := range s.queue {
			queued[j.ID]++
		}
		for id, n := range queued {
			if n != 1 || !pending[id] {
				t.Errorf("job %q queued %d times; unfinished in the journal: %t", id, n, pending[id])
			}
		}
		for id, p := range pending {
			if p && queued[id] == 0 && !s.jobs[id].State.Terminal() {
				t.Errorf("unfinished job %q neither re-enqueued nor settled: %+v", id, s.jobs[id].view())
			}
		}
		if t.Failed() {
			t.Logf("journal:\n%s", strings.TrimSpace(string(journal)))
		}
	})
}
