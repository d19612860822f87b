package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.Gauge("g", "a gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}

	h := r.Histogram("h_ns", "a histogram")
	for _, v := range []int64{0, 1, 2, 3, 1000, 1 << 40} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("hist count = %d, want 6", h.Count())
	}
	wantSum := int64(0 + 1 + 2 + 3 + 1000 + 1<<40)
	if h.Sum() != wantSum {
		t.Fatalf("hist sum = %d, want %d", h.Sum(), wantSum)
	}
	snap := h.Snapshot()
	var n uint64
	for _, b := range snap.Buckets {
		n += b.Count
	}
	if n != snap.Count {
		t.Fatalf("bucket counts sum to %d, snapshot count %d", n, snap.Count)
	}
	// p50 of {0,1,2,3,1000,1<<40}: nearest-rank 3 lands in the bucket
	// holding 2 and 3, whose upper edge is 3.
	if q := snap.Quantile(0.5); q != 3 {
		t.Fatalf("p50 = %d, want 3", q)
	}
	if q := snap.Quantile(1); q < 1<<40 {
		t.Fatalf("p100 = %d, want >= 2^40", q)
	}
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "")
	c2 := r.Counter("x_total", "")
	if c1 != c2 {
		t.Fatal("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("drops_total", "", "reason", "overflow", "fault")
	v.At(0).Add(2)
	v.At(1).Inc()
	v2 := r.CounterVec("drops_total", "", "reason", "overflow", "fault")
	if v2.At(0).Value() != 2 || v2.At(1).Value() != 1 {
		t.Fatalf("vec values = %d,%d want 2,1", v2.At(0).Value(), v2.At(1).Value())
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "")
	r.Gauge("aaa", "")
	snaps := r.Snapshot()
	if len(snaps) != 2 || snaps[0].Name != "aaa" || snaps[1].Name != "zzz_total" {
		t.Fatalf("snapshot not sorted: %+v", snaps)
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_events_total", "events\nwith newline").Add(3)
	r.Gauge("t_pending", "live").Set(-2)
	h := r.Histogram("t_fct_ns", "fct")
	h.Observe(1)
	h.Observe(5)
	v := r.CounterVec("t_drops_total", "", "reason", "overflow", `odd"label\`)
	v.At(1).Inc()

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP t_events_total events\\nwith newline\n",
		"# TYPE t_events_total counter\n",
		"t_events_total 3\n",
		"t_pending -2\n",
		"# TYPE t_fct_ns histogram\n",
		"t_fct_ns_bucket{le=\"1\"} 1\n",
		"t_fct_ns_bucket{le=\"7\"} 2\n",
		"t_fct_ns_bucket{le=\"+Inf\"} 2\n",
		"t_fct_ns_sum 6\n",
		"t_fct_ns_count 2\n",
		"t_drops_total{reason=\"overflow\"} 0\n",
		"t_drops_total{reason=\"odd\\\"label\\\\\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteProm output missing %q\n---\n%s", want, out)
		}
	}
	// Cumulative le buckets must be non-decreasing in both edge and count.
	if strings.Index(out, `le="1"`) > strings.Index(out, `le="7"`) {
		t.Error("histogram buckets out of order")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("e_total", "").Inc()
	srv := httptest.NewServer(Handler(r, func() any { return map[string]int{"runs": 7} }))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "e_total 1") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	code, body := get("/statusz")
	if code != 200 {
		t.Fatalf("/statusz = %d", code)
	}
	var doc struct {
		Build   BuildInfo      `json:"build"`
		Status  map[string]int `json:"status"`
		Metrics []FamilySnap   `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if doc.Build.GoVersion == "" || doc.Status["runs"] != 7 || len(doc.Metrics) != 1 {
		t.Fatalf("/statusz content wrong: %+v", doc)
	}
	if code, _ := get("/debug/vars"); code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("/nope = %d, want 404", code)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := int64(0); i < 10; i++ {
		fr.Record(FlightEvent, i, i*10, 0, 0)
	}
	if fr.Total() != 10 || fr.Len() != 4 {
		t.Fatalf("total=%d len=%d, want 10,4", fr.Total(), fr.Len())
	}
	recs := fr.Records()
	for i, want := range []int64{6, 7, 8, 9} {
		if recs[i].T != want {
			t.Fatalf("recs[%d].T = %d, want %d (oldest-first)", i, recs[i].T, want)
		}
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(FlightEvent, 1, 2, 3, 4) // must not panic
	if fr.Len() != 0 || fr.Total() != 0 || len(fr.Records()) != 0 {
		t.Fatal("nil recorder should be empty")
	}
	if NewFlightRecorder(0) != nil {
		t.Fatal("zero-size recorder should be nil")
	}
}

func TestFlightDumpJSONL(t *testing.T) {
	fr := NewFlightRecorder(8)
	fr.Record(FlightEvent, 100, 90, 5, 42)
	fr.Record(FlightDrop, 200, 1, 3, 2)
	fr.Record(FlightFault, 300, 0, 7, -1)
	fr.Record(FlightWatchdog, 400, 12345, 0, 0)

	var sb strings.Builder
	if err := fr.DumpJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5 (header + 4 records)\n%s", len(lines), sb.String())
	}
	// Every line must be valid JSON.
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, ln)
		}
	}
	var hdr struct {
		Total int `json:"flight_total"`
		Kept  int `json:"flight_kept"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Total != 4 || hdr.Kept != 4 {
		t.Fatalf("header = %s", lines[0])
	}
	if !strings.Contains(lines[1], `"kind":"event"`) || !strings.Contains(lines[1], `"sched_ns":90`) {
		t.Fatalf("event record = %s", lines[1])
	}
	if !strings.Contains(lines[2], `"reason":1`) {
		t.Fatalf("drop record = %s", lines[2])
	}
	if !strings.Contains(lines[4], `"events":12345`) || strings.Contains(lines[4], `"b"`) {
		t.Fatalf("watchdog record = %s", lines[4])
	}
}

// TestHistBatchFlush: a batch flushed into a histogram leaves it exactly as
// observing the same values directly would, a flush empties the batch, and
// neither step allocates.
func TestHistBatchFlush(t *testing.T) {
	r := NewRegistry()
	direct, batched := r.Histogram("direct_ns", ""), r.Histogram("batched_ns", "")
	var b HistBatch
	vals := []int64{-5, 0, 1, 2, 3, 1000, 1000, 1 << 40}
	for round := 0; round < 3; round++ {
		for _, v := range vals {
			direct.Observe(v)
			b.Observe(v)
		}
		if round == 0 && batched.Count() != 0 {
			t.Fatal("batch reached the histogram before its flush")
		}
		b.FlushTo(batched)
		b.FlushTo(batched) // empty: adds nothing
	}
	want, got := direct.Snapshot(), batched.Snapshot()
	if got.Count != want.Count || got.Sum != want.Sum || len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("batched %+v, direct %+v", got, want)
	}
	for i := range want.Buckets {
		if got.Buckets[i] != want.Buckets[i] {
			t.Fatalf("bucket %d: batched %+v, direct %+v", i, got.Buckets[i], want.Buckets[i])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { b.Observe(12345); b.FlushTo(batched) }); allocs != 0 {
		t.Fatalf("batch observe+flush allocates: %v allocs/op", allocs)
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := NewRegistry().Histogram("za_ns", "")
	c := NewRegistry().Counter("za_total", "")
	g := NewRegistry().Gauge("za", "")
	v := NewRegistry().CounterVec("za_drops_total", "", "reason", "overflow", "fault")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		h.Observe(12345)
		v.At(1).Inc()
	})
	if allocs != 0 {
		t.Fatalf("hot-path bumps allocate: %v allocs/op", allocs)
	}
}
