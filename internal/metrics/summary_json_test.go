package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"vertigo/internal/units"
)

// fullSummary builds a summary with every field populated, so the round
// trip exercises the whole schema.
func fullSummary() *Summary {
	c := NewCollector()
	c.StartFlow(FlowRecord{ID: 1, Size: 50_000, Start: 0, Query: -1})
	c.StartFlow(FlowRecord{ID: 2, Size: 20_000_000, Start: 0, Query: -1})
	c.StartFlow(FlowRecord{ID: 3, Size: 1000, Start: 0, Query: c.StartQuery(1, 0)})
	c.EndFlow(1, 2*units.Millisecond)
	c.EndFlow(2, 40*units.Millisecond)
	c.EndFlow(3, 500*units.Microsecond)
	c.Drop(DropOverflow, Background)
	c.Deflections = 7
	c.ECNMarks = 3
	c.PacketsSent = 1000
	c.PacketsRecv = 990
	c.BytesGoodput = 20_051_000
	c.HopSum = 2970
	c.Retransmits = 4
	c.RTOs = 1
	c.FastRetx = 3
	c.ReorderPkts = 12
	return c.Summarize(50 * units.Millisecond)
}

func TestSummaryEncodeDecodeRoundTrip(t *testing.T) {
	s := fullSummary()
	if s.FCTHist == nil || s.FCTHist.Count() != 3 {
		t.Fatalf("Summarize did not build the FCT histogram: %v", s.FCTHist)
	}
	if s.QCTHist == nil || s.QCTHist.Count() != 1 {
		t.Fatalf("Summarize did not build the QCT histogram: %v", s.QCTHist)
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, s)
	}
}

func TestSummaryJSONFieldNames(t *testing.T) {
	// The schema is shared with external tooling: pin the key spelling.
	var buf bytes.Buffer
	if err := fullSummary().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, key := range []string{
		`"duration_ns"`, `"flows_completed"`, `"mean_fct_ns"`, `"p99_qct_ns"`,
		`"packets_sent"`, `"drop_rate"`, `"deflections"`, `"overall_goodput_bps"`,
		`"fct_hist"`, `"qct_hist"`,
	} {
		if !strings.Contains(out, key) {
			t.Errorf("encoded summary missing key %s", key)
		}
	}
	// A Summary carries no per-flow series: the keys they had are gone.
	for _, key := range []string{`"fcts_ns"`, `"qcts_ns"`} {
		if strings.Contains(out, key) {
			t.Errorf("encoded summary has the retired key %s", key)
		}
	}
	// No field may have escaped untagged: Go-style exported names would leak
	// PascalCase keys into the schema.
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for key := range raw {
		if key[0] >= 'A' && key[0] <= 'Z' {
			t.Errorf("untagged field leaked into JSON: %q", key)
		}
	}
}

func TestSummaryCompact(t *testing.T) {
	s := fullSummary()
	c := s.Compact()
	if c == s || !reflect.DeepEqual(c, s) {
		t.Error("Compact is not a plain copy")
	}
	c.MeanFCT++
	if c.MeanFCT == s.MeanFCT {
		t.Error("Compact's copy aliases the original")
	}
}
