package packet

import (
	"testing"
	"testing/quick"
)

func normalize(f FlowInfo) FlowInfo {
	f.RetCnt &= 0x0F
	f.FlowID &= 0x07
	return f
}

func TestShimRoundTrip(t *testing.T) {
	f := func(rfs uint32, retcnt, flowID uint8, first bool, ethertype uint16) bool {
		in := normalize(FlowInfo{RFS: rfs, RetCnt: retcnt, FlowID: flowID, First: first})
		var buf [ShimHeaderLen]byte
		n, err := EncodeShim(buf[:], in, ethertype)
		if err != nil || n != ShimHeaderLen {
			return false
		}
		out, inner, err := DecodeShim(buf[:])
		return err == nil && out == in && inner == ethertype
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxRetxFitsTheHeader: a marker boosts a segment at most MaxRetx times,
// and both encodings must carry that count: a count the 4-bit field wraps
// would have the receiver unboost the copy by the wrong number of rotations.
func TestMaxRetxFitsTheHeader(t *testing.T) {
	in := FlowInfo{RFS: 1, RetCnt: MaxRetx, FlowID: 7, First: true}
	var shim [ShimHeaderLen]byte
	var opt [OptionLen]byte
	EncodeShim(shim[:], in, 0x0800)
	EncodeOption(opt[:], in)
	if out, _, _ := DecodeShim(shim[:]); out != in {
		t.Errorf("shim carries %+v as %+v", in, out)
	}
	if out, _ := DecodeOption(opt[:]); out != in {
		t.Errorf("option carries %+v as %+v", in, out)
	}
}

func TestOptionRoundTrip(t *testing.T) {
	f := func(rfs uint32, retcnt, flowID uint8, first bool) bool {
		in := normalize(FlowInfo{RFS: rfs, RetCnt: retcnt, FlowID: flowID, First: first})
		var buf [OptionLen]byte
		n, err := EncodeOption(buf[:], in)
		if err != nil || n != OptionLen {
			return false
		}
		out, err := DecodeOption(buf[:])
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestShortBuffers(t *testing.T) {
	short := make([]byte, 3)
	if _, err := EncodeShim(short, FlowInfo{}, 0x0800); err == nil {
		t.Error("EncodeShim accepted short buffer")
	}
	if _, _, err := DecodeShim(short); err == nil {
		t.Error("DecodeShim accepted short buffer")
	}
	if _, err := EncodeOption(short, FlowInfo{}); err == nil {
		t.Error("EncodeOption accepted short buffer")
	}
	if _, err := DecodeOption(short); err == nil {
		t.Error("DecodeOption accepted short buffer")
	}
}

func TestDecodeOptionRejectsWrongType(t *testing.T) {
	var buf [OptionLen]byte
	if _, err := EncodeOption(buf[:], FlowInfo{RFS: 7}); err != nil {
		t.Fatal(err)
	}
	buf[0] = 0x01 // NOP option, not flowinfo
	if _, err := DecodeOption(buf[:]); err == nil {
		t.Error("DecodeOption accepted wrong option type")
	}
}

func TestOptionAlignment(t *testing.T) {
	if OptionLen%4 != 0 {
		t.Fatalf("IPv4 option block must be 32-bit aligned, got %d bytes", OptionLen)
	}
}

func TestWireOverheadMatchesPaper(t *testing.T) {
	// Paper Fig. 3: 7 bytes as a layer-3 shim, 8 bytes as an IPv4 option.
	if ShimHeaderLen != 7 {
		t.Errorf("shim overhead %d bytes, paper says 7", ShimHeaderLen)
	}
	if OptionLen != 8 {
		t.Errorf("option overhead %d bytes, paper says 8", OptionLen)
	}
}
