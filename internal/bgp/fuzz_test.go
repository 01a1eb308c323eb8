package bgp

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzSeedUpdates are hand-picked UPDATEs whose encoded bodies seed the
// round-trip fuzzer (besides the checked-in corpus under testdata/fuzz):
// announce, withdraw-only, every optional attribute, an unknown attribute,
// and a >255-hop AS_PATH that needs segment splitting.
func fuzzSeedUpdates() []*Update {
	longPath := make([]uint32, 300)
	for i := range longPath {
		longPath[i] = uint32(65000 + i)
	}
	return []*Update{
		{
			NLRI:  []Prefix{MustParsePrefix("203.0.113.5/32")},
			Attrs: PathAttrs{ASPath: []uint32{64500, 64501}, NextHop: 0x0A000001, Communities: Communities{Blackhole}},
		},
		{Withdrawn: []Prefix{MustParsePrefix("198.51.100.0/24")}},
		{
			NLRI: []Prefix{MustParsePrefix("192.0.2.0/25"), MustParsePrefix("10.0.0.0/8")},
			Attrs: PathAttrs{
				Origin: OriginIncomplete, ASPath: []uint32{64500}, NextHop: 1,
				MED: 7, HasMED: true, LocalPref: 200, HasLocalPref: true,
				Communities: Communities{0x029A0000, Blackhole},
				Unknown:     []RawAttr{{Flags: flagOptional | flagTransitive, Type: 32, Value: bytes.Repeat([]byte{0xAB}, 300)}},
			},
		},
		{
			NLRI:  []Prefix{MustParsePrefix("0.0.0.0/0")},
			Attrs: PathAttrs{ASPath: longPath, NextHop: 2},
		},
		// A FlowSpec discard carried as opaque MP attributes in an UPDATE
		// without IPv4 NLRI (the route-server control-plane shape).
		func() *Update {
			u, err := UpdateFromFlowSpec(&FlowSpecUpdate{
				Announced: []*FlowRule{{
					Dst: MustParsePrefix("203.0.113.5/32"), HasDst: true,
					Protos: []uint8{17}, SrcPorts: []uint16{123, 11211},
				}},
				ExtComms: []ExtCommunity{TrafficRateDiscard},
			})
			if err != nil {
				panic(err)
			}
			return u
		}(),
	}
}

// normalizeUpdate maps an Update onto its canonical form: the parts of the
// struct that the wire format cannot represent distinctly (attributes of a
// withdraw-only message, nil vs empty slices) collapse so that DeepEqual
// compares only wire-meaningful state.
func normalizeUpdate(u *Update) Update {
	out := *u
	if len(out.NLRI) == 0 && len(out.Attrs.Unknown) == 0 {
		// An UPDATE without announcements carries no path attributes —
		// unless opaque attributes (multiprotocol payloads) are present,
		// which the encoder preserves even without IPv4 NLRI.
		out.Attrs = PathAttrs{}
	}
	if len(out.Attrs.ASPath) == 0 {
		out.Attrs.ASPath = nil
	}
	if len(out.Attrs.Communities) == 0 {
		out.Attrs.Communities = nil
	}
	if len(out.Attrs.Unknown) == 0 {
		out.Attrs.Unknown = nil
	}
	return out
}

// FuzzUpdateRoundTrip feeds arbitrary bytes to the UPDATE body parser and
// demands that anything it accepts survives encode -> decode unchanged,
// and that the canonical encoding is a fixed point. Encoding may reject a
// decoded update only for exceeding the 4096-byte message cap (fuzz bodies
// are not length-capped; real ones are).
func FuzzUpdateRoundTrip(f *testing.F) {
	for _, u := range fuzzSeedUpdates() {
		enc, err := EncodeUpdate(u)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc[19:]) // seed with the body, header stripped
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, body []byte) {
		u, err := DecodeUpdate(body)
		if err != nil {
			return
		}
		enc, err := EncodeUpdate(u)
		if err != nil {
			if len(body) <= maxMsgLen-headerLen {
				t.Fatalf("re-encode of %d-byte accepted body failed: %v", len(body), err)
			}
			return
		}
		typ, msg, n, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if typ != MsgUpdate || n != len(enc) {
			t.Fatalf("re-decode: type %d, consumed %d of %d", typ, n, len(enc))
		}
		u2 := msg.(*Update)
		if nu, nu2 := normalizeUpdate(u), normalizeUpdate(u2); !reflect.DeepEqual(nu, nu2) {
			t.Fatalf("round trip changed the update:\nfirst:  %+v\nsecond: %+v", nu, nu2)
		}
		enc2, err := EncodeUpdate(u2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding is not a fixed point:\nfirst:  %x\nsecond: %x", enc, enc2)
		}
	})
}

// encodeMessage re-encodes what DecodeMessage returned for a message of
// type typ.
func encodeMessage(typ byte, msg any) ([]byte, error) {
	switch typ {
	case MsgUpdate:
		return EncodeUpdate(msg.(*Update))
	case MsgOpen:
		return EncodeOpen(msg.(*Open))
	case MsgNotification:
		return EncodeNotification(msg.(*Notification))
	default:
		return EncodeKeepalive(), nil
	}
}

// FuzzDecodeMessage feeds arbitrary bytes to the session pump's framing
// parser. It must never panic; an accepted message must claim between a
// header and the whole input, and must re-encode to a message that decodes
// to the same value. Seeds are one message of each type, a FlowSpec
// UPDATE, two messages back to back, and truncations of each.
func FuzzDecodeMessage(f *testing.F) {
	open, err := EncodeOpen(&Open{Version: 4, ASN: 64500, HoldTime: 90, RouterID: 0x0A000001})
	if err != nil {
		f.Fatal(err)
	}
	notification, err := EncodeNotification(&Notification{Code: 6, Subcode: 2, Data: []byte("bye")})
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{open, EncodeKeepalive(), notification}
	for _, u := range fuzzSeedUpdates() {
		enc, err := EncodeUpdate(u)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, enc)
	}
	flowSpec, err := encodeFlowSpec(&FlowSpecUpdate{Announced: fuzzSeedFlowRules()[:2], ExtComms: []ExtCommunity{TrafficRateDiscard}})
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, flowSpec, append(append([]byte(nil), open...), EncodeKeepalive()...))
	for _, s := range seeds {
		f.Add(s)
		for _, cut := range []int{len(s) - 1, headerLen, headerLen - 1} {
			if cut >= 0 && cut < len(s) {
				f.Add(s[:cut])
			}
		}
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		typ, msg, n, err := DecodeMessage(b)
		if err != nil {
			return
		}
		if n < headerLen || n > len(b) {
			t.Fatalf("accepted a message of %d bytes from %d bytes of input", n, len(b))
		}
		enc, err := encodeMessage(typ, msg)
		if err != nil {
			t.Fatalf("re-encode of an accepted type-%d message failed: %v", typ, err)
		}
		typ2, msg2, n2, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-decode of type-%d message failed: %v", typ, err)
		}
		if typ2 != typ || n2 != len(enc) {
			t.Fatalf("re-decode: type %d consuming %d of %d bytes, want type %d", typ2, n2, len(enc), typ)
		}
		if typ == MsgUpdate {
			msg, msg2 = normalizeUpdate(msg.(*Update)), normalizeUpdate(msg2.(*Update))
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("round trip changed the type-%d message:\nfirst:  %+v\nsecond: %+v", typ, msg, msg2)
		}
	})
}
