package bgp

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzSeedFlowRules covers the encoder's component shapes: dst-prefix
// only, protocols, ports on each side, and everything at once.
func fuzzSeedFlowRules() []*FlowRule {
	return []*FlowRule{
		{Dst: MustParsePrefix("203.0.113.5/32"), HasDst: true},
		{Dst: MustParsePrefix("198.51.100.0/24"), HasDst: true, Protos: []uint8{17}},
		{Protos: []uint8{6, 17}, DstPorts: []uint16{123, 11211}},
		{SrcPorts: []uint16{53}},
		{
			Dst: MustParsePrefix("192.0.2.0/25"), HasDst: true,
			Protos: []uint8{17}, DstPorts: []uint16{389, 1900}, SrcPorts: []uint16{123},
		},
	}
}

// normalizeFlowRule collapses wire-indistinguishable struct states (nil
// vs empty slices, the prefix value of an absent destination) so that
// DeepEqual compares only what the NLRI encoding can represent.
func normalizeFlowRule(r *FlowRule) FlowRule {
	out := *r
	if !out.HasDst {
		out.Dst = Prefix{}
	}
	if len(out.Protos) == 0 {
		out.Protos = nil
	}
	if len(out.DstPorts) == 0 {
		out.DstPorts = nil
	}
	if len(out.SrcPorts) == 0 {
		out.SrcPorts = nil
	}
	return out
}

// encodedFlowRuleLen predicts EncodeFlowRule's body length for a decoded
// rule: the fuzz oracle for when re-encoding may legitimately fail. The
// decoder keeps shapes the encoder cannot emit back — a source-prefix-only
// rule decodes to an empty rule, and wide-operator or FSPort components
// re-encode longer than they arrived — so failure is allowed exactly when
// the body is empty or overflows the RFC 8955 short-length form.
func encodedFlowRuleLen(r *FlowRule) int {
	n := 0
	if r.HasDst {
		n += 2 + (int(r.Dst.Len)+7)/8 // type + prefix len + prefix bytes
	}
	if len(r.Protos) > 0 {
		n += 1 + 2*len(r.Protos) // type + (op, value) pairs
	}
	if len(r.DstPorts) > 0 {
		n += 1 + 3*len(r.DstPorts)
	}
	if len(r.SrcPorts) > 0 {
		n += 1 + 3*len(r.SrcPorts)
	}
	return n
}

// encodeFlowSpec serializes u the way the route server archives it: wrapped
// as a plain UPDATE by UpdateFromFlowSpec, encoded by EncodeUpdate.
func encodeFlowSpec(u *FlowSpecUpdate) ([]byte, error) {
	wrapped, err := UpdateFromFlowSpec(u)
	if err != nil {
		return nil, err
	}
	return EncodeUpdate(wrapped)
}

// FuzzFlowSpecRoundTrip feeds arbitrary bytes to the FlowSpec NLRI
// parser (and, for panic coverage, the whole-message parser) and demands
// that any accepted rule converges: decode -> encode -> decode is
// semantically stable, the canonical encoding is a fixed point, and the
// rule survives a full MP_REACH/MP_UNREACH UPDATE round trip through the
// encoder whose bytes the archives hold.
func FuzzFlowSpecRoundTrip(f *testing.F) {
	for _, r := range fuzzSeedFlowRules() {
		enc, err := EncodeFlowRule(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	// Full encoded UPDATEs seed the message-level parser.
	rules := fuzzSeedFlowRules()
	for _, u := range []*FlowSpecUpdate{
		{Announced: rules[:2], ExtComms: []ExtCommunity{TrafficRateDiscard}},
		{Withdrawn: rules[2:4]},
	} {
		msg, err := encodeFlowSpec(u)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(msg)
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{4, 2, 1, 2, 3})    // out-of-order components
	f.Add([]byte{3, 3, 0x91, 0xFF}) // truncated wide operator value

	f.Fuzz(func(t *testing.T, b []byte) {
		// The message-level parser must never panic, whatever the bytes.
		_, _, _ = DecodeFlowSpecUpdate(b)

		r, n, err := DecodeFlowRule(b)
		if err != nil {
			return
		}
		if n < 1 || n > len(b) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(b))
		}
		enc, err := EncodeFlowRule(r)
		if err != nil {
			if l := encodedFlowRuleLen(r); l != 0 && l < 0xf0 {
				t.Fatalf("re-encode of %d-byte representable rule failed: %v", l, err)
			}
			return
		}
		r2, n2, err := DecodeFlowRule(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(enc))
		}
		if nr, nr2 := normalizeFlowRule(r), normalizeFlowRule(r2); !reflect.DeepEqual(nr, nr2) {
			t.Fatalf("round trip changed the rule:\nfirst:  %+v\nsecond: %+v", nr, nr2)
		}
		enc2, err := EncodeFlowRule(r2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding is not a fixed point:\nfirst:  %x\nsecond: %x", enc, enc2)
		}

		// The accepted rule must also survive a full UPDATE round trip on
		// both the announce and withdraw paths.
		u := &FlowSpecUpdate{
			Announced: []*FlowRule{r2},
			Withdrawn: []*FlowRule{r2},
			ExtComms:  []ExtCommunity{TrafficRateDiscard},
		}
		msg, err := encodeFlowSpec(u)
		if err != nil {
			t.Fatalf("update encode failed: %v", err)
		}
		u2, ok, err := DecodeFlowSpecUpdate(msg)
		if err != nil || !ok {
			t.Fatalf("update re-decode: ok=%v err=%v", ok, err)
		}
		if len(u2.Announced) != 1 || len(u2.Withdrawn) != 1 || len(u2.ExtComms) != 1 {
			t.Fatalf("update round trip changed shape: %d announced, %d withdrawn, %d ext comms",
				len(u2.Announced), len(u2.Withdrawn), len(u2.ExtComms))
		}
		if got := normalizeFlowRule(u2.Announced[0]); !reflect.DeepEqual(got, normalizeFlowRule(r2)) {
			t.Fatalf("announce path changed the rule: %+v", got)
		}
		if got := normalizeFlowRule(u2.Withdrawn[0]); !reflect.DeepEqual(got, normalizeFlowRule(r2)) {
			t.Fatalf("withdraw path changed the rule: %+v", got)
		}
		if u2.ExtComms[0] != TrafficRateDiscard || !u2.Discards() {
			t.Fatalf("discard action lost: %v", u2.ExtComms)
		}
		msg2, err := encodeFlowSpec(u2)
		if err != nil {
			t.Fatalf("second update encode failed: %v", err)
		}
		if !bytes.Equal(msg, msg2) {
			t.Fatalf("update encoding is not a fixed point:\nfirst:  %x\nsecond: %x", msg, msg2)
		}
	})
}
