package bgp

import (
	"testing"
	"testing/quick"
)

func sampleRule() *FlowRule {
	return &FlowRule{
		Dst:      MustParsePrefix("203.0.113.5/32"),
		HasDst:   true,
		Protos:   []uint8{17},
		SrcPorts: []uint16{123, 389, 11211},
	}
}

func TestFlowRuleRoundTrip(t *testing.T) {
	enc, err := EncodeFlowRule(sampleRule())
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeFlowRule(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	want := sampleRule()
	if !got.HasDst || got.Dst != want.Dst {
		t.Fatalf("dst = %+v", got)
	}
	if len(got.Protos) != 1 || got.Protos[0] != 17 {
		t.Fatalf("protos = %v", got.Protos)
	}
	if len(got.SrcPorts) != 3 || got.SrcPorts[2] != 11211 {
		t.Fatalf("src ports = %v", got.SrcPorts)
	}
}

func TestFlowRuleRoundTripProperty(t *testing.T) {
	f := func(addr uint32, lenRaw uint8, proto uint8, ports []uint16) bool {
		if len(ports) > 12 {
			ports = ports[:12]
		}
		r := &FlowRule{
			Dst: MakePrefix(addr, lenRaw%33), HasDst: true,
			Protos: []uint8{proto}, DstPorts: ports,
		}
		enc, err := EncodeFlowRule(r)
		if err != nil {
			return false
		}
		got, n, err := DecodeFlowRule(enc)
		if err != nil || n != len(enc) {
			return false
		}
		if got.Dst != r.Dst || len(got.DstPorts) != len(ports) {
			return false
		}
		for i := range ports {
			if got.DstPorts[i] != ports[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowRuleMatches(t *testing.T) {
	r := sampleRule()
	dst := r.Dst.Addr
	if !r.Matches(dst, 17, 123, 40000) {
		t.Fatal("NTP reflection packet not matched")
	}
	if r.Matches(dst, 17, 53, 40000) {
		t.Fatal("non-listed source port matched")
	}
	if r.Matches(dst, 6, 123, 40000) {
		t.Fatal("TCP matched a UDP-only rule")
	}
	if r.Matches(dst+1, 17, 123, 40000) {
		t.Fatal("other destination matched")
	}
	// Wildcard rule matches everything.
	any := &FlowRule{}
	if !any.Matches(1, 6, 2, 3) {
		t.Fatal("wildcard rule did not match")
	}
}

func TestFlowRuleValidation(t *testing.T) {
	if _, err := EncodeFlowRule(&FlowRule{}); err == nil {
		t.Fatal("empty rule encoded")
	}
	big := &FlowRule{DstPorts: make([]uint16, 100)}
	for i := range big.DstPorts {
		big.DstPorts[i] = uint16(i + 1)
	}
	if _, err := EncodeFlowRule(big); err == nil {
		t.Fatal("oversized rule encoded")
	}
}

func TestDecodeFlowRuleRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{5, 1, 32},          // truncated prefix
		{3, 3, 0x00, 17},    // operator without end-of-list, then EOF
		{3, 5, 0x91, 1},     // 2-byte value declared, 1 byte present
		{2, 9, 0x81},        // unknown component type
		{4, 3, 0x81, 17, 3}, // component types out of order (3 then 3)
		{3, 3, 0x80, 17},    // non-equality operator
	}
	for i, b := range cases {
		if _, _, err := DecodeFlowRule(b); err == nil {
			t.Errorf("case %d accepted: %v", i, b)
		}
	}
}

func TestFlowSpecUpdateRoundTrip(t *testing.T) {
	u := &FlowSpecUpdate{
		Announced: []*FlowRule{sampleRule()},
		Withdrawn: []*FlowRule{{Dst: MustParsePrefix("198.51.100.7/32"), HasDst: true}},
		ExtComms:  []ExtCommunity{TrafficRateDiscard},
	}
	enc, err := encodeFlowSpec(u)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := DecodeFlowSpecUpdate(enc)
	if err != nil || !ok {
		t.Fatalf("decode: ok=%v err=%v", ok, err)
	}
	if len(got.Announced) != 1 || len(got.Withdrawn) != 1 {
		t.Fatalf("rules = %d/%d", len(got.Announced), len(got.Withdrawn))
	}
	if got.Announced[0].Dst != sampleRule().Dst {
		t.Fatalf("announced = %+v", got.Announced[0])
	}
	if !got.Discards() {
		t.Fatal("discard action lost")
	}
}

// TestFlowSpecAsUpdateRoundTrip pins the piggyback path the route-server
// control plane uses: wrap rules as a plain *Update, push it through the
// canonical UPDATE codec (the live sessions and the MRT archive), and
// recover the rules on the far side.
func TestFlowSpecAsUpdateRoundTrip(t *testing.T) {
	u := &FlowSpecUpdate{
		Announced: []*FlowRule{sampleRule()},
		Withdrawn: []*FlowRule{{Dst: MustParsePrefix("198.51.100.7/32"), HasDst: true}},
		ExtComms:  []ExtCommunity{TrafficRateDiscard},
	}
	wrapped, err := UpdateFromFlowSpec(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrapped.NLRI) != 0 || len(wrapped.Withdrawn) != 0 {
		t.Fatalf("flowspec update leaked IPv4 NLRI: %+v", wrapped)
	}
	enc, err := EncodeUpdate(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	_, msg, _, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := FlowSpecFromUpdate(msg.(*Update))
	if err != nil || !ok {
		t.Fatalf("recover: ok=%v err=%v", ok, err)
	}
	if len(got.Announced) != 1 || len(got.Withdrawn) != 1 || !got.Discards() {
		t.Fatalf("recovered = %+v", got)
	}
	if got.Announced[0].Dst != sampleRule().Dst || len(got.Announced[0].SrcPorts) != 3 {
		t.Fatalf("announced rule = %+v", got.Announced[0])
	}
	// Re-encoding the decoded update must be a fixed point: the archive
	// bytes are identical no matter how many codec hops the update took.
	enc2, err := EncodeUpdate(msg.(*Update))
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(enc2) {
		t.Fatal("re-encode of a flowspec-carrying update is not a fixed point")
	}
	if _, err := UpdateFromFlowSpec(&FlowSpecUpdate{ExtComms: []ExtCommunity{TrafficRateDiscard}}); err == nil {
		t.Fatal("rule-less flowspec update wrapped")
	}
}

func TestDecodeFlowSpecUpdateIgnoresPlainUpdates(t *testing.T) {
	enc, err := EncodeUpdate(&Update{
		Attrs: PathAttrs{ASPath: []uint32{1}, NextHop: 1, Communities: Communities{Blackhole}},
		NLRI:  []Prefix{MustParsePrefix("203.0.113.5/32")},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := DecodeFlowSpecUpdate(enc)
	if err != nil || ok {
		t.Fatalf("plain update classified as flowspec: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := DecodeFlowSpecUpdate(EncodeKeepalive()); ok {
		t.Fatal("keepalive classified as flowspec")
	}
}

func TestTrafficRateCommunity(t *testing.T) {
	rate, ok := TrafficRateDiscard.IsTrafficRate()
	if !ok || rate != 0 {
		t.Fatalf("discard = %v, %v", rate, ok)
	}
	var other ExtCommunity
	if _, ok := other.IsTrafficRate(); ok {
		t.Fatal("zero community is a traffic rate")
	}
}

func TestFlowRuleString(t *testing.T) {
	s := sampleRule().String()
	for _, want := range []string{"dst 203.0.113.5/32", "proto 17", "src-port 123,389,11211"} {
		if !containsStr(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if (&FlowRule{}).String() != "match any" {
		t.Fatal("wildcard string wrong")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
