package fabric

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bgp"
	"repro/internal/ipfix"
	"repro/internal/routeserver"
	"repro/internal/stats"
)

// The FlowSpec matching properties. The route server keeps per-peer rule
// lists pre-sorted by precedence so the fabric's hot path is a linear
// scan with early exit; these tests pin that optimized path against a
// naive reference matcher that scans every rule and applies the
// documented precedence (most-specific destination first, canonical wire
// encoding as the tie breaker) from first principles.

// fsCatalog is a fixed set of overlapping discard rules, all protecting
// the 203.0.113.0/24 test space of AS 100. Overlaps are deliberate:
// several /32s on the same host, /25s competing with the covering /24,
// port lists that intersect.
func fsCatalog() []*bgp.FlowRule {
	p := bgp.MustParsePrefix
	return []*bgp.FlowRule{
		{Dst: p("203.0.113.0/24"), HasDst: true},
		{Dst: p("203.0.113.5/32"), HasDst: true, Protos: []uint8{17}},
		{Dst: p("203.0.113.5/32"), HasDst: true, Protos: []uint8{17}, SrcPorts: []uint16{123}},
		{Dst: p("203.0.113.5/32"), HasDst: true, Protos: []uint8{17}, DstPorts: []uint16{40000}},
		{Dst: p("203.0.113.0/25"), HasDst: true, Protos: []uint8{6}, DstPorts: []uint16{443}},
		{Dst: p("203.0.113.5/32"), HasDst: true, SrcPorts: []uint16{53, 123}},
		{Dst: p("203.0.113.128/25"), HasDst: true},
		{Dst: p("203.0.113.7/32"), HasDst: true, Protos: []uint8{17}, SrcPorts: []uint16{11211}},
	}
}

func ruleWire(t *testing.T, r *bgp.FlowRule) string {
	t.Helper()
	w, err := bgp.EncodeFlowRule(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(w)
}

// refMatch is the reference matcher: scan all rules, keep every match,
// pick the winner by (longest destination prefix, smallest canonical
// wire encoding). Nil when nothing matches.
func refMatch(t *testing.T, rules []*bgp.FlowRule, dstIP uint32, proto uint8, srcPort, dstPort uint16) *bgp.FlowRule {
	t.Helper()
	var best *bgp.FlowRule
	var bestWire string
	for _, r := range rules {
		if !r.Matches(dstIP, proto, srcPort, dstPort) {
			continue
		}
		wire := ruleWire(t, r)
		if best == nil || r.Dst.Len > best.Dst.Len ||
			(r.Dst.Len == best.Dst.Len && wire < bestWire) {
			best, bestWire = r, wire
		}
	}
	return best
}

// fsServer builds a route server with AS 100 as the (space-registered)
// originator, AS 200 as a FlowSpec-capable importer and AS 300 as a
// FlowSpec-oblivious member, then announces the given rules from AS 100
// one update at a time in slice order.
func fsServer(t *testing.T, rules []*bgp.FlowRule) *routeserver.Server {
	t.Helper()
	rs := routeserver.New(rsASN, 1)
	peers := []routeserver.Peer{
		{ASN: 100, Policy: routeserver.DefaultPolicy(),
			Space: []bgp.Prefix{bgp.MustParsePrefix("203.0.113.0/24")}},
		{ASN: 200, Policy: routeserver.Policy{
			Standard: routeserver.AcceptFull, FlowSpec: routeserver.AcceptFull}},
		{ASN: 300, Policy: routeserver.DefaultPolicy()},
	}
	for _, p := range peers {
		if err := rs.AddPeer(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rules {
		err := rs.ProcessFlowSpec(time.Unix(0, 0), 100, &bgp.FlowSpecUpdate{
			Announced: []*bgp.FlowRule{r},
			ExtComms:  []bgp.ExtCommunity{bgp.TrafficRateDiscard},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return rs
}

// wireOrNil fingerprints a matcher result for comparison across servers
// that hold distinct copies of semantically equal rules.
func wireOrNil(t *testing.T, r *bgp.FlowRule) string {
	t.Helper()
	if r == nil {
		return ""
	}
	return ruleWire(t, r)
}

// TestFlowSpecMatchProperty drives testing/quick over rule subsets and
// packet headers: the route server's precedence-ordered matcher, the
// same subset installed in reverse order, and the end-to-end fabric drop
// decision must all agree with the reference matcher.
func TestFlowSpecMatchProperty(t *testing.T) {
	catalog := fsCatalog()
	ips := []string{"203.0.113.5", "203.0.113.7", "203.0.113.77",
		"203.0.113.130", "203.0.113.200", "198.51.100.9"}
	dstIPs := make([]uint32, len(ips))
	for i, s := range ips {
		a, err := bgp.ParseAddr(s)
		if err != nil {
			t.Fatal(err)
		}
		dstIPs[i] = a
	}
	protos := []uint8{17, 6, 1}
	srcPorts := []uint16{123, 53, 11211, 33333}
	dstPorts := []uint16{40000, 443, 80}

	prop := func(mask, ipSel, protoSel, srcSel, dstSel uint8) bool {
		var subset []*bgp.FlowRule
		for i, r := range catalog {
			if mask&(1<<i) != 0 {
				subset = append(subset, r)
			}
		}
		reversed := make([]*bgp.FlowRule, len(subset))
		for i, r := range subset {
			reversed[len(subset)-1-i] = r
		}
		dstIP := dstIPs[int(ipSel)%len(dstIPs)]
		proto := protos[int(protoSel)%len(protos)]
		srcPort := srcPorts[int(srcSel)%len(srcPorts)]
		dstPort := dstPorts[int(dstSel)%len(dstPorts)]

		want := wireOrNil(t, refMatch(t, subset, dstIP, proto, srcPort, dstPort))
		rs := fsServer(t, subset)
		if got := wireOrNil(t, rs.MatchingFlowRule(200, dstIP, proto, srcPort, dstPort)); got != want {
			t.Logf("forward install: got %q want %q", got, want)
			return false
		}
		// Precedence must not depend on announcement order.
		rsRev := fsServer(t, reversed)
		if got := wireOrNil(t, rsRev.MatchingFlowRule(200, dstIP, proto, srcPort, dstPort)); got != want {
			t.Logf("reverse install: got %q want %q", got, want)
			return false
		}
		// The member that never opted into FlowSpec imports nothing.
		if rs.MatchingFlowRule(300, dstIP, proto, srcPort, dstPort) != nil {
			t.Log("FlowSpec-oblivious peer imported a rule")
			return false
		}

		// End to end: a batch through the fabric (ingress 200, egress 300,
		// no RTBH route installed) is blackholed exactly when the
		// reference matcher finds a discard rule.
		var recs []ipfix.FlowRecord
		f, err := New(rs, 1, stats.NewRNG(uint64(mask)+1), func(b *ipfix.RecordBatch) error {
			recs = append(recs, b.Recs...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		b := &Batch{
			Time: time.Unix(1000, 0), Duration: time.Second,
			IngressAS: 200, EgressAS: 300,
			SrcIP: 0x08080808, DstIP: dstIP,
			SrcPort: srcPort, DstPort: dstPort, Proto: proto,
			PacketSize: 468, Packets: 4,
		}
		if err := f.Inject(b); err != nil {
			t.Fatal(err)
		}
		if len(recs) != 4 {
			t.Logf("sampled %d records at rate 1, want 4", len(recs))
			return false
		}
		for _, r := range recs {
			if dropped := r.DstMAC == BlackholeMAC; dropped != (want != "") {
				t.Logf("record dropped=%v, reference match %q", dropped, want)
				return false
			}
		}
		wantDropped := int64(0)
		if want != "" {
			wantDropped = 4
		}
		if st := f.Stats(); st.PacketsDropped != wantDropped {
			t.Logf("PacketsDropped=%d, want %d", st.PacketsDropped, wantDropped)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Errorf("flowspec matcher diverges from reference: %v", err)
	}
}

// TestFlowSpecRulePrecedence pins the precedence order on a deterministic
// table: most-specific destination wins, the canonical wire encoding
// breaks length ties, and the outcome is identical when the rules are
// announced in reverse.
func TestFlowSpecRulePrecedence(t *testing.T) {
	catalog := fsCatalog()
	ip := func(s string) uint32 {
		a, err := bgp.ParseAddr(s)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	cases := []struct {
		name             string
		rules            []int // catalog indices to install
		dst              string
		proto            uint8
		srcPort, dstPort uint16
		want             int // winning catalog index, -1 for no match
		wantTieBetween   [2]int
	}{
		{name: "only-covering-slash24", rules: []int{0, 2, 7},
			dst: "203.0.113.77", proto: 17, srcPort: 123, dstPort: 40000, want: 0,
			wantTieBetween: [2]int{-1, -1}},
		{name: "host-rule-beats-slash24", rules: []int{0, 2, 7},
			dst: "203.0.113.5", proto: 17, srcPort: 123, dstPort: 40000, want: 2,
			wantTieBetween: [2]int{-1, -1}},
		{name: "slash25-beats-slash24", rules: []int{0, 1, 4},
			dst: "203.0.113.6", proto: 6, srcPort: 33333, dstPort: 443, want: 4,
			wantTieBetween: [2]int{-1, -1}},
		{name: "upper-slash25", rules: []int{0, 6},
			dst: "203.0.113.130", proto: 6, srcPort: 33333, dstPort: 80, want: 6,
			wantTieBetween: [2]int{-1, -1}},
		{name: "no-match-outside-space", rules: []int{0, 1, 2, 3, 4, 5, 6, 7},
			dst: "198.51.100.9", proto: 17, srcPort: 123, dstPort: 40000, want: -1,
			wantTieBetween: [2]int{-1, -1}},
		{name: "proto-mismatch-falls-back", rules: []int{0, 1},
			dst: "203.0.113.5", proto: 6, srcPort: 33333, dstPort: 80, want: 0,
			wantTieBetween: [2]int{-1, -1}},
		// Two /32s both match: the winner is whichever encodes smaller,
		// asserted explicitly against the canonical encodings.
		{name: "equal-length-wire-tiebreak", rules: []int{1, 5},
			dst: "203.0.113.5", proto: 17, srcPort: 53, dstPort: 80, want: -2,
			wantTieBetween: [2]int{1, 5}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			subset := make([]*bgp.FlowRule, len(tc.rules))
			for i, idx := range tc.rules {
				subset[i] = catalog[idx]
			}
			reversed := make([]*bgp.FlowRule, len(subset))
			for i, r := range subset {
				reversed[len(subset)-1-i] = r
			}
			want := ""
			switch {
			case tc.want >= 0:
				want = ruleWire(t, catalog[tc.want])
			case tc.want == -2:
				a := ruleWire(t, catalog[tc.wantTieBetween[0]])
				b := ruleWire(t, catalog[tc.wantTieBetween[1]])
				want = a
				if b < a {
					want = b
				}
			}
			for _, rules := range [][]*bgp.FlowRule{subset, reversed} {
				rs := fsServer(t, rules)
				got := wireOrNil(t, rs.MatchingFlowRule(200, ip(tc.dst), tc.proto, tc.srcPort, tc.dstPort))
				if got != want {
					t.Errorf("MatchingFlowRule = %q, want %q", got, want)
				}
			}
		})
	}
}

// TestFlowSpecOriginatorEgressEnforced pins the egress half of the
// enforcement model: the route server never reflects a rule back to its
// originator, yet traffic leaving the fabric toward the originator's own
// prefix is filtered by the rule it authored — even when the ingress
// member never imported it.
func TestFlowSpecOriginatorEgressEnforced(t *testing.T) {
	rule := &bgp.FlowRule{
		Dst: bgp.MustParsePrefix("203.0.113.5/32"), HasDst: true,
		Protos: []uint8{17}, SrcPorts: []uint16{123},
	}
	rs := fsServer(t, []*bgp.FlowRule{rule})
	// The originator itself never imports its own rule...
	if rs.MatchingFlowRule(100, ip2(t, "203.0.113.5"), 17, 123, 40000) != nil {
		t.Fatal("rule reflected back to its originator")
	}
	// ...but its own edge matches it.
	if rs.OwnMatchingFlowRule(100, ip2(t, "203.0.113.5"), 17, 123, 40000) == nil {
		t.Fatal("originator's own edge does not match its rule")
	}

	// Ingress 300 has no FlowSpec support; egress 100 is the originator.
	var recs []ipfix.FlowRecord
	f, err := New(rs, 1, stats.NewRNG(11), func(b *ipfix.RecordBatch) error {
		recs = append(recs, b.Recs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	b := &Batch{
		Time: time.Unix(1000, 0), Duration: time.Second,
		IngressAS: 300, EgressAS: 100,
		SrcIP: 0x08080808, DstIP: ip2(t, "203.0.113.5"),
		SrcPort: 123, DstPort: 40000, Proto: 17,
		PacketSize: 468, Packets: 10,
	}
	if err := f.Inject(b); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("sampled %d records, want 10", len(recs))
	}
	for _, r := range recs {
		if r.DstMAC != BlackholeMAC {
			t.Fatal("attack packet toward the originator's prefix not discarded at its egress")
		}
	}
	if st := f.Stats(); st.PacketsDropped != 10 {
		t.Fatalf("PacketsDropped = %d, want 10", st.PacketsDropped)
	}
}

func ip2(t *testing.T, s string) uint32 {
	t.Helper()
	a, err := bgp.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
