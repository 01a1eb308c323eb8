package fabric

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bgp"
	"repro/internal/ipfix"
	"repro/internal/routeserver"
	"repro/internal/stats"
)

// The FlowSpec matching properties. The route server keeps its one rule
// list pre-sorted by precedence so the fabric's hot path is a linear scan
// with early exit; these tests pin that optimized path against a naive
// reference matcher that scans every rule and applies the documented
// precedence (most-specific destination first, canonical wire encoding as
// the tie breaker) from first principles. An egress of AS 0, which no
// member has, asks for the ingress member's imported rules alone; an
// ingress of AS 0 for the egress member's own. With both, a rule the
// ingress imported wins over any rule the egress originated, whatever
// their order: fsServer's early rules are AS 100's own but were never
// pushed to AS 200, which joined after them.

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
// originator and AS 300 as a FlowSpec-oblivious member, announces the
// early rules from AS 100, then adds AS 200 as a FlowSpec-capable
// importer and announces the late rules from AS 100. Rules go one update
// at a time in slice order. AS 200 imports the late rules only: a rule is
// pushed to the members present when it is announced.
func fsServer(t *testing.T, early, late []*bgp.FlowRule) *routeserver.Server {
	t.Helper()
	rs := routeserver.New(rsASN, 1)
	addPeers := func(peers ...routeserver.Peer) {
		for _, p := range peers {
			if err := rs.AddPeer(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	addPeers(routeserver.Peer{ASN: 100, Policy: routeserver.DefaultPolicy(),
		Space: []bgp.Prefix{bgp.MustParsePrefix("203.0.113.0/24")}},
		routeserver.Peer{ASN: 300, Policy: routeserver.DefaultPolicy()})
	for _, r := range early {
		announceFS(t, rs, 100, r)
	}
	addPeers(routeserver.Peer{ASN: 200, Policy: routeserver.Policy{
		Standard: routeserver.AcceptFull, FlowSpec: routeserver.AcceptFull}})
	for _, r := range late {
		announceFS(t, rs, 100, r)
	}
	return rs
}

// announceFS sends one discard update from peer through the route
// server's only way in, Process, wrapped the way the scenario wraps it.
func announceFS(t *testing.T, rs *routeserver.Server, peer uint32, rules ...*bgp.FlowRule) {
	t.Helper()
	upd, err := bgp.UpdateFromFlowSpec(&bgp.FlowSpecUpdate{
		Announced: rules,
		ExtComms:  []bgp.ExtCommunity{bgp.TrafficRateDiscard},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Process(time.Unix(0, 0), peer, upd); err != nil {
		t.Fatal(err)
	}
}

// backward returns the rules in reverse order.
func backward(rules []*bgp.FlowRule) []*bgp.FlowRule {
	r := slices.Clone(rules)
	slices.Reverse(r)
	return r
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

// TestFlowSpecMatchProperty drives testing/quick over rule subsets, their
// split into early (AS 100's own, not imported by AS 200) and late
// (imported) rules, and packet headers: the route server's
// precedence-ordered matcher, the same rules installed in reverse order,
// and the end-to-end fabric drop decision must all agree with the
// reference matcher.
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

	prop := func(mask, earlySel, ipSel, protoSel, srcSel, dstSel uint8) bool {
		var early, late, all []*bgp.FlowRule
		for i, r := range catalog {
			switch {
			case mask&(1<<i) == 0:
				continue
			case earlySel&(1<<i) != 0:
				early = append(early, r)
			default:
				late = append(late, r)
			}
			all = append(all, r)
		}
		dstIP := dstIPs[int(ipSel)%len(dstIPs)]
		proto := protos[int(protoSel)%len(protos)]
		srcPort := srcPorts[int(srcSel)%len(srcPorts)]
		dstPort := dstPorts[int(dstSel)%len(dstPorts)]

		want := wireOrNil(t, refMatch(t, late, dstIP, proto, srcPort, dstPort))
		wantOwn := wireOrNil(t, refMatch(t, all, dstIP, proto, srcPort, dstPort))
		wantBoth := want
		if wantBoth == "" {
			wantBoth = wantOwn
		}
		rs := fsServer(t, early, late)
		// Precedence must not depend on announcement order.
		rsRev := fsServer(t, backward(early), backward(late))
		for _, q := range []struct {
			name            string
			ingress, egress uint32
			want            string
		}{
			{"imported", 200, 0, want},
			{"imported-then-own", 200, 100, wantBoth},
			{"own", 0, 100, wantOwn},
			// The member that never opted into FlowSpec imports nothing.
			{"oblivious", 300, 0, ""},
			{"oblivious-own", 300, 100, wantOwn},
		} {
			for _, srv := range []*routeserver.Server{rs, rsRev} {
				if got := wireOrNil(t, srv.MatchFlowRule(q.ingress, q.egress, dstIP, proto, srcPort, dstPort)); got != q.want {
					t.Logf("%s (reversed %v): got %q want %q", q.name, srv == rsRev, got, q.want)
					return false
				}
			}
		}

		// End to end: a batch through the fabric (ingress 200, egress 300,
		// no RTBH route installed) is blackholed exactly when the
		// reference matcher finds a discard rule AS 200 imported.
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
// breaks length ties, a rule the ingress imported beats a more specific
// one the egress kept to itself, and the outcome is identical when the
// rules are announced in reverse.
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
		rules            []int // catalog indices AS 200 imports
		own              []int // catalog indices only egress AS 100 holds
		egress           uint32
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
		// The egress's own /32 sorts first, but the ingress imported the
		// covering /24 and that decides.
		{name: "imported-beats-own-host-rule", rules: []int{0}, own: []int{2}, egress: 100,
			dst: "203.0.113.5", proto: 17, srcPort: 123, dstPort: 40000, want: 0,
			wantTieBetween: [2]int{-1, -1}},
		{name: "own-when-no-import-matches", rules: []int{4}, own: []int{2}, egress: 100,
			dst: "203.0.113.5", proto: 17, srcPort: 123, dstPort: 40000, want: 2,
			wantTieBetween: [2]int{-1, -1}},
		{name: "own-ignored-without-egress", rules: []int{4}, own: []int{2},
			dst: "203.0.113.5", proto: 17, srcPort: 123, dstPort: 40000, want: -1,
			wantTieBetween: [2]int{-1, -1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			pick := func(idx []int) []*bgp.FlowRule {
				rules := make([]*bgp.FlowRule, len(idx))
				for i, j := range idx {
					rules[i] = catalog[j]
				}
				return rules
			}
			subset, own := pick(tc.rules), pick(tc.own)
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
			for _, rs := range []*routeserver.Server{fsServer(t, own, subset), fsServer(t, backward(own), backward(subset))} {
				got := wireOrNil(t, rs.MatchFlowRule(200, tc.egress, ip(tc.dst), tc.proto, tc.srcPort, tc.dstPort))
				if got != want {
					t.Errorf("MatchFlowRule = %q, want %q", got, want)
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
	rs := fsServer(t, nil, []*bgp.FlowRule{rule})
	// The originator itself never imports its own rule...
	if rs.MatchFlowRule(100, 0, ip2(t, "203.0.113.5"), 17, 123, 40000) != nil {
		t.Fatal("rule reflected back to its originator")
	}
	// ...but its own edge matches it.
	if rs.MatchFlowRule(0, 100, ip2(t, "203.0.113.5"), 17, 123, 40000) == nil {
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
