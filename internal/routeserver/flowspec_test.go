package routeserver

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/mrt"
)

func fsServer(t *testing.T) *Server {
	t.Helper()
	s := New(rsASN, 1)
	pols := map[uint32]Policy{
		100: {Standard: AcceptFull, FlowSpec: AcceptFull},
		200: {Standard: AcceptFull, FlowSpec: AcceptFull},
		300: DefaultPolicy(), // no FlowSpec support
	}
	for asn, pol := range pols {
		if err := s.AddPeer(Peer{ASN: asn, IP: asn, Policy: pol}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func discardRule(prefix string, srcPorts ...uint16) *bgp.FlowRule {
	return &bgp.FlowRule{
		Dst:      bgp.MustParsePrefix(prefix),
		HasDst:   true,
		Protos:   []uint8{17},
		SrcPorts: srcPorts,
	}
}

// processFS sends a FlowSpec update through Process the way the scenario
// does: wrapped as a plain UPDATE by bgp.UpdateFromFlowSpec.
func processFS(t *testing.T, s *Server, ts time.Time, peer uint32, upd *bgp.FlowSpecUpdate) error {
	t.Helper()
	wrapped, err := bgp.UpdateFromFlowSpec(upd)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Process(ts, peer, wrapped)
	return err
}

func announceFS(t *testing.T, s *Server, peer uint32, rules ...*bgp.FlowRule) {
	t.Helper()
	err := processFS(t, s, time.Unix(0, 0), peer, &bgp.FlowSpecUpdate{
		Announced: rules,
		ExtComms:  []bgp.ExtCommunity{bgp.TrafficRateDiscard},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// imported reports whether a rule the ingress member imported matches the
// packet. The egress is AS 0, which no peer has, so no originator's own
// edge contributes.
func imported(s *Server, ingress, dstIP uint32, proto uint8, srcPort, dstPort uint16) bool {
	return s.MatchFlowRule(ingress, 0, dstIP, proto, srcPort, dstPort) != nil
}

func TestFlowSpecInstallAndMatch(t *testing.T) {
	s := fsServer(t)
	announceFS(t, s, 100, discardRule("203.0.113.5/32", 123, 389))
	if s.NumFlowSpecRules() != 1 {
		t.Fatalf("rules = %d", s.NumFlowSpecRules())
	}
	victim := bgp.MustParsePrefix("203.0.113.5/32").Addr

	// Supporting peer drops matching reflection traffic...
	if !imported(s, 200, victim, 17, 123, 44444) {
		t.Fatal("NTP reflection not matched at supporting peer")
	}
	// ... but not the victim's legitimate web traffic.
	if imported(s, 200, victim, 6, 33333, 443) {
		t.Fatal("legitimate TCP matched")
	}
	// Peers without FlowSpec support keep forwarding everything.
	if imported(s, 300, victim, 17, 123, 44444) {
		t.Fatal("non-supporting peer matched")
	}
	// The originator does not receive its own rule.
	if imported(s, 100, victim, 17, 123, 44444) {
		t.Fatal("originator matched its own rule")
	}
}

func TestFlowSpecWithdraw(t *testing.T) {
	s := fsServer(t)
	rule := discardRule("203.0.113.5/32", 123)
	announceFS(t, s, 100, rule)
	err := processFS(t, s, time.Unix(1, 0), 100, &bgp.FlowSpecUpdate{Withdrawn: []*bgp.FlowRule{rule}})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFlowSpecRules() != 0 {
		t.Fatalf("rules after withdraw = %d", s.NumFlowSpecRules())
	}
	victim := bgp.MustParsePrefix("203.0.113.5/32").Addr
	if imported(s, 200, victim, 17, 123, 44444) {
		t.Fatal("withdrawn rule still matches")
	}
}

func TestFlowSpecReannounceReplaces(t *testing.T) {
	s := fsServer(t)
	rule := discardRule("203.0.113.5/32", 123)
	announceFS(t, s, 100, rule)
	announceFS(t, s, 100, rule) // identical wire form: replace, not duplicate
	if s.NumFlowSpecRules() != 1 {
		t.Fatalf("rules = %d", s.NumFlowSpecRules())
	}
	// The rule list must not contain duplicates either: withdrawing once
	// must remove the match entirely.
	processFS(t, s, time.Unix(1, 0), 100, &bgp.FlowSpecUpdate{Withdrawn: []*bgp.FlowRule{rule}})
	victim := bgp.MustParsePrefix("203.0.113.5/32").Addr
	if imported(s, 200, victim, 17, 123, 44444) {
		t.Fatal("replaced rule left a stale entry")
	}
}

func TestFlowSpecValidation(t *testing.T) {
	s := fsServer(t)
	// Unknown peer.
	err := processFS(t, s, time.Unix(0, 0), 999, &bgp.FlowSpecUpdate{
		Withdrawn: []*bgp.FlowRule{discardRule("203.0.113.5/32", 123)},
	})
	if err == nil {
		t.Fatal("unknown peer accepted")
	}
	// Missing discard action.
	err = processFS(t, s, time.Unix(0, 0), 100, &bgp.FlowSpecUpdate{
		Announced: []*bgp.FlowRule{discardRule("203.0.113.5/32", 123)},
	})
	if err == nil {
		t.Fatal("announcement without discard action accepted")
	}
	// Missing destination prefix.
	err = processFS(t, s, time.Unix(0, 0), 100, &bgp.FlowSpecUpdate{
		Announced: []*bgp.FlowRule{{Protos: []uint8{17}}},
		ExtComms:  []bgp.ExtCommunity{bgp.TrafficRateDiscard},
	})
	if err == nil {
		t.Fatal("rule without destination accepted")
	}
}

// TestFlowSpecInvalidRuleInstallsNothing pins that an announcement is
// validated as a whole: a valid rule followed by one outside the
// announcer's registered space installs neither, and only the refusal is
// counted.
func TestFlowSpecInvalidRuleInstallsNothing(t *testing.T) {
	s := New(rsASN, 1)
	for _, p := range []Peer{
		{ASN: 100, Policy: DefaultPolicy(), Space: []bgp.Prefix{bgp.MustParsePrefix("203.0.113.0/24")}},
		{ASN: 200, Policy: Policy{Standard: AcceptFull, FlowSpec: AcceptFull}},
	} {
		if err := s.AddPeer(p); err != nil {
			t.Fatal(err)
		}
	}
	err := processFS(t, s, time.Unix(0, 0), 100, &bgp.FlowSpecUpdate{
		Announced: []*bgp.FlowRule{discardRule("203.0.113.5/32", 123), discardRule("198.51.100.0/24", 123)},
		ExtComms:  []bgp.ExtCommunity{bgp.TrafficRateDiscard},
	})
	if err == nil {
		t.Fatal("announcement with an out-of-space rule accepted")
	}
	m := s.Metrics()
	if n := s.NumFlowSpecRules(); n != 0 {
		t.Errorf("rules = %d, want 0", n)
	}
	if m.FlowSpecAnnounced.Value() != 0 || m.FlowSpecRejectedOrigin.Value() != 1 ||
		m.FlowSpecImportAccepted.Value() != 0 {
		t.Errorf("announced_rules=%d rejected_origin=%d import.accepted=%d, want 0/1/0",
			m.FlowSpecAnnounced.Value(), m.FlowSpecRejectedOrigin.Value(), m.FlowSpecImportAccepted.Value())
	}
	if imported(s, 200, bgp.MustParsePrefix("203.0.113.5/32").Addr, 17, 123, 40000) {
		t.Error("the valid rule before the invalid one was installed")
	}
}

// TestFlowSpecUpdateWithdrawsIPv4First pins RFC 4271 order for an UPDATE
// that carries both: its IPv4 withdrawals apply before its FlowSpec
// rules, so the RTBH route the analysis sees closed is closed in the
// fabric too, and the archived record yields both actions.
func TestFlowSpecUpdateWithdrawsIPv4First(t *testing.T) {
	s := fsServer(t)
	var archive bytes.Buffer
	w := mrt.NewWriter(&archive)
	s.SetCollector(func(ts time.Time, peerAS, peerIP uint32, msg []byte) {
		if err := w.WriteRecord(&mrt.Record{Timestamp: ts, PeerAS: peerAS, PeerIP: peerIP, Message: msg}); err != nil {
			t.Fatal(err)
		}
	})
	ts := time.Unix(0, 0)
	if _, err := s.Process(ts, 100, blackholeUpdate("203.0.113.5/32")); err != nil {
		t.Fatal(err)
	}
	upd, err := bgp.UpdateFromFlowSpec(&bgp.FlowSpecUpdate{
		Announced: []*bgp.FlowRule{discardRule("203.0.113.5/32", 123)},
		ExtComms:  []bgp.ExtCommunity{bgp.TrafficRateDiscard},
	})
	if err != nil {
		t.Fatal(err)
	}
	upd.Withdrawn = []bgp.Prefix{bgp.MustParsePrefix("203.0.113.5/32")}
	if _, err := s.Process(ts.Add(time.Minute), 100, upd); err != nil {
		t.Fatal(err)
	}
	victim := bgp.MustParsePrefix("203.0.113.5/32").Addr
	if n := s.NumActiveRoutes(); n != 0 {
		t.Errorf("blackhole routes after the withdrawal = %d, want 0", n)
	}
	if f := s.DropFraction(200, victim); f != 0 {
		t.Errorf("drop fraction after the withdrawal = %v", f)
	}
	if s.NumFlowSpecRules() != 1 || !imported(s, 200, victim, 17, 123, 40000) {
		t.Errorf("rules = %d, want the announced rule installed", s.NumFlowSpecRules())
	}

	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	updates, flows, err := analysis.ParseMRTAll(&archive)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != 2 || !updates[0].Announce || updates[1].Announce {
		t.Errorf("archived control updates = %+v, want the announcement and its withdrawal", updates)
	}
	if len(flows) != 1 || !flows[0].Announce {
		t.Errorf("archived flowspec actions = %+v, want one announcement", flows)
	}
}

func TestFlowSpecCollectorArchivesMessages(t *testing.T) {
	s := fsServer(t)
	var got int
	s.SetCollector(func(ts time.Time, peerAS uint32, peerIP uint32, msg []byte) {
		if _, ok, err := bgp.DecodeFlowSpecUpdate(msg); err != nil || !ok {
			t.Errorf("archived message not a flowspec update: %v", err)
		}
		got++
	})
	announceFS(t, s, 100, discardRule("203.0.113.5/32", 123))
	if got != 1 {
		t.Fatalf("collector calls = %d", got)
	}
}

func TestMatchFlowSpecEmptyServer(t *testing.T) {
	s := fsServer(t)
	if s.MatchFlowRule(100, 200, 1, 17, 123, 1) != nil {
		t.Fatal("empty server matched")
	}
	if s.NumFlowSpecRules() != 0 {
		t.Fatal("phantom rules")
	}
}

// TestFlowCandidatesMatchFlowRule holds the per-batch candidates to
// MatchFlowRule on random rule sets: overlapping rules announced and
// withdrawn by random members, FlowSpec-capable or not, that join between
// announcements, so every member imports a different subset. For every
// ingress/egress pair, unknown members included, and every destination,
// one FlowCandidates value is resolved again and asked about every
// protocol and port pair; it must return the very rule MatchFlowRule does.
func TestFlowCandidatesMatchFlowRule(t *testing.T) {
	pool := []string{"203.0.113.0/24", "203.0.113.0/25", "203.0.113.128/25",
		"203.0.113.5/32", "203.0.113.7/32", "198.51.100.0/24", "10.0.0.0/8"}
	dsts := []uint32{0xcb007105, 0xcb007107, 0xcb007181, 0xc6336409, 0x0a000001, 0x08080808}
	protos := []uint8{1, 6, 17}
	srcPorts := []uint16{53, 123, 389, 1000}
	dstPorts := []uint16{80, 443, 4000}
	pick := func(r *rand.Rand, xs []uint16) []uint16 {
		var out []uint16
		for _, x := range xs {
			if r.IntN(3) == 0 {
				out = append(out, x)
			}
		}
		return out
	}

	var fc FlowCandidates
	var queries, matched int
	for seed := uint64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewPCG(seed, 40))
		s := New(rsASN, 1)
		var members []uint32
		type announcement struct {
			peer uint32
			rule *bgp.FlowRule
		}
		var announced []announcement
		for step := 0; step < 30; step++ {
			switch k := r.IntN(10); {
			case k < 2 || len(members) == 0:
				asn := uint32(100 + 100*len(members))
				pol := DefaultPolicy()
				if r.IntN(3) > 0 {
					pol = Policy{Standard: AcceptFull, FlowSpec: AcceptFull}
				}
				if err := s.AddPeer(Peer{ASN: asn, IP: asn, Policy: pol}); err != nil {
					t.Fatal(err)
				}
				members = append(members, asn)
			case k < 8:
				rule := &bgp.FlowRule{Dst: bgp.MustParsePrefix(pool[r.IntN(len(pool))]), HasDst: true,
					SrcPorts: pick(r, srcPorts), DstPorts: pick(r, dstPorts)}
				if r.IntN(2) == 0 {
					rule.Protos = []uint8{protos[1+r.IntN(2)]}
				}
				peer := members[r.IntN(len(members))]
				announceFS(t, s, peer, rule)
				announced = append(announced, announcement{peer, rule})
			case len(announced) > 0:
				a := announced[r.IntN(len(announced))]
				processFS(t, s, time.Unix(1, 0), a.peer, &bgp.FlowSpecUpdate{Withdrawn: []*bgp.FlowRule{a.rule}})
			}
		}

		ends := append([]uint32{0}, members...)
		for _, ingress := range ends {
			for _, egress := range ends {
				for _, dst := range dsts {
					s.FlowCandidates(&fc, ingress, egress, dst)
					for _, proto := range protos {
						for _, sp := range srcPorts {
							for _, dp := range dstPorts {
								want := s.MatchFlowRule(ingress, egress, dst, proto, sp, dp)
								if got := fc.Match(proto, sp, dp); got != want {
									t.Fatalf("seed %d: ingress %d egress %d dst %08x proto %d ports %d>%d: candidates match %v, MatchFlowRule %v",
										seed, ingress, egress, dst, proto, sp, dp, got, want)
								}
								queries++
								if want != nil {
									matched++
								}
							}
						}
					}
				}
			}
		}
	}
	if matched == 0 || matched == queries {
		t.Fatalf("%d of %d queries matched a rule: the comparison is vacuous", matched, queries)
	}
}
