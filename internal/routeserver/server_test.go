package routeserver

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bgp"
	"repro/internal/stats"
)

const rsASN = 65500

func newTestServer(t *testing.T, policies map[uint32]Policy) *Server {
	t.Helper()
	s := New(rsASN, mustAddr(t, "10.0.0.1"))
	for asn, pol := range policies {
		if err := s.AddPeer(Peer{ASN: asn, IP: 0x0a000000 + asn, Policy: pol}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func mustAddr(t *testing.T, s string) uint32 {
	t.Helper()
	a, err := bgp.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func blackholeUpdate(prefix string, extra ...bgp.Community) *bgp.Update {
	cs := bgp.Communities{bgp.Blackhole}
	cs = append(cs, extra...)
	return &bgp.Update{
		Attrs: bgp.PathAttrs{
			Origin:      bgp.OriginIGP,
			ASPath:      []uint32{100},
			NextHop:     0x0a000064,
			Communities: cs,
		},
		NLRI: []bgp.Prefix{bgp.MustParsePrefix(prefix)},
	}
}

// activeRoute returns the single installed route for prefix.
func activeRoute(t *testing.T, s *Server, prefix string) Announcement {
	t.Helper()
	var found []Announcement
	for _, a := range s.ActiveRoutes() {
		if a.Prefix == bgp.MustParsePrefix(prefix) {
			found = append(found, a)
		}
	}
	if len(found) != 1 {
		t.Fatalf("active routes for %s = %+v, want exactly one", prefix, found)
	}
	return found[0]
}

func withdrawUpdate(prefix string) *bgp.Update {
	return &bgp.Update{Withdrawn: []bgp.Prefix{bgp.MustParsePrefix(prefix)}}
}

func TestAnnounceDistributesToAllOthers(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{
		100: BlackholeReadyPolicy(),
		200: BlackholeReadyPolicy(),
		300: DefaultPolicy(),
	})
	anns, err := s.Process(time.Unix(0, 0), 100, blackholeUpdate("203.0.113.5/32"))
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) != 1 || anns[0].Origin != 100 || anns[0].Prefix != bgp.MustParsePrefix("203.0.113.5/32") {
		t.Fatalf("Process reported %+v, want the one announced (origin, prefix)", anns)
	}
	// Who received the route is a query on live state.
	a := activeRoute(t, s, "203.0.113.5/32")
	if len(a.Targets) != 2 {
		t.Fatalf("targets = %v, want peers 200 and 300", a.Targets)
	}
	// Only 200 whitelists /32 blackholes.
	if len(a.Accepted) != 1 || a.Accepted[0] != 200 {
		t.Fatalf("accepted = %v, want [200]", a.Accepted)
	}
}

func TestDropFractionByPolicy(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{
		100: BlackholeReadyPolicy(),
		200: BlackholeReadyPolicy(),
		300: DefaultPolicy(),
		400: {Standard: AcceptFull, Host: AcceptPartial, HostFraction: 0.4},
	})
	victim := mustAddr(t, "203.0.113.5")
	if _, err := s.Process(time.Unix(0, 0), 100, blackholeUpdate("203.0.113.5/32")); err != nil {
		t.Fatal(err)
	}
	if f := s.DropFraction(200, victim); f != 1 {
		t.Fatalf("accepting peer drop fraction = %v", f)
	}
	if f := s.DropFraction(300, victim); f != 0 {
		t.Fatalf("default-policy peer drop fraction = %v", f)
	}
	if f := s.DropFraction(400, victim); f != 0.4 {
		t.Fatalf("partial peer drop fraction = %v", f)
	}
	// The originator did not receive its own route.
	if f := s.DropFraction(100, victim); f != 0 {
		t.Fatalf("originator drop fraction = %v", f)
	}
	// Unrelated destination unaffected.
	if f := s.DropFraction(200, victim+1); f != 0 {
		t.Fatalf("unrelated destination drop fraction = %v", f)
	}
}

func TestSlash24AcceptedByDefaultPolicy(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{
		100: DefaultPolicy(),
		200: DefaultPolicy(),
	})
	if _, err := s.Process(time.Unix(0, 0), 100, blackholeUpdate("203.0.113.0/24")); err != nil {
		t.Fatal(err)
	}
	inside := mustAddr(t, "203.0.113.200")
	if f := s.DropFraction(200, inside); f != 1 {
		t.Fatalf("/24 blackhole not honoured by default policy: %v", f)
	}
}

func TestMidLengthRejectedEvenByBlackholeReady(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{
		100: BlackholeReadyPolicy(),
		200: BlackholeReadyPolicy(),
	})
	if _, err := s.Process(time.Unix(0, 0), 100, blackholeUpdate("203.0.113.0/28")); err != nil {
		t.Fatal(err)
	}
	if f := s.DropFraction(200, mustAddr(t, "203.0.113.3")); f != 0 {
		t.Fatalf("/28 accepted despite missing whitelist: %v", f)
	}
}

func TestLongestPrefixWins(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{
		100: {Standard: AcceptFull, Host: AcceptPartial, HostFraction: 0.5},
		200: {Standard: AcceptFull, Host: AcceptPartial, HostFraction: 0.5},
	})
	ts := time.Unix(0, 0)
	if _, err := s.Process(ts, 100, blackholeUpdate("203.0.113.0/24")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(ts, 100, blackholeUpdate("203.0.113.5/32")); err != nil {
		t.Fatal(err)
	}
	// /32 (partial, 0.5) shadows the /24 (full) for the host address.
	if f := s.DropFraction(200, mustAddr(t, "203.0.113.5")); f != 0.5 {
		t.Fatalf("LPM fraction = %v, want 0.5 from /32", f)
	}
	// Other addresses in the /24 still fully dropped.
	if f := s.DropFraction(200, mustAddr(t, "203.0.113.6")); f != 1 {
		t.Fatalf("/24 fraction = %v, want 1", f)
	}
}

func TestWithdrawRemovesRoute(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{
		100: BlackholeReadyPolicy(),
		200: BlackholeReadyPolicy(),
	})
	ts := time.Unix(0, 0)
	victim := mustAddr(t, "203.0.113.5")
	s.Process(ts, 100, blackholeUpdate("203.0.113.5/32"))
	if s.NumActiveRoutes() != 1 {
		t.Fatalf("active routes = %d", s.NumActiveRoutes())
	}
	s.Process(ts.Add(time.Minute), 100, withdrawUpdate("203.0.113.5/32"))
	if s.NumActiveRoutes() != 0 {
		t.Fatalf("active routes after withdraw = %d", s.NumActiveRoutes())
	}
	if f := s.DropFraction(200, victim); f != 0 {
		t.Fatalf("drop fraction after withdraw = %v", f)
	}
}

func TestWithdrawUnknownIsNoOp(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{100: DefaultPolicy(), 200: DefaultPolicy()})
	if _, err := s.Process(time.Unix(0, 0), 100, withdrawUpdate("203.0.113.5/32")); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleOriginsRefcounted(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{
		100: BlackholeReadyPolicy(),
		200: BlackholeReadyPolicy(),
		300: BlackholeReadyPolicy(),
	})
	ts := time.Unix(0, 0)
	victim := mustAddr(t, "203.0.113.5")
	// Both 100 and 200 blackhole the same prefix (victim + upstream).
	s.Process(ts, 100, blackholeUpdate("203.0.113.5/32"))
	s.Process(ts, 200, blackholeUpdate("203.0.113.5/32"))
	if f := s.DropFraction(300, victim); f != 1 {
		t.Fatalf("fraction = %v", f)
	}
	// Withdrawing one origin must keep the other's route effective.
	s.Process(ts, 100, withdrawUpdate("203.0.113.5/32"))
	if f := s.DropFraction(300, victim); f != 1 {
		t.Fatalf("fraction after partial withdraw = %v", f)
	}
	s.Process(ts, 200, withdrawUpdate("203.0.113.5/32"))
	if f := s.DropFraction(300, victim); f != 0 {
		t.Fatalf("fraction after full withdraw = %v", f)
	}
}

func TestReannouncementReplacesRoute(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{
		100: BlackholeReadyPolicy(),
		200: BlackholeReadyPolicy(),
		300: BlackholeReadyPolicy(),
	})
	ts := time.Unix(0, 0)
	// First announcement to everyone; re-announcement targeted to 200 only.
	s.Process(ts, 100, blackholeUpdate("203.0.113.5/32"))
	s.Process(ts, 100, blackholeUpdate("203.0.113.5/32",
		bgp.MakeCommunity(0, rsASN), bgp.MakeCommunity(rsASN, 200)))
	victim := mustAddr(t, "203.0.113.5")
	if f := s.DropFraction(200, victim); f != 1 {
		t.Fatalf("targeted peer fraction = %v", f)
	}
	if f := s.DropFraction(300, victim); f != 0 {
		t.Fatalf("untargeted peer fraction = %v (implicit withdraw failed)", f)
	}
	if s.NumActiveRoutes() != 1 {
		t.Fatalf("active routes = %d", s.NumActiveRoutes())
	}
}

func TestTargetedAnnouncementCommunities(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{
		100: BlackholeReadyPolicy(),
		200: BlackholeReadyPolicy(),
		300: BlackholeReadyPolicy(),
		400: BlackholeReadyPolicy(),
	})
	ts := time.Unix(0, 0)

	// Exclude a single peer: 0:300.
	if _, err := s.Process(ts, 100, blackholeUpdate("203.0.113.5/32", bgp.MakeCommunity(0, 300))); err != nil {
		t.Fatal(err)
	}
	if got := activeRoute(t, s, "203.0.113.5/32").Targets; len(got) != 2 || got[0] != 200 || got[1] != 400 {
		t.Fatalf("exclude targeting = %v, want [200 400]", got)
	}

	// Allow-list mode: 0:rs plus rs:200.
	if _, err := s.Process(ts, 100, blackholeUpdate("203.0.113.6/32",
		bgp.MakeCommunity(0, rsASN), bgp.MakeCommunity(rsASN, 200))); err != nil {
		t.Fatal(err)
	}
	if got := activeRoute(t, s, "203.0.113.6/32").Targets; len(got) != 1 || got[0] != 200 {
		t.Fatalf("allow-list targeting = %v, want [200]", got)
	}

	// Allow-list with an explicit block that overrides the allow.
	if _, err := s.Process(ts, 100, blackholeUpdate("203.0.113.7/32",
		bgp.MakeCommunity(rsASN, 200), bgp.MakeCommunity(rsASN, 300), bgp.MakeCommunity(0, 300))); err != nil {
		t.Fatal(err)
	}
	if got := activeRoute(t, s, "203.0.113.7/32").Targets; len(got) != 1 || got[0] != 200 {
		t.Fatalf("allow+block targeting = %v, want [200]", got)
	}
}

func TestVisibleTo(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{
		100: DefaultPolicy(),
		200: DefaultPolicy(),
		300: DefaultPolicy(),
	})
	p := bgp.MustParsePrefix("203.0.113.5/32")
	s.Process(time.Unix(0, 0), 100, blackholeUpdate("203.0.113.5/32", bgp.MakeCommunity(0, 300)))
	if !s.VisibleTo(200, p) {
		t.Fatal("route invisible to included peer")
	}
	if s.VisibleTo(300, p) {
		t.Fatal("route visible to excluded peer")
	}
	// Visibility is independent of acceptance: 200 rejects /32 but sees it.
	if f := s.DropFraction(200, mustAddr(t, "203.0.113.5")); f != 0 {
		t.Fatalf("default policy accepted /32: %v", f)
	}
}

func TestRejectsNonBlackholeAnnouncement(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{100: DefaultPolicy(), 200: DefaultPolicy()})
	upd := blackholeUpdate("203.0.113.0/24")
	upd.Attrs.Communities = bgp.Communities{bgp.NoExport} // no BLACKHOLE
	if _, err := s.Process(time.Unix(0, 0), 100, upd); err == nil {
		t.Fatal("non-blackhole announcement accepted")
	}
}

func TestRejectsUnknownPeer(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{100: DefaultPolicy()})
	if _, err := s.Process(time.Unix(0, 0), 999, blackholeUpdate("203.0.113.5/32")); err == nil {
		t.Fatal("update from unknown peer accepted")
	}
}

func TestAddPeerValidation(t *testing.T) {
	s := New(rsASN, 1)
	if err := s.AddPeer(Peer{ASN: 100}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPeer(Peer{ASN: 100}); err == nil {
		t.Fatal("duplicate peer accepted")
	}
	if err := s.AddPeer(Peer{ASN: 0}); err == nil {
		t.Fatal("ASN 0 accepted")
	}
	if err := s.AddPeer(Peer{ASN: 1 << 20}); err == nil {
		t.Fatal("32-bit ASN accepted")
	}
}

func TestCollectorSeesMessages(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{100: DefaultPolicy(), 200: DefaultPolicy()})
	var got []uint32
	s.SetCollector(func(ts time.Time, peerAS uint32, peerIP uint32, msg []byte) {
		if _, _, _, err := bgp.DecodeMessage(msg); err != nil {
			t.Errorf("collector got undecodable message: %v", err)
		}
		got = append(got, peerAS)
	})
	ts := time.Unix(0, 0)
	s.Process(ts, 100, blackholeUpdate("203.0.113.5/32"))
	s.Process(ts, 100, withdrawUpdate("203.0.113.5/32"))
	if len(got) != 2 || got[0] != 100 {
		t.Fatalf("collector calls = %v", got)
	}
	if s.MessagesProcessed() != 2 {
		t.Fatalf("MessagesProcessed = %d", s.MessagesProcessed())
	}
}

func TestActiveRoutesDeterministicOrder(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{
		100: DefaultPolicy(), 200: DefaultPolicy(), 300: DefaultPolicy(),
	})
	ts := time.Unix(0, 0)
	s.Process(ts, 200, blackholeUpdate("203.0.113.0/24"))
	s.Process(ts, 100, blackholeUpdate("198.51.100.0/24"))
	s.Process(ts, 100, blackholeUpdate("203.0.114.0/24"))
	r := s.ActiveRoutes()
	if len(r) != 3 {
		t.Fatalf("routes = %d", len(r))
	}
	if r[0].Origin != 100 || r[1].Origin != 100 || r[2].Origin != 200 {
		t.Fatalf("order = %v", r)
	}
	if r[0].Prefix.Addr > r[1].Prefix.Addr {
		t.Fatal("prefixes not sorted within origin")
	}
}

func TestPolicyFractionClamping(t *testing.T) {
	p := Policy{Host: AcceptPartial, HostFraction: 1.5}
	if f := p.fraction(32); f != 1 {
		t.Fatalf("fraction clamped high = %v", f)
	}
	p.HostFraction = -0.5
	if f := p.fraction(32); f != 0 {
		t.Fatalf("fraction clamped low = %v", f)
	}
}

func TestAcceptClassString(t *testing.T) {
	if AcceptNone.String() != "none" || AcceptFull.String() != "full" ||
		AcceptPartial.String() != "partial" || AcceptClass(9).String() != "invalid" {
		t.Fatal("AcceptClass.String wrong")
	}
}

func TestRandomSequencesInvariantsProperty(t *testing.T) {
	// Drive the route server with random announce/withdraw sequences and
	// check structural invariants: drop fractions stay in [0,1], and
	// withdrawing everything empties the RIB and every peer view.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		s := New(rsASN, 1)
		peers := []uint32{100, 200, 300, 400, 500}
		for _, asn := range peers {
			pol := DefaultPolicy()
			switch rng.Intn(3) {
			case 0:
				pol = BlackholeReadyPolicy()
			case 1:
				pol = Policy{Standard: AcceptFull, Host: AcceptPartial, HostFraction: rng.Float64()}
			}
			if err := s.AddPeer(Peer{ASN: asn, Policy: pol}); err != nil {
				return false
			}
		}
		prefixes := []bgp.Prefix{
			bgp.MustParsePrefix("203.0.113.5/32"),
			bgp.MustParsePrefix("203.0.113.6/32"),
			bgp.MustParsePrefix("203.0.113.0/24"),
			bgp.MustParsePrefix("198.51.100.0/28"),
		}
		active := map[[2]uint32]bgp.Prefix{}
		ts := time.Unix(0, 0)
		for step := 0; step < 120; step++ {
			peer := peers[rng.Intn(len(peers))]
			prefix := prefixes[rng.Intn(len(prefixes))]
			if rng.Bool(0.55) {
				upd := &bgp.Update{
					Attrs: bgp.PathAttrs{
						ASPath: []uint32{peer}, NextHop: 1,
						Communities: bgp.Communities{bgp.Blackhole},
					},
					NLRI: []bgp.Prefix{prefix},
				}
				if _, err := s.Process(ts, peer, upd); err != nil {
					return false
				}
				active[[2]uint32{peer, prefix.Addr}] = prefix
			} else {
				if _, err := s.Process(ts, peer, &bgp.Update{Withdrawn: []bgp.Prefix{prefix}}); err != nil {
					return false
				}
				delete(active, [2]uint32{peer, prefix.Addr})
			}
			// Invariant: fractions bounded.
			for _, p := range peers {
				fr := s.DropFraction(p, prefix.Addr)
				if fr < 0 || fr > 1 {
					return false
				}
			}
			if s.NumActiveRoutes() != len(active) {
				return false
			}
		}
		// Withdraw everything: the server must end empty.
		for key, prefix := range active {
			if _, err := s.Process(ts, key[0], &bgp.Update{Withdrawn: []bgp.Prefix{prefix}}); err != nil {
				return false
			}
		}
		if s.NumActiveRoutes() != 0 {
			return false
		}
		for _, p := range peers {
			for _, prefix := range prefixes {
				if s.DropFraction(p, prefix.Addr) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
