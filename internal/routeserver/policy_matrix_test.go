package routeserver

import (
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/obs"
)

// TestPolicyPropagationMatrix walks the paper's propagation matrix
// (§4.1/§4.2): prefix-length class crossed with the receiving member's
// import policy. Each cell pins the resulting drop fraction AND the
// metrics counter that must account for the import decision, so the
// observability layer is verified against the same ground truth as the
// forwarding behaviour.
func TestPolicyPropagationMatrix(t *testing.T) {
	partial := Policy{Standard: AcceptFull, Host: AcceptPartial, HostFraction: 0.4}
	midReady := Policy{Standard: AcceptFull, Mid: AcceptFull, Host: AcceptFull}
	rejectAll := Policy{Standard: AcceptNone, Mid: AcceptNone, Host: AcceptNone}

	cases := []struct {
		name     string
		prefix   string
		victim   string
		policy   Policy
		wantFrac float64
		// exactly one import counter must read 1 after the announcement
		wantCounter string
	}{
		{"slash24/default", "203.0.113.0/24", "203.0.113.77", DefaultPolicy(), 1, "accepted"},
		{"slash24/blackhole-ready", "203.0.113.0/24", "203.0.113.77", BlackholeReadyPolicy(), 1, "accepted"},
		{"slash24/reject-all", "203.0.113.0/24", "203.0.113.77", rejectAll, 0, "rejected_standard"},
		{"slash25/default", "203.0.113.128/25", "203.0.113.200", DefaultPolicy(), 0, "rejected_mid"},
		{"slash28/default", "203.0.113.16/28", "203.0.113.18", DefaultPolicy(), 0, "rejected_mid"},
		{"slash28/blackhole-ready", "203.0.113.16/28", "203.0.113.18", BlackholeReadyPolicy(), 0, "rejected_mid"},
		{"slash28/mid-ready", "203.0.113.16/28", "203.0.113.18", midReady, 1, "accepted"},
		{"slash31/blackhole-ready", "203.0.113.8/31", "203.0.113.9", BlackholeReadyPolicy(), 0, "rejected_mid"},
		{"slash32/default", "203.0.113.5/32", "203.0.113.5", DefaultPolicy(), 0, "rejected_host"},
		{"slash32/blackhole-ready", "203.0.113.5/32", "203.0.113.5", BlackholeReadyPolicy(), 1, "accepted"},
		{"slash32/partial", "203.0.113.5/32", "203.0.113.5", partial, 0.4, "accepted"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, map[uint32]Policy{
				100: BlackholeReadyPolicy(), // origin, never a target
				200: tc.policy,
			})
			if _, err := s.Process(time.Unix(0, 0), 100, blackholeUpdate(tc.prefix)); err != nil {
				t.Fatal(err)
			}
			if a := activeRoute(t, s, tc.prefix); len(a.Targets) != 1 || a.Targets[0] != 200 {
				t.Fatalf("route = %+v, want single target 200", a)
			}
			if f := s.DropFraction(200, mustAddr(t, tc.victim)); f != tc.wantFrac {
				t.Errorf("drop fraction = %v, want %v", f, tc.wantFrac)
			}
			m := s.Metrics()
			got := map[string]int64{
				"accepted":          m.ImportAccepted.Value(),
				"rejected_standard": m.ImportRejectedStandard.Value(),
				"rejected_mid":      m.ImportRejectedMid.Value(),
				"rejected_host":     m.ImportRejectedHost.Value(),
			}
			for name, v := range got {
				want := int64(0)
				if name == tc.wantCounter {
					want = 1
				}
				if v != want {
					t.Errorf("import.%s = %d, want %d (counters: %v)", name, v, want, got)
				}
			}
			if m.AnnouncedPrefixes.Value() != 1 || m.Updates.Value() != 1 {
				t.Errorf("announced=%d updates=%d, want 1/1",
					m.AnnouncedPrefixes.Value(), m.Updates.Value())
			}
		})
	}
}

// TestMissingBlackholeCommunityRejected pins the error path for an
// announcement without the RFC 7999 community and its dedicated counter.
func TestMissingBlackholeCommunityRejected(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{100: DefaultPolicy(), 200: DefaultPolicy()})
	upd := blackholeUpdate("203.0.113.5/32")
	upd.Attrs.Communities = bgp.Communities{bgp.NoExport}
	if _, err := s.Process(time.Unix(0, 0), 100, upd); err == nil {
		t.Fatal("announcement without BLACKHOLE community accepted")
	}
	m := s.Metrics()
	if m.RejectedNoBlackhole.Value() != 1 {
		t.Errorf("rejected_no_blackhole_community = %d, want 1", m.RejectedNoBlackhole.Value())
	}
	// The update was still counted (it reached the server), but nothing
	// was announced.
	if m.Updates.Value() != 1 || m.AnnouncedPrefixes.Value() != 0 {
		t.Errorf("updates=%d announced=%d, want 1/0", m.Updates.Value(), m.AnnouncedPrefixes.Value())
	}
	if s.NumActiveRoutes() != 0 {
		t.Errorf("active routes = %d", s.NumActiveRoutes())
	}
}

// TestSteeringCommunitiesMetrics covers announcements carrying multiple
// steering communities and checks the not_targeted accounting: excluded
// peers are counted once each, targeted peers produce import outcomes.
func TestSteeringCommunitiesMetrics(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{
		100: BlackholeReadyPolicy(),
		200: BlackholeReadyPolicy(),
		300: BlackholeReadyPolicy(),
		400: DefaultPolicy(),
	})
	ts := time.Unix(0, 0)

	// Exclude 300 only: targets 200 and 400.
	if _, err := s.Process(ts, 100, blackholeUpdate("203.0.113.5/32",
		bgp.MakeCommunity(0, 300))); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.NotTargeted.Value() != 1 {
		t.Fatalf("not_targeted after exclude = %d, want 1", m.NotTargeted.Value())
	}
	if m.ImportAccepted.Value() != 1 || m.ImportRejectedHost.Value() != 1 {
		t.Fatalf("accepted=%d rejected_host=%d, want 1/1 (200 accepts, 400 rejects)",
			m.ImportAccepted.Value(), m.ImportRejectedHost.Value())
	}

	// Allow-list mode with an overriding block: only 200 remains targeted,
	// so 300 and 400 add two more not_targeted outcomes.
	if _, err := s.Process(ts, 100, blackholeUpdate("203.0.113.6/32",
		bgp.MakeCommunity(0, rsASN),
		bgp.MakeCommunity(rsASN, 200),
		bgp.MakeCommunity(rsASN, 300),
		bgp.MakeCommunity(0, 300))); err != nil {
		t.Fatal(err)
	}
	if m.NotTargeted.Value() != 3 {
		t.Fatalf("not_targeted after allow-list = %d, want 3", m.NotTargeted.Value())
	}
	if m.ImportAccepted.Value() != 2 {
		t.Fatalf("accepted = %d, want 2", m.ImportAccepted.Value())
	}
	if f := s.DropFraction(300, mustAddr(t, "203.0.113.6")); f != 0 {
		t.Errorf("blocked peer drop fraction = %v", f)
	}
	if f := s.DropFraction(200, mustAddr(t, "203.0.113.6")); f != 1 {
		t.Errorf("allowed peer drop fraction = %v", f)
	}
}

// TestWithdrawBeforeAnnounce pins the no-op semantics of withdrawing a
// route that was never installed: state untouched, the noop counter (and
// only it) incremented, and a later announce/withdraw cycle unaffected.
func TestWithdrawBeforeAnnounce(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{
		100: BlackholeReadyPolicy(),
		200: BlackholeReadyPolicy(),
	})
	ts := time.Unix(0, 0)
	if _, err := s.Process(ts, 100, withdrawUpdate("203.0.113.5/32")); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.WithdrawnNoop.Value() != 1 || m.WithdrawnPrefixes.Value() != 0 {
		t.Fatalf("noop=%d withdrawn=%d, want 1/0", m.WithdrawnNoop.Value(), m.WithdrawnPrefixes.Value())
	}
	if s.NumActiveRoutes() != 0 {
		t.Fatalf("active routes = %d", s.NumActiveRoutes())
	}

	// The full cycle still works after the premature withdraw.
	if _, err := s.Process(ts, 100, blackholeUpdate("203.0.113.5/32")); err != nil {
		t.Fatal(err)
	}
	if f := s.DropFraction(200, mustAddr(t, "203.0.113.5")); f != 1 {
		t.Fatalf("drop fraction after announce = %v", f)
	}
	if _, err := s.Process(ts.Add(time.Minute), 100, withdrawUpdate("203.0.113.5/32")); err != nil {
		t.Fatal(err)
	}
	if m.WithdrawnNoop.Value() != 1 || m.WithdrawnPrefixes.Value() != 1 {
		t.Fatalf("noop=%d withdrawn=%d, want 1/1", m.WithdrawnNoop.Value(), m.WithdrawnPrefixes.Value())
	}
	if f := s.DropFraction(200, mustAddr(t, "203.0.113.5")); f != 0 {
		t.Fatalf("drop fraction after withdraw = %v", f)
	}
}

// TestFlowSpecPolicyMatrix crosses the FlowSpec dimensions the way
// TestPolicyPropagationMatrix does for RTBH: target import policy
// (FlowSpec enabled or not) × originator validation (rule destination
// inside or outside the announcer's registered space) × a withdraw
// arriving before the announcement. Each cell pins the install outcome
// AND the flowspec.* counters accounting for it.
func TestFlowSpecPolicyMatrix(t *testing.T) {
	fsRule := func(dst string) *bgp.FlowRule {
		return &bgp.FlowRule{
			Dst: bgp.MustParsePrefix(dst), HasDst: true,
			Protos: []uint8{17}, SrcPorts: []uint16{123},
		}
	}
	discard := func(rs ...*bgp.FlowRule) *bgp.FlowSpecUpdate {
		return &bgp.FlowSpecUpdate{
			Announced: rs,
			ExtComms:  []bgp.ExtCommunity{bgp.TrafficRateDiscard},
		}
	}
	newFSServer := func(t *testing.T, targetFS AcceptClass) *Server {
		t.Helper()
		s := New(rsASN, mustAddr(t, "10.0.0.1"))
		peers := []Peer{
			{ASN: 100, Policy: DefaultPolicy(),
				Space: []bgp.Prefix{bgp.MustParsePrefix("203.0.113.0/24")}},
			{ASN: 200, Policy: Policy{Standard: AcceptFull, FlowSpec: targetFS}},
		}
		for _, p := range peers {
			if err := s.AddPeer(p); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	victim := "203.0.113.5"

	cases := []struct {
		name          string
		targetFS      AcceptClass
		dst           string // announced rule destination
		withdrawFirst bool
		wantErr       bool
		wantInstalled bool // rule matches at peer 200 after the announce
		want          map[string]int64
	}{
		{name: "accept/valid-origin", targetFS: AcceptFull,
			dst: "203.0.113.5/32", wantInstalled: true,
			want: map[string]int64{"updates": 1, "announced_rules": 1, "import.accepted": 1}},
		{name: "reject/valid-origin", targetFS: AcceptNone,
			dst:  "203.0.113.5/32",
			want: map[string]int64{"updates": 1, "announced_rules": 1, "import.rejected": 1}},
		{name: "accept/invalid-origin", targetFS: AcceptFull,
			dst: "198.51.100.0/24", wantErr: true,
			want: map[string]int64{"updates": 1, "rejected_origin": 1}},
		{name: "reject/invalid-origin", targetFS: AcceptNone,
			dst: "198.51.100.0/24", wantErr: true,
			want: map[string]int64{"updates": 1, "rejected_origin": 1}},
		{name: "accept/valid-origin/withdraw-first", targetFS: AcceptFull,
			dst: "203.0.113.5/32", withdrawFirst: true, wantInstalled: true,
			want: map[string]int64{"updates": 2, "announced_rules": 1,
				"import.accepted": 1, "withdrawn_noop": 1}},
		{name: "reject/valid-origin/withdraw-first", targetFS: AcceptNone,
			dst: "203.0.113.5/32", withdrawFirst: true,
			want: map[string]int64{"updates": 2, "announced_rules": 1,
				"import.rejected": 1, "withdrawn_noop": 1}},
		{name: "accept/invalid-origin/withdraw-first", targetFS: AcceptFull,
			dst: "198.51.100.0/24", withdrawFirst: true, wantErr: true,
			want: map[string]int64{"updates": 2, "rejected_origin": 1, "withdrawn_noop": 1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := newFSServer(t, tc.targetFS)
			ts := time.Unix(0, 0)
			rule := fsRule(tc.dst)
			if tc.withdrawFirst {
				// Withdrawing a never-announced rule must be a counted no-op
				// that leaves the later cycle untouched.
				err := processFS(t, s, ts, 100, &bgp.FlowSpecUpdate{
					Withdrawn: []*bgp.FlowRule{rule},
				})
				if err != nil {
					t.Fatalf("premature withdraw: %v", err)
				}
				if s.NumFlowSpecRules() != 0 {
					t.Fatalf("rules after premature withdraw = %d", s.NumFlowSpecRules())
				}
			}
			err := processFS(t, s, ts.Add(time.Minute), 100, discard(rule))
			if (err != nil) != tc.wantErr {
				t.Fatalf("announce err = %v, wantErr %v", err, tc.wantErr)
			}
			installed := imported(s, 200, mustAddr(t, victim), 17, 123, 40000)
			if tc.dst == "198.51.100.0/24" {
				installed = imported(s, 200, mustAddr(t, "198.51.100.9"), 17, 123, 40000)
			}
			if installed != tc.wantInstalled {
				t.Errorf("installed at peer 200 = %v, want %v", installed, tc.wantInstalled)
			}
			// The originator's own edge carries exactly the rules that were
			// accepted into the system, regardless of any target's policy.
			ownHas := s.MatchFlowRule(0, 100, mustAddr(t, victim), 17, 123, 40000) != nil
			if !tc.wantErr != ownHas {
				t.Errorf("originator edge match = %v, want %v", ownHas, !tc.wantErr)
			}

			m := s.Metrics()
			got := map[string]int64{
				"updates":             m.FlowSpecUpdates.Value(),
				"announced_rules":     m.FlowSpecAnnounced.Value(),
				"withdrawn_rules":     m.FlowSpecWithdrawn.Value(),
				"withdrawn_noop":      m.FlowSpecWithdrawnNoop.Value(),
				"reannouncements":     m.FlowSpecReannouncements.Value(),
				"rejected_no_discard": m.FlowSpecRejectedAction.Value(),
				"rejected_no_dst":     m.FlowSpecRejectedNoDst.Value(),
				"rejected_origin":     m.FlowSpecRejectedOrigin.Value(),
				"import.accepted":     m.FlowSpecImportAccepted.Value(),
				"import.rejected":     m.FlowSpecImportRejected.Value(),
			}
			for name, v := range got {
				if v != tc.want[name] {
					t.Errorf("flowspec.%s = %d, want %d (counters: %v)", name, v, tc.want[name], got)
				}
			}

			// Tear the installed rule down again: the withdraw must land in
			// withdrawn_rules and clear both the import and the originator
			// views.
			if !tc.wantErr {
				err := processFS(t, s, ts.Add(2*time.Minute), 100, &bgp.FlowSpecUpdate{
					Withdrawn: []*bgp.FlowRule{rule},
				})
				if err != nil {
					t.Fatalf("withdraw: %v", err)
				}
				if s.NumFlowSpecRules() != 0 {
					t.Errorf("rules after withdraw = %d", s.NumFlowSpecRules())
				}
				if imported(s, 200, mustAddr(t, victim), 17, 123, 40000) {
					t.Error("rule still matches at peer 200 after withdraw")
				}
				if s.MatchFlowRule(0, 100, mustAddr(t, victim), 17, 123, 40000) != nil {
					t.Error("originator edge still matches after withdraw")
				}
				if m.FlowSpecWithdrawn.Value() != tc.want["withdrawn_rules"]+1 {
					t.Errorf("flowspec.withdrawn_rules = %d after teardown", m.FlowSpecWithdrawn.Value())
				}
			}
		})
	}
}

// TestFlowSpecNonDiscardRejected pins the action validation: a FlowSpec
// announcement without the traffic-rate-0 action is refused and counted,
// installing nothing.
func TestFlowSpecNonDiscardRejected(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{
		100: DefaultPolicy(),
		200: {Standard: AcceptFull, FlowSpec: AcceptFull},
	})
	upd := &bgp.FlowSpecUpdate{
		Announced: []*bgp.FlowRule{{
			Dst: bgp.MustParsePrefix("203.0.113.5/32"), HasDst: true,
		}},
	}
	if err := processFS(t, s, time.Unix(0, 0), 100, upd); err == nil {
		t.Fatal("flowspec announcement without discard action accepted")
	}
	m := s.Metrics()
	if m.FlowSpecRejectedAction.Value() != 1 || m.FlowSpecAnnounced.Value() != 0 {
		t.Errorf("rejected_no_discard=%d announced=%d, want 1/0",
			m.FlowSpecRejectedAction.Value(), m.FlowSpecAnnounced.Value())
	}
	if s.NumFlowSpecRules() != 0 {
		t.Errorf("rules = %d", s.NumFlowSpecRules())
	}
}

// TestUnknownPeerCounted pins that an update from an unregistered peer is
// refused before any processing and lands in its own counter, not in
// routeserver.updates.
func TestUnknownPeerCounted(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{100: DefaultPolicy()})
	if _, err := s.Process(time.Unix(0, 0), 999, blackholeUpdate("203.0.113.5/32")); err == nil {
		t.Fatal("update from unknown peer accepted")
	}
	m := s.Metrics()
	if m.RejectedUnknownPeer.Value() != 1 || m.Updates.Value() != 0 {
		t.Fatalf("rejected_unknown_peer=%d updates=%d, want 1/0",
			m.RejectedUnknownPeer.Value(), m.Updates.Value())
	}
}

// TestRegisterMetricsSnapshot checks the registry view end to end: the
// counters land under their documented names and the live RIB gauges
// track announce/withdraw, including the per-peer Adj-RIB-In sizes.
func TestRegisterMetricsSnapshot(t *testing.T) {
	s := newTestServer(t, map[uint32]Policy{
		100: BlackholeReadyPolicy(),
		200: BlackholeReadyPolicy(),
		300: DefaultPolicy(),
	})
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	ts := time.Unix(0, 0)
	if _, err := s.Process(ts, 100, blackholeUpdate("203.0.113.5/32")); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counter("routeserver.updates") != 1 ||
		snap.Counter("routeserver.rtbh.announced_prefixes") != 1 ||
		snap.Counter("routeserver.import.accepted") != 1 ||
		snap.Counter("routeserver.import.rejected_host") != 1 {
		t.Fatalf("snapshot counters = %v", snap.Counters)
	}
	if snap.Gauge("routeserver.peers") != 3 || snap.Gauge("routeserver.rib_routes") != 1 {
		t.Fatalf("snapshot gauges = %v", snap.Gauges)
	}
	if snap.Gauge("routeserver.peer.AS200.rib_size") != 1 ||
		snap.Gauge("routeserver.peer.AS300.rib_size") != 0 {
		t.Fatalf("per-peer rib gauges = %v", snap.Gauges)
	}

	if _, err := s.Process(ts.Add(time.Minute), 100, withdrawUpdate("203.0.113.5/32")); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if snap.Gauge("routeserver.rib_routes") != 0 || snap.Gauge("routeserver.peer.AS200.rib_size") != 0 {
		t.Fatalf("gauges after withdraw = %v", snap.Gauges)
	}
}
