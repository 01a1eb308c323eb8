package routeserver

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/obs"
	"repro/internal/stats"
)

// refServer is the naive reference model for the RTBH RIB: the per-peer
// map layout this package used before routes owned their peer sets. Every
// peer holds a refcounted map of the prefixes it installed and every
// announcement walks all peers, so each rule of the service (targeting,
// import policy, implicit withdraw, teardown, longest-prefix match) is
// written out peer by peer. TestRIBMatchesReference drives it and Server
// with the same sequences and requires identical answers.
type refServer struct {
	rsASN uint16
	peers map[uint32]*refPeer
	order []uint32 // ascending ASN
	rib   map[refKey]*refRoute
	n     map[string]int64 // counters, by registered metric name
}

type refKey struct {
	origin uint32
	prefix bgp.Prefix
}

type refRoute struct{ targets, accepted map[uint32]bool }

type refPeer struct {
	policy Policy
	rib    map[bgp.Prefix]int // accepted prefix -> number of origins
}

func newRefServer(rsASN uint16) *refServer {
	return &refServer{rsASN: rsASN, peers: map[uint32]*refPeer{}, rib: map[refKey]*refRoute{}, n: map[string]int64{}}
}

func (r *refServer) addPeer(asn uint32, pol Policy) {
	r.peers[asn] = &refPeer{policy: pol, rib: map[bgp.Prefix]int{}}
	r.order = append(r.order, asn)
	sort.Slice(r.order, func(i, j int) bool { return r.order[i] < r.order[j] })
}

// process mirrors Server.Process for RTBH updates and reports whether
// the update was accepted.
func (r *refServer) process(peerAS uint32, upd *bgp.Update) bool {
	if r.peers[peerAS] == nil {
		r.n["routeserver.updates.rejected_unknown_peer"]++
		return false
	}
	r.n["routeserver.updates"]++
	for _, p := range upd.Withdrawn {
		r.withdraw(peerAS, p)
	}
	if len(upd.NLRI) == 0 {
		return true
	}
	if !upd.Attrs.Communities.HasBlackhole() {
		r.n["routeserver.updates.rejected_no_blackhole_community"]++
		return false
	}
	targets := r.targetPeers(upd.Attrs.Communities, peerAS)
	for _, p := range upd.NLRI {
		r.announce(peerAS, p, targets)
	}
	return true
}

func (r *refServer) targetPeers(cs bgp.Communities, origin uint32) map[uint32]bool {
	blockAll := cs.Contains(bgp.MakeCommunity(0, r.rsASN))
	allowList, haveAllows := map[uint32]bool{}, false
	for _, c := range cs {
		if c.ASN() == r.rsASN && c.Value() != r.rsASN {
			allowList[uint32(c.Value())], haveAllows = true, true
		}
	}
	targets := map[uint32]bool{}
	for _, p := range r.order {
		if p != origin && (allowList[p] || !(blockAll || haveAllows)) {
			targets[p] = true
		}
	}
	for _, c := range cs { // explicit blocks override everything
		if c.ASN() == 0 && c.Value() != r.rsASN {
			delete(targets, uint32(c.Value()))
		}
	}
	return targets
}

func (r *refServer) announce(origin uint32, prefix bgp.Prefix, targets map[uint32]bool) {
	key := refKey{origin, prefix}
	r.n["routeserver.rtbh.announced_prefixes"]++
	if old := r.rib[key]; old != nil {
		r.n["routeserver.rtbh.reannouncements"]++
		r.release(prefix, old)
	}
	rt := &refRoute{targets: map[uint32]bool{}, accepted: map[uint32]bool{}}
	for _, target := range r.order {
		switch {
		case !targets[target]:
			if target != origin {
				r.n["routeserver.import.not_targeted"]++
			}
			continue
		case r.peers[target].policy.Accepts(prefix.Len):
			r.n["routeserver.import.accepted"]++
			rt.accepted[target] = true
			r.peers[target].rib[prefix]++
		case prefix.Len <= 24:
			r.n["routeserver.import.rejected_standard"]++
		case prefix.Len < 32:
			r.n["routeserver.import.rejected_mid"]++
		default:
			r.n["routeserver.import.rejected_host"]++
		}
		rt.targets[target] = true
	}
	r.rib[key] = rt
}

func (r *refServer) withdraw(origin uint32, prefix bgp.Prefix) {
	key := refKey{origin, prefix}
	rt := r.rib[key]
	if rt == nil {
		r.n["routeserver.rtbh.withdrawn_noop"]++
		return
	}
	r.n["routeserver.rtbh.withdrawn_prefixes"]++
	r.release(prefix, rt)
	delete(r.rib, key)
}

func (r *refServer) release(prefix bgp.Prefix, rt *refRoute) {
	for target := range rt.accepted {
		if rib := r.peers[target].rib; rib[prefix] > 1 {
			rib[prefix]--
		} else {
			delete(rib, prefix)
		}
	}
}

func (r *refServer) peerDown(peerAS uint32) int {
	if r.peers[peerAS] == nil {
		return 0
	}
	r.n["routeserver.sessions.peer_down"]++
	flushed := 0
	for key := range r.rib {
		if key.origin == peerAS {
			r.withdraw(peerAS, key.prefix)
			flushed++
		}
	}
	return flushed
}

func (r *refServer) dropFraction(peerAS, dst uint32) float64 {
	ps := r.peers[peerAS]
	if ps == nil {
		return 0
	}
	for length := 32; length >= 0; length-- {
		if ps.rib[bgp.MakePrefix(dst, uint8(length))] > 0 {
			return ps.policy.fraction(uint8(length))
		}
	}
	return 0
}

func (r *refServer) visibleTo(peerAS uint32, prefix bgp.Prefix) bool {
	for key, rt := range r.rib {
		if key.prefix == prefix && rt.targets[peerAS] {
			return true
		}
	}
	return false
}

func (r *refServer) activeRoutes() []Announcement {
	out := []Announcement{}
	for key, rt := range r.rib {
		ann := Announcement{Prefix: key.prefix, Origin: key.origin}
		for _, p := range r.order {
			if rt.targets[p] {
				ann.Targets = append(ann.Targets, p)
			}
			if rt.accepted[p] {
				ann.Accepted = append(ann.Accepted, p)
			}
		}
		out = append(out, ann)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Origin != b.Origin {
			return a.Origin < b.Origin
		}
		if a.Prefix.Addr != b.Prefix.Addr {
			return a.Prefix.Addr < b.Prefix.Addr
		}
		return a.Prefix.Len < b.Prefix.Len
	})
	return out
}

// metric returns the value the model holds for a registered
// "routeserver." name: a counter, or one of the live gauges.
func (r *refServer) metric(name string) int64 {
	switch {
	case name == "routeserver.peers":
		return int64(len(r.peers))
	case name == "routeserver.rib_routes":
		return int64(len(r.rib))
	case strings.HasSuffix(name, ".rib_size"):
		var asn uint32
		fmt.Sscanf(name, "routeserver.peer.AS%d.rib_size", &asn)
		return int64(len(r.peers[asn].rib))
	}
	return r.n[name]
}

// ribPair drives a Server and the reference model in lockstep.
type ribPair struct {
	t    *testing.T
	s    *Server
	ref  *refServer
	reg  *obs.Registry // re-registered after AddPeer so late peers have gauges
	asns []uint32
	// meant records, per prefix and origin, the audience of every active
	// announcement: what check's containment invariant holds VisibleTo to.
	meant map[bgp.Prefix]map[uint32]audience
}

// audience is who an announcement was meant for: of the peers registered
// when it was made (the first peers of ribPair.asns), those cs steers it to.
type audience struct {
	cs    bgp.Communities
	peers int
}

// includes reports whether the announcement by origin was meant for the
// i-th peer (negative for the unregistered AS 9): never the announcer,
// never a peer it blocks (0:peer), and — once it restricts its audience
// (0:rs, or any rs:peer) — only the peers it names (rs:peer).
func (a audience) includes(origin uint32, i int, peer uint32) bool {
	if i < 0 || i >= a.peers || peer == origin || a.cs.Contains(bgp.MakeCommunity(0, uint16(peer))) {
		return false
	}
	restricted := a.cs.Contains(bgp.MakeCommunity(0, rsASN))
	for _, c := range a.cs {
		restricted = restricted || (c.ASN() == rsASN && c.Value() != rsASN)
	}
	return !restricted || a.cs.Contains(bgp.MakeCommunity(rsASN, uint16(peer)))
}

func (p *ribPair) addPeer(asn uint32, pol Policy) {
	p.t.Helper()
	if err := p.s.AddPeer(Peer{ASN: asn, IP: asn, Policy: pol}); err != nil {
		p.t.Fatal(err)
	}
	p.ref.addPeer(asn, pol)
	p.asns = append(p.asns, asn)
	p.reg = nil
}

func (p *ribPair) process(step string, peerAS uint32, upd *bgp.Update) {
	p.t.Helper()
	anns, err := p.s.Process(time.Unix(0, 0), peerAS, upd)
	if ok := p.ref.process(peerAS, upd); ok != (err == nil) {
		p.t.Fatalf("%s: Process error = %v, reference accepted = %v", step, err, ok)
	}
	if p.ref.peers[peerAS] != nil { // a known peer's withdrawals apply even if its announcements are refused
		for _, pfx := range upd.Withdrawn {
			delete(p.meant[pfx], peerAS)
		}
	}
	if err != nil {
		return
	}
	for _, pfx := range upd.NLRI {
		if p.meant[pfx] == nil {
			p.meant[pfx] = map[uint32]audience{}
		}
		p.meant[pfx][peerAS] = audience{cs: upd.Attrs.Communities, peers: len(p.asns)}
	}
	if len(anns) != len(upd.NLRI) {
		p.t.Fatalf("%s: Process reported %d announcements for %d NLRI", step, len(anns), len(upd.NLRI))
	}
	for i, a := range anns {
		if want := (Announcement{Prefix: upd.NLRI[i], Origin: peerAS}); !reflect.DeepEqual(a, want) {
			p.t.Fatalf("%s: Process reported %+v, want %+v", step, a, want)
		}
	}
}

func (p *ribPair) peerDown(step string, peerAS uint32) {
	p.t.Helper()
	if got, want := p.s.PeerDown(peerAS), p.ref.peerDown(peerAS); got != want {
		p.t.Fatalf("%s: PeerDown flushed %d, reference %d", step, got, want)
	}
	for _, byOrigin := range p.meant {
		delete(byOrigin, peerAS)
	}
}

// check compares every query and every routeserver.* metric, and holds
// visibility to the containment FRR's bgp_blackhole_community topotest
// requires of a BLACKHOLE route, with or without NO_EXPORT: it never
// reaches a peer it was not meant for. Whoever sees a prefix is in the
// audience of an announcement of it that is still active — so never its
// only announcer, never a peer that joined later, nobody once withdrawn.
func (p *ribPair) check(step string, probes []uint32, prefixes []bgp.Prefix) {
	p.t.Helper()
	// 9 is never registered: both sides must treat an unknown peer alike.
	for i, asn := range append([]uint32{9}, p.asns...) {
		for _, dst := range probes {
			if got, want := p.s.DropFraction(asn, dst), p.ref.dropFraction(asn, dst); got != want {
				p.t.Fatalf("%s: DropFraction(AS%d, %s) = %v, reference %v", step, asn, bgp.FormatAddr(dst), got, want)
			}
		}
		for _, pfx := range prefixes {
			got, want := p.s.VisibleTo(asn, pfx), p.ref.visibleTo(asn, pfx)
			if got != want {
				p.t.Fatalf("%s: VisibleTo(AS%d, %v) = %v, reference %v", step, asn, pfx, got, want)
			}
			if !got {
				continue
			}
			meant := false
			for origin, a := range p.meant[pfx] {
				meant = meant || a.includes(origin, i-1, asn)
			}
			if !meant {
				p.t.Fatalf("%s: AS%d sees %v, which no active announcement was meant for it", step, asn, pfx)
			}
		}
	}
	if got, want := p.s.ActiveRoutes(), p.ref.activeRoutes(); !reflect.DeepEqual(got, want) {
		p.t.Fatalf("%s: ActiveRoutes differ\n got %+v\nwant %+v", step, got, want)
	}
	if got, want := p.s.NumActiveRoutes(), len(p.ref.rib); got != want {
		p.t.Fatalf("%s: NumActiveRoutes = %d, reference %d", step, got, want)
	}
	if p.reg == nil {
		p.reg = obs.NewRegistry()
		p.s.RegisterMetrics(p.reg)
	}
	snap := p.reg.Snapshot()
	seen := 0
	for _, vals := range []map[string]int64{snap.Counters, snap.Gauges} {
		for name, got := range vals {
			if !strings.HasPrefix(name, "routeserver.") {
				continue
			}
			seen++
			if want := p.ref.metric(name); got != want {
				p.t.Fatalf("%s: %s = %d, reference %d", step, name, got, want)
			}
		}
	}
	if want := 15 + len(p.asns); seen != want { // 13 counters, 2 server gauges, one rib_size per peer
		p.t.Fatalf("%s: compared %d routeserver.* metrics, want %d", step, seen, want)
	}
}

// TestRIBMatchesReference is the differential test for the route-centric
// RIB: seeded random update sequences against the per-peer-map model, at
// peer counts on both sides of every bitset word boundary and at the
// paper's 830 sessions.
func TestRIBMatchesReference(t *testing.T) {
	prefixes := []bgp.Prefix{ // nested, so longest-prefix match has work to do
		bgp.MustParsePrefix("203.0.0.0/16"),
		bgp.MustParsePrefix("203.0.113.0/24"),
		bgp.MustParsePrefix("203.0.113.0/25"),
		bgp.MustParsePrefix("203.0.113.4/30"),
		bgp.MustParsePrefix("203.0.113.5/32"),
		bgp.MustParsePrefix("203.0.113.6/32"),
		bgp.MustParsePrefix("198.51.100.0/22"),
		bgp.MustParsePrefix("198.51.100.7/32"),
	}
	var probes []uint32
	for _, a := range []string{"203.0.113.5", "203.0.113.6", "203.0.113.7", "203.0.113.100",
		"203.0.113.200", "203.0.7.7", "198.51.100.7", "198.51.101.1", "192.0.2.1"} {
		probes = append(probes, mustAddr(t, a))
	}
	policies := []Policy{
		DefaultPolicy(),
		BlackholeReadyPolicy(),
		{Standard: AcceptFull, Host: AcceptPartial, HostFraction: 0.4},
		{Standard: AcceptFull, Mid: AcceptFull, Host: AcceptFull},
		{Standard: AcceptPartial, StandardFraction: 0.7, Mid: AcceptPartial, MidFraction: 0.2},
		{}, // rejects everything
	}

	for _, nPeers := range []int{1, 63, 64, 65, 130, 830} {
		nPeers := nPeers
		t.Run(fmt.Sprintf("peers=%d", nPeers), func(t *testing.T) {
			steps := 200
			if nPeers > 200 {
				steps = 60 // every step checks peers x probes; keep the big world quick
			}
			for seed := uint64(1); seed <= 2; seed++ {
				rng := stats.NewRNG(seed*1000 + uint64(nPeers))
				p := &ribPair{t: t, s: New(rsASN, 1), ref: newRefServer(rsASN), meant: map[bgp.Prefix]map[uint32]audience{}}
				nextASN := uint32(1000)
				join := func() {
					p.addPeer(nextASN, policies[rng.Intn(len(policies))])
					nextASN++
				}
				for i := 0; i < nPeers; i++ {
					join()
				}
				peer := func() uint32 { return p.asns[rng.Intn(len(p.asns))] }
				somePrefixes := func() []bgp.Prefix {
					out := make([]bgp.Prefix, 1+rng.Intn(3))
					for i := range out {
						out[i] = prefixes[rng.Intn(len(prefixes))]
					}
					return out
				}
				// Steering communities: blocks, allows, block-all, and the
				// degenerate values (unregistered ASN, the origin itself,
				// the route server's own ASN on either side).
				communities := func(origin uint32) bgp.Communities {
					cs := bgp.Communities{bgp.Blackhole}
					for n := rng.Intn(4); n > 0; n-- {
						who := uint16(peer())
						switch rng.Intn(6) {
						case 0:
							who = 7 // not a peer
						case 1:
							who = uint16(origin)
						}
						switch rng.Intn(5) {
						case 0, 1:
							cs = append(cs, bgp.MakeCommunity(0, who))
						case 2, 3:
							cs = append(cs, bgp.MakeCommunity(rsASN, who))
						default:
							cs = append(cs, bgp.MakeCommunity(0, rsASN), bgp.MakeCommunity(rsASN, rsASN))
						}
					}
					if rng.Intn(2) == 0 { // RFC 7999: SHOULD
						cs = append(cs, bgp.NoExport)
					}
					return cs
				}

				for step := 0; step < steps; step++ {
					origin := peer()
					op := rng.Intn(20)
					what := fmt.Sprintf("seed %d step %d (op %d, AS%d)", seed, step, op, origin)
					upd := &bgp.Update{}
					switch {
					case op < 9: // announce; often a re-announcement, the prefix pool is small
						upd.NLRI = somePrefixes()
						upd.Attrs.Communities = communities(origin)
					case op < 14: // withdraw, of something or of nothing
						upd.Withdrawn = somePrefixes()
					case op < 16: // both in one update
						upd.Withdrawn = somePrefixes()
						upd.NLRI = somePrefixes()
						upd.Attrs.Communities = communities(origin)
					case op == 16: // announcement without BLACKHOLE
						upd.NLRI = somePrefixes()
						upd.Attrs.Communities = bgp.Communities{bgp.MakeCommunity(0, uint16(peer()))}
					case op == 17: // unknown peer
						origin = 9
						upd.NLRI = somePrefixes()
						upd.Attrs.Communities = communities(origin)
					}
					switch op {
					case 18:
						p.peerDown(what, origin)
					case 19:
						join() // routes installed so far must stay invisible to it
					default:
						p.process(what, origin, upd)
					}
					p.check(what, probes, prefixes)
				}
			}
		})
	}
}
