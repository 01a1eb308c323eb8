package routeserver

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/bgp"
	"repro/internal/obs"
)

// BlackholeNextHop is the well-known next-hop address whose layer-2
// resolution on the switching fabric is the non-forwarding blackhole MAC.
// 192.0.2.66 follows the RFC 7999 documentation convention.
var BlackholeNextHop = func() uint32 {
	a, err := bgp.ParseAddr("192.0.2.66")
	if err != nil {
		panic(err)
	}
	return a
}()

// Peer is one route-server client (an IXP member AS).
type Peer struct {
	// ASN identifies the member. The simulator assigns 16-bit ASNs so
	// that the community-based targeting scheme can address every peer.
	ASN uint32
	// IP is the peering-LAN address of the member's router.
	IP uint32
	// Policy is the member's import policy for route-server routes.
	Policy Policy
	// Space is the member's registered originated address space (the
	// IRR-style registry the route server validates FlowSpec destinations
	// against, RFC 8955 §6). Nil or empty skips validation for this peer.
	Space []bgp.Prefix
}

// route is an installed blackhole route; the prefix index keys it by
// prefix, so several members blackholing the same prefix share one entry.
type route struct {
	origin   uint32
	targets  peerSet // peers the route was announced to
	accepted peerSet // targets whose policy installed it
}

// peerState is one registered member and its position in every peerSet.
type peerState struct {
	peer Peer
	idx  int
	lens uint64 // bit l set: the policy accepts routes of prefix length l
}

// Announcement names one blackhole route. Process reports only Prefix and
// Origin; ActiveRoutes adds who the route was distributed to and who
// accepted it, read from live state.
type Announcement struct {
	Prefix   bgp.Prefix
	Origin   uint32
	Targets  []uint32
	Accepted []uint32
}

// Collector receives every BGP message the route server exchanges with a
// member, timestamped — the MRT archiving hook.
type Collector func(ts time.Time, peerAS uint32, peerIP uint32, msg []byte)

// Metrics are the route server's observability counters, maintained
// unconditionally (an atomic increment per outcome) and exposed through a
// registry by RegisterMetrics. Import outcomes are counted per target
// peer: one announced prefix distributed to k peers contributes k
// accept/reject outcomes, which is what the paper's propagation matrix
// (§4.1/§4.2) measures.
type Metrics struct {
	// Updates counts UPDATE messages processed; RejectedUnknownPeer and
	// RejectedNoBlackhole count updates refused before any RIB change.
	Updates             obs.Counter
	RejectedUnknownPeer obs.Counter
	RejectedNoBlackhole obs.Counter

	// AnnouncedPrefixes and WithdrawnPrefixes count RTBH prefix-level
	// operations; WithdrawnNoop counts withdrawals of routes that were
	// never installed, Reannouncements counts implicit withdraws.
	AnnouncedPrefixes obs.Counter
	WithdrawnPrefixes obs.Counter
	WithdrawnNoop     obs.Counter
	Reannouncements   obs.Counter

	// Per-target import outcomes, split by the policy length class that
	// decided a rejection (<= /24, /25../31, /32).
	ImportAccepted         obs.Counter
	ImportRejectedStandard obs.Counter
	ImportRejectedMid      obs.Counter
	ImportRejectedHost     obs.Counter
	// NotTargeted counts peers excluded by community steering.
	NotTargeted obs.Counter

	// PeerDowns counts session teardowns handled by PeerDown; the routes
	// flushed by teardowns are counted in WithdrawnPrefixes.
	PeerDowns obs.Counter

	// FlowSpec counters, registered under the "flowspec." prefix.
	// FlowSpecUpdates counts the UPDATEs that carried FlowSpec attributes;
	// announced/withdrawn/reannouncement counters are per rule, and the
	// import outcomes are per target peer, mirroring the RTBH matrix.
	FlowSpecUpdates         obs.Counter
	FlowSpecAnnounced       obs.Counter
	FlowSpecWithdrawn       obs.Counter
	FlowSpecWithdrawnNoop   obs.Counter
	FlowSpecReannouncements obs.Counter
	FlowSpecRejectedAction  obs.Counter // announcement without traffic-rate-0
	FlowSpecRejectedNoDst   obs.Counter // rule without a destination prefix
	FlowSpecRejectedOrigin  obs.Counter // destination outside registered space
	FlowSpecImportAccepted  obs.Counter
	FlowSpecImportRejected  obs.Counter // target policy has FlowSpec disabled
}

// Server is the route server. It is not safe for concurrent use; the
// simulator drives it from a single event loop, as a production route
// server's BGP best-path process is also single-threaded per table.
//
// RTBH state is route-centric: each route owns the sets of peers it was
// announced to and installed at, and a member's view (DropFraction,
// VisibleTo, its rib_size gauge) is a query testing the member's bit, so
// an update costs a few words of set arithmetic whatever its fan-out.
type Server struct {
	// ASN is the route server's AS number (16-bit for community targeting).
	ASN uint16
	// IP is the route server's peering-LAN address.
	IP uint32

	peers     map[uint32]*peerState
	peerOrder []*peerState // ascending ASN, for deterministic iteration
	all       peerSet      // every registered peer
	// accepts[c]: the peers whose policy installs routes of length class c;
	// fsAccepts: the peers whose policy installs FlowSpec rules.
	accepts   [numClasses]peerSet
	fsAccepts peerSet

	// routes is the prefix index: every origin's route for each prefix.
	routes    bgp.PrefixMap[[]route]
	numRoutes int

	// fsRules holds every installed FlowSpec rule once, in fsCompare order.
	fsRules   []fsRoute
	collector Collector
	metrics   Metrics

	// stats
	msgsProcessed int
}

// New creates a route server operating as AS asn.
func New(asn uint16, ip uint32) *Server {
	return &Server{
		ASN:   asn,
		IP:    ip,
		peers: make(map[uint32]*peerState),
	}
}

// Metrics returns the server's observability counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// RegisterMetrics exposes the server's counters and live RIB gauges under
// the "routeserver." prefix. The per-peer Adj-RIB-In size gauges
// (routeserver.peer.AS<n>.rib_size) cover the peers registered at call
// time, so register after AddPeer; each scans the prefix index on read.
// Gauge callbacks read live server state and follow the obs snapshot
// convention: snapshot from the goroutine driving the (single-threaded)
// server, or after it finished.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	m := &s.metrics
	reg.RegisterCounter("routeserver.updates", &m.Updates)
	reg.RegisterCounter("routeserver.updates.rejected_unknown_peer", &m.RejectedUnknownPeer)
	reg.RegisterCounter("routeserver.updates.rejected_no_blackhole_community", &m.RejectedNoBlackhole)
	reg.RegisterCounter("routeserver.rtbh.announced_prefixes", &m.AnnouncedPrefixes)
	reg.RegisterCounter("routeserver.rtbh.withdrawn_prefixes", &m.WithdrawnPrefixes)
	reg.RegisterCounter("routeserver.rtbh.withdrawn_noop", &m.WithdrawnNoop)
	reg.RegisterCounter("routeserver.rtbh.reannouncements", &m.Reannouncements)
	reg.RegisterCounter("routeserver.import.accepted", &m.ImportAccepted)
	reg.RegisterCounter("routeserver.import.rejected_standard", &m.ImportRejectedStandard)
	reg.RegisterCounter("routeserver.import.rejected_mid", &m.ImportRejectedMid)
	reg.RegisterCounter("routeserver.import.rejected_host", &m.ImportRejectedHost)
	reg.RegisterCounter("routeserver.import.not_targeted", &m.NotTargeted)
	reg.RegisterCounter("routeserver.sessions.peer_down", &m.PeerDowns)
	reg.RegisterCounter("flowspec.updates", &m.FlowSpecUpdates)
	reg.RegisterCounter("flowspec.announced_rules", &m.FlowSpecAnnounced)
	reg.RegisterCounter("flowspec.withdrawn_rules", &m.FlowSpecWithdrawn)
	reg.RegisterCounter("flowspec.withdrawn_noop", &m.FlowSpecWithdrawnNoop)
	reg.RegisterCounter("flowspec.reannouncements", &m.FlowSpecReannouncements)
	reg.RegisterCounter("flowspec.rejected_no_discard", &m.FlowSpecRejectedAction)
	reg.RegisterCounter("flowspec.rejected_no_dst", &m.FlowSpecRejectedNoDst)
	reg.RegisterCounter("flowspec.rejected_origin", &m.FlowSpecRejectedOrigin)
	reg.RegisterCounter("flowspec.import.accepted", &m.FlowSpecImportAccepted)
	reg.RegisterCounter("flowspec.import.rejected", &m.FlowSpecImportRejected)
	reg.GaugeFunc("flowspec.rules", func() int64 { return int64(s.NumFlowSpecRules()) })
	reg.GaugeFunc("routeserver.peers", func() int64 { return int64(len(s.peers)) })
	reg.GaugeFunc("routeserver.rib_routes", func() int64 { return int64(s.numRoutes) })
	for _, ps := range s.peerOrder {
		reg.GaugeFunc(fmt.Sprintf("routeserver.peer.AS%d.rib_size", ps.peer.ASN),
			func() int64 { return int64(s.ribSize(ps.idx)) })
	}
}

// ribSize counts the distinct prefixes installed at the peer with index idx.
func (s *Server) ribSize(idx int) (n int) {
	s.routes.Each(func(_ bgp.Prefix, rts []route) {
		if slices.ContainsFunc(rts, func(rt route) bool { return rt.accepted.has(idx) }) {
			n++
		}
	})
	return n
}

// SetCollector installs the archive hook (may be nil to disable).
func (s *Server) SetCollector(c Collector) { s.collector = c }

// AddPeer registers a member session. Adding an existing ASN is an error:
// the route server has exactly one session per member.
func (s *Server) AddPeer(p Peer) error {
	if p.ASN == 0 || p.ASN > 0xffff {
		return fmt.Errorf("routeserver: peer ASN %d outside the 16-bit range used for targeting", p.ASN)
	}
	if _, dup := s.peers[p.ASN]; dup {
		return fmt.Errorf("routeserver: duplicate peer AS%d", p.ASN)
	}
	ps := &peerState{peer: p, idx: len(s.peers)}
	s.peers[p.ASN] = ps
	at, _ := slices.BinarySearchFunc(s.peerOrder, p.ASN, func(o *peerState, asn uint32) int { return cmp.Compare(o.peer.ASN, asn) })
	s.peerOrder = slices.Insert(s.peerOrder, at, ps)
	s.all = s.all.grown(ps.idx)
	s.all.set(ps.idx)
	for c, lens := range classLens {
		s.accepts[c] = s.accepts[c].grown(ps.idx)
		if p.Policy.Accepts(uint8(bits.Len64(lens) - 1)) { // a class decides alike for all its lengths
			s.accepts[c].set(ps.idx)
			ps.lens |= lens
		}
	}
	s.fsAccepts = s.fsAccepts.grown(ps.idx)
	if p.Policy.FlowSpec == AcceptFull {
		s.fsAccepts.set(ps.idx)
	}
	return nil
}

// Process handles one UPDATE received from peerAS at time ts: withdrawals
// first (RFC 4271 ordering), then announcements. Announced prefixes must
// carry the BLACKHOLE community — this route server instance implements
// the blackholing service, and non-blackhole routes are outside the scope
// of the study, so they are rejected with an error. An UPDATE carrying
// FlowSpec attributes announces discard rules instead (processFlowSpec).
// It returns the announced (origin, prefix) pairs; who received them is a
// query.
func (s *Server) Process(ts time.Time, peerAS uint32, upd *bgp.Update) ([]Announcement, error) {
	ps, ok := s.peers[peerAS]
	if !ok {
		s.metrics.RejectedUnknownPeer.Inc()
		return nil, fmt.Errorf("routeserver: update from unknown peer AS%d", peerAS)
	}
	s.msgsProcessed++
	s.metrics.Updates.Inc()

	if s.collector != nil {
		raw, err := bgp.EncodeUpdate(upd)
		if err != nil {
			return nil, fmt.Errorf("routeserver: archiving update from AS%d: %w", peerAS, err)
		}
		s.collector(ts, peerAS, ps.peer.IP, raw)
	}

	for _, p := range upd.Withdrawn {
		s.withdraw(peerAS, p)
	}

	// A FlowSpec payload travels as opaque MP attributes in an UPDATE with
	// no IPv4 NLRI; the same session and archive path carries both route
	// kinds, so dispatch here (the message was already archived above).
	if fsu, isFS, err := bgp.FlowSpecFromUpdate(upd); err != nil {
		return nil, fmt.Errorf("routeserver: malformed flowspec from AS%d: %w", peerAS, err)
	} else if isFS {
		return nil, s.processFlowSpec(ps, fsu)
	}

	if len(upd.NLRI) == 0 {
		return nil, nil
	}
	if !upd.Attrs.Communities.HasBlackhole() {
		s.metrics.RejectedNoBlackhole.Inc()
		return nil, fmt.Errorf("routeserver: AS%d announced %v without BLACKHOLE community", peerAS, upd.NLRI[0])
	}
	// Routes never mutate their target set, so the update's prefixes share one.
	targets := s.targetPeers(upd.Attrs.Communities, ps)
	anns := make([]Announcement, len(upd.NLRI))
	for i, p := range upd.NLRI {
		s.announce(peerAS, p, targets)
		anns[i] = Announcement{Prefix: p, Origin: peerAS}
	}
	return anns, nil
}

// announce installs (or, as an implicit withdraw, replaces) origin's route
// for prefix, counting import outcomes per target peer: one popcount each.
func (s *Server) announce(origin uint32, prefix bgp.Prefix, targets peerSet) {
	class := lengthClass(prefix.Len)
	rt := route{origin: origin, targets: targets, accepted: targets.and(s.accepts[class])}

	m := &s.metrics
	m.AnnouncedPrefixes.Inc()
	nTargets, nAccepted := targets.count(), rt.accepted.count()
	m.ImportAccepted.Add(int64(nAccepted))
	rejected := [numClasses]*obs.Counter{&m.ImportRejectedStandard, &m.ImportRejectedMid, &m.ImportRejectedHost}
	rejected[class].Add(int64(nTargets - nAccepted))
	m.NotTargeted.Add(int64(len(s.peers) - 1 - nTargets))

	rts, _ := s.routes.Get(prefix)
	if i := indexOrigin(rts, origin); i >= 0 {
		m.Reannouncements.Inc()
		rts[i] = rt
		return
	}
	s.routes.Set(prefix, append(rts, rt))
	s.numRoutes++
}

// indexOrigin finds origin's route among the routes for one prefix, or -1.
func indexOrigin(rts []route, origin uint32) int {
	return slices.IndexFunc(rts, func(rt route) bool { return rt.origin == origin })
}

// PeerDown handles a member session teardown (connection loss, hold
// timer expiry, or graceful Cease): per RFC 4271 §6.7 all routes learned
// from the peer are withdrawn, flushing them from every other member's
// Adj-RIB-Out exactly as explicit withdrawals would. The flushed routes
// count toward the WithdrawnPrefixes metric; the session stays
// registered, so a reconnecting peer re-announces into a clean table.
// It returns the number of routes flushed.
func (s *Server) PeerDown(peerAS uint32) int {
	if _, ok := s.peers[peerAS]; !ok {
		return 0
	}
	s.metrics.PeerDowns.Inc()
	flushed := 0
	s.routes.Each(func(p bgp.Prefix, rts []route) {
		if indexOrigin(rts, peerAS) >= 0 {
			s.withdraw(peerAS, p)
			flushed++
		}
	})
	// The teardown also flushes the peer's FlowSpec rules (counted in
	// FlowSpecWithdrawn), same as its RTBH routes.
	return flushed + s.flushFlowSpec(peerAS)
}

func (s *Server) withdraw(origin uint32, prefix bgp.Prefix) {
	rts, _ := s.routes.Get(prefix)
	i := indexOrigin(rts, origin)
	if i < 0 {
		s.metrics.WithdrawnNoop.Inc() // withdrawing a route we never installed is a no-op
		return
	}
	s.metrics.WithdrawnPrefixes.Inc()
	if len(rts) == 1 {
		s.routes.Delete(prefix)
	} else {
		s.routes.Set(prefix, slices.Delete(rts, i, i+1))
	}
	s.numRoutes--
}

// DropFraction returns the fraction of traffic from member peerAS toward
// dstIP that the member's routers send to the blackhole, per its installed
// routes and import policy: the longest matching accepted prefix decides.
// Lengths the member's policy rejects are skipped without a lookup — the
// fast exit for the majority of members, which reject /32.
func (s *Server) DropFraction(peerAS uint32, dstIP uint32) float64 {
	ps, ok := s.peers[peerAS]
	if !ok {
		return 0
	}
	for lens := s.routes.Lengths() & ps.lens; lens != 0; {
		length := uint8(bits.Len64(lens) - 1) // longest first
		lens &^= 1 << length
		rts, _ := s.routes.Get(bgp.MakePrefix(dstIP, length))
		for _, rt := range rts {
			if rt.accepted.has(ps.idx) {
				return ps.peer.Policy.fraction(length)
			}
		}
	}
	return 0
}

// VisibleTo reports whether peerAS currently has any announcement for
// prefix in its Adj-RIB-In (regardless of whether its policy accepts it).
func (s *Server) VisibleTo(peerAS uint32, prefix bgp.Prefix) bool {
	ps, ok := s.peers[peerAS]
	rts, _ := s.routes.Get(prefix)
	return ok && slices.ContainsFunc(rts, func(rt route) bool { return rt.targets.has(ps.idx) })
}

// ActiveRoutes returns the currently installed blackhole routes in
// deterministic order, each with the peers it was announced to and the
// peers that accepted it (ascending ASN).
func (s *Server) ActiveRoutes() []Announcement {
	members := func(set peerSet) (asns []uint32) {
		for _, ps := range s.peerOrder {
			if set.has(ps.idx) {
				asns = append(asns, ps.peer.ASN)
			}
		}
		return asns
	}
	out := make([]Announcement, 0, s.numRoutes)
	s.routes.Each(func(p bgp.Prefix, rts []route) {
		for _, rt := range rts {
			out = append(out, Announcement{
				Prefix: p, Origin: rt.origin,
				Targets: members(rt.targets), Accepted: members(rt.accepted),
			})
		}
	})
	slices.SortFunc(out, func(a, b Announcement) int {
		return cmp.Or(cmp.Compare(a.Origin, b.Origin),
			cmp.Compare(a.Prefix.Addr, b.Prefix.Addr), cmp.Compare(a.Prefix.Len, b.Prefix.Len))
	})
	return out
}

// NumActiveRoutes returns the number of installed blackhole routes.
func (s *Server) NumActiveRoutes() int { return s.numRoutes }

// MessagesProcessed returns the number of UPDATE messages handled.
func (s *Server) MessagesProcessed() int { return s.msgsProcessed }
