package routeserver

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bgp"
)

// FlowSpec support: the fine-grained alternative to RTBH that the paper
// evaluates the potential of (§5.5) and names among the advanced
// mitigation options (§1). A member announces discard rules (destination
// prefix + protocol/port matches with the traffic-rate-0 action); peers
// whose policy enables FlowSpec install them and drop only matching
// packets, leaving the victim's legitimate traffic untouched.
//
// Validation follows RFC 8955 §6: a rule's destination must lie within
// the announcer's address space. The simulator stands in for the IRR/RPKI
// lookup with Peer.Space, the member's registered originated prefixes; a
// peer with no registered space is exempt (the route server cannot
// validate what nobody registered), which also keeps hand-built test
// servers permissive.
//
// Adoption mirrors reality: Policy.FlowSpec defaults to AcceptNone, so a
// deployment must opt peers in explicitly.

// fsKey identifies an installed rule by origin and its canonical wire
// encoding (two semantically equal rules encode identically).
type fsKey struct {
	origin uint32
	wire   string
}

// fsRoute is an installed FlowSpec discard rule.
type fsRoute struct {
	origin   uint32
	rule     *bgp.FlowRule
	wire     string
	accepted peerSet
}

// fsEntry is one rule in a peer's installed list, ordered by precedence.
type fsEntry struct {
	rule *bgp.FlowRule
	wire string
}

// fsState lazily extends the Server with FlowSpec tables.
type fsState struct {
	rules map[fsKey]*fsRoute
	// perPeer holds each member's accepted rules for the fabric's
	// per-packet matching, in precedence order (see fsLess).
	perPeer map[uint32][]fsEntry
	// perOrigin holds each member's own announced rules, same order. The
	// route server never reflects a rule back to its originator, but the
	// originator's edge routers filter with the rule they authored — the
	// fabric consults this list for the egress side of a batch.
	perOrigin map[uint32][]fsEntry
}

func (s *Server) fs() *fsState {
	if s.flowspec == nil {
		s.flowspec = &fsState{
			rules:     make(map[fsKey]*fsRoute),
			perPeer:   make(map[uint32][]fsEntry),
			perOrigin: make(map[uint32][]fsEntry),
		}
	}
	return s.flowspec
}

// fsLess orders two installed rules by match precedence: the more
// specific destination wins, ties broken by the canonical wire encoding.
// This is a deterministic stand-in for the RFC 8955 §5.1 ordering that is
// independent of announcement order.
func fsLess(a, b fsEntry) bool {
	if a.rule.Dst.Len != b.rule.Dst.Len {
		return a.rule.Dst.Len > b.rule.Dst.Len
	}
	return a.wire < b.wire
}

// ProcessFlowSpec handles a FlowSpec UPDATE from peerAS: withdrawals
// first, then announcements. Announced discard rules must carry the
// traffic-rate-0 action, a destination prefix, and — when the peer has
// registered address space — a destination inside that space.
func (s *Server) ProcessFlowSpec(ts time.Time, peerAS uint32, upd *bgp.FlowSpecUpdate) error {
	ps, ok := s.peers[peerAS]
	if !ok {
		s.metrics.RejectedUnknownPeer.Inc()
		return fmt.Errorf("routeserver: flowspec update from unknown peer AS%d", peerAS)
	}
	s.msgsProcessed++
	if s.collector != nil {
		raw, err := bgp.EncodeFlowSpecUpdate(upd)
		if err != nil {
			return fmt.Errorf("routeserver: archiving flowspec from AS%d: %w", peerAS, err)
		}
		s.collector(ts, peerAS, ps.peer.IP, raw)
	}
	return s.processFlowSpec(peerAS, upd)
}

// processFlowSpec applies a FlowSpec update that has already been
// archived and attributed to a known peer (both ProcessFlowSpec and the
// Process piggyback path land here).
func (s *Server) processFlowSpec(peerAS uint32, upd *bgp.FlowSpecUpdate) error {
	s.metrics.FlowSpecUpdates.Inc()
	fs := s.fs()
	for _, r := range upd.Withdrawn {
		s.withdrawFlowSpec(peerAS, r)
	}
	if len(upd.Announced) == 0 {
		return nil
	}
	if !upd.Discards() {
		s.metrics.FlowSpecRejectedAction.Inc()
		return fmt.Errorf("routeserver: AS%d announced flowspec without discard action", peerAS)
	}
	space := s.peers[peerAS].peer.Space
	for _, r := range upd.Announced {
		if !r.HasDst {
			s.metrics.FlowSpecRejectedNoDst.Inc()
			return fmt.Errorf("routeserver: AS%d announced flowspec rule without destination prefix", peerAS)
		}
		if !originatorOwns(space, r.Dst) {
			s.metrics.FlowSpecRejectedOrigin.Inc()
			return fmt.Errorf("routeserver: AS%d announced flowspec for %v outside its registered space", peerAS, r.Dst)
		}
		key, err := flowKey(peerAS, r)
		if err != nil {
			return err
		}
		s.metrics.FlowSpecAnnounced.Inc()
		if old, exists := fs.rules[key]; exists {
			s.metrics.FlowSpecReannouncements.Inc()
			s.releaseFlowSpec(old)
		}
		rt := &fsRoute{origin: peerAS, rule: r, wire: key.wire, accepted: make(peerSet, len(s.all))}
		for _, target := range s.peerOrder {
			if target.peer.ASN == peerAS {
				continue
			}
			if target.peer.Policy.FlowSpec == AcceptFull {
				s.metrics.FlowSpecImportAccepted.Inc()
				rt.accepted.set(target.idx)
				fs.installEntry(fs.perPeer, target.peer.ASN, fsEntry{rule: r, wire: key.wire})
			} else {
				s.metrics.FlowSpecImportRejected.Inc()
			}
		}
		fs.installEntry(fs.perOrigin, peerAS, fsEntry{rule: r, wire: key.wire})
		fs.rules[key] = rt
	}
	return nil
}

// originatorOwns reports whether dst lies within the peer's registered
// space. An empty registry skips validation.
func originatorOwns(space []bgp.Prefix, dst bgp.Prefix) bool {
	if len(space) == 0 {
		return true
	}
	for _, p := range space {
		if p.Len <= dst.Len && p.Contains(dst.Addr) {
			return true
		}
	}
	return false
}

// installEntry inserts e into the peer's list in m keeping precedence order.
func (fs *fsState) installEntry(m map[uint32][]fsEntry, peer uint32, e fsEntry) {
	lst := m[peer]
	i := sort.Search(len(lst), func(i int) bool { return fsLess(e, lst[i]) })
	lst = append(lst, fsEntry{})
	copy(lst[i+1:], lst[i:])
	lst[i] = e
	m[peer] = lst
}

func flowKey(origin uint32, r *bgp.FlowRule) (fsKey, error) {
	wire, err := bgp.EncodeFlowRule(r)
	if err != nil {
		return fsKey{}, fmt.Errorf("routeserver: invalid flowspec rule: %w", err)
	}
	return fsKey{origin: origin, wire: string(wire)}, nil
}

func (s *Server) withdrawFlowSpec(origin uint32, r *bgp.FlowRule) {
	fs := s.fs()
	key, err := flowKey(origin, r)
	if err != nil {
		return
	}
	rt, ok := fs.rules[key]
	if !ok {
		s.metrics.FlowSpecWithdrawnNoop.Inc()
		return
	}
	s.metrics.FlowSpecWithdrawn.Inc()
	s.releaseFlowSpec(rt)
	delete(fs.rules, key)
}

func (s *Server) releaseFlowSpec(rt *fsRoute) {
	fs := s.fs()
	for _, target := range s.members(rt.accepted) {
		removeEntry(fs.perPeer, target, rt.rule)
	}
	removeEntry(fs.perOrigin, rt.origin, rt.rule)
}

func removeEntry(m map[uint32][]fsEntry, peer uint32, rule *bgp.FlowRule) {
	lst := m[peer]
	for i := range lst {
		if lst[i].rule == rule {
			m[peer] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

// flushFlowSpec withdraws every rule originated by peerAS (session
// teardown), returning how many were flushed.
func (s *Server) flushFlowSpec(peerAS uint32) int {
	if s.flowspec == nil {
		return 0
	}
	flushed := 0
	for key, rt := range s.flowspec.rules {
		if key.origin == peerAS {
			s.metrics.FlowSpecWithdrawn.Inc()
			s.releaseFlowSpec(rt)
			delete(s.flowspec.rules, key)
			flushed++
		}
	}
	return flushed
}

// MatchFlowSpec reports whether one of peerAS's installed discard rules
// matches the packet.
func (s *Server) MatchFlowSpec(peerAS uint32, dstIP uint32, proto uint8, srcPort, dstPort uint16) bool {
	return s.MatchingFlowRule(peerAS, dstIP, proto, srcPort, dstPort) != nil
}

// MatchingFlowRule returns the highest-precedence installed rule of
// peerAS matching the packet, or nil. Precedence is the fsLess order:
// most-specific destination first, canonical wire encoding as the tie
// breaker.
func (s *Server) MatchingFlowRule(peerAS uint32, dstIP uint32, proto uint8, srcPort, dstPort uint16) *bgp.FlowRule {
	if s.flowspec == nil {
		return nil
	}
	for _, e := range s.flowspec.perPeer[peerAS] {
		if e.rule.Matches(dstIP, proto, srcPort, dstPort) {
			return e.rule
		}
	}
	return nil
}

// OwnMatchingFlowRule returns the highest-precedence rule ORIGINATED by
// peerAS that matches the packet, or nil. The route server never sends a
// rule back to its announcer, but the announcer's own edge filters with
// it; the fabric uses this for the egress member of a batch.
func (s *Server) OwnMatchingFlowRule(peerAS uint32, dstIP uint32, proto uint8, srcPort, dstPort uint16) *bgp.FlowRule {
	if s.flowspec == nil {
		return nil
	}
	for _, e := range s.flowspec.perOrigin[peerAS] {
		if e.rule.Matches(dstIP, proto, srcPort, dstPort) {
			return e.rule
		}
	}
	return nil
}

// NumFlowSpecRules returns the number of installed rules.
func (s *Server) NumFlowSpecRules() int {
	if s.flowspec == nil {
		return 0
	}
	return len(s.flowspec.rules)
}
