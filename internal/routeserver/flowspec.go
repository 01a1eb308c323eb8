package routeserver

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/bgp"
)

// FlowSpec support: the fine-grained alternative to RTBH that the paper
// evaluates the potential of (§5.5) and names among the advanced
// mitigation options (§1). A member announces discard rules (destination
// prefix + protocol/port matches with the traffic-rate-0 action); peers
// whose policy enables FlowSpec install them and drop only matching
// packets, leaving the victim's legitimate traffic untouched. The rules
// arrive the way RTBH routes do: as UPDATEs through Process, which
// archives them before it dispatches here.
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

// fsRoute is an installed FlowSpec discard rule: who announced it, the
// rule with its canonical wire encoding (two semantically equal rules
// encode identically), and the peers that imported it.
type fsRoute struct {
	origin   uint32
	rule     *bgp.FlowRule
	wire     string
	accepted peerSet
}

// fsCompare orders installed rules by match precedence: the more specific
// destination first, ties broken by the canonical wire encoding, then by
// origin. This is a deterministic stand-in for the RFC 8955 §5.1 ordering
// that is independent of announcement order; it is also the lookup key,
// since equal wire encodings have equal destinations.
func fsCompare(a, b fsRoute) int {
	return cmp.Or(cmp.Compare(b.rule.Dst.Len, a.rule.Dst.Len),
		strings.Compare(a.wire, b.wire), cmp.Compare(a.origin, b.origin))
}

// processFlowSpec applies a FlowSpec UPDATE from a known peer that Process
// has already archived: withdrawals first, then announcements. Announced
// discard rules must carry the traffic-rate-0 action, a destination
// prefix, and — when the peer has registered address space — a
// destination inside that space. One invalid rule refuses the whole
// announcement before any rule is installed.
func (s *Server) processFlowSpec(ps *peerState, upd *bgp.FlowSpecUpdate) error {
	m := &s.metrics
	m.FlowSpecUpdates.Inc()
	peerAS := ps.peer.ASN
	for _, r := range upd.Withdrawn {
		s.withdrawFlowSpec(peerAS, r)
	}
	if len(upd.Announced) == 0 {
		return nil
	}
	if !upd.Discards() {
		m.FlowSpecRejectedAction.Inc()
		return fmt.Errorf("routeserver: AS%d announced flowspec without discard action", peerAS)
	}
	rts := make([]fsRoute, len(upd.Announced))
	for i, r := range upd.Announced {
		if !r.HasDst {
			m.FlowSpecRejectedNoDst.Inc()
			return fmt.Errorf("routeserver: AS%d announced flowspec rule without destination prefix", peerAS)
		}
		if !originatorOwns(ps.peer.Space, r.Dst) {
			m.FlowSpecRejectedOrigin.Inc()
			return fmt.Errorf("routeserver: AS%d announced flowspec for %v outside its registered space", peerAS, r.Dst)
		}
		wire, err := bgp.EncodeFlowRule(r)
		if err != nil {
			return fmt.Errorf("routeserver: invalid flowspec rule from AS%d: %w", peerAS, err)
		}
		rts[i] = fsRoute{origin: peerAS, rule: r, wire: string(wire)}
	}

	// Every peer but the originator is a target; rules never mutate their
	// importers, so the update's rules share one set.
	accepted := slices.Clone(s.fsAccepts)
	accepted.clear(ps.idx)
	nAccepted := int64(accepted.count())
	for _, rt := range rts {
		rt.accepted = accepted
		m.FlowSpecAnnounced.Inc()
		m.FlowSpecImportAccepted.Add(nAccepted)
		m.FlowSpecImportRejected.Add(int64(len(s.peers)-1) - nAccepted)
		if i, found := slices.BinarySearchFunc(s.fsRules, rt, fsCompare); found {
			m.FlowSpecReannouncements.Inc()
			s.fsRules[i] = rt
		} else {
			s.fsRules = slices.Insert(s.fsRules, i, rt)
		}
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

func (s *Server) withdrawFlowSpec(origin uint32, r *bgp.FlowRule) {
	wire, err := bgp.EncodeFlowRule(r)
	if err != nil {
		return
	}
	i, found := slices.BinarySearchFunc(s.fsRules, fsRoute{origin: origin, rule: r, wire: string(wire)}, fsCompare)
	if !found {
		s.metrics.FlowSpecWithdrawnNoop.Inc()
		return
	}
	s.metrics.FlowSpecWithdrawn.Inc()
	s.fsRules = slices.Delete(s.fsRules, i, i+1)
}

// flushFlowSpec withdraws every rule originated by peerAS (session
// teardown), returning how many were flushed.
func (s *Server) flushFlowSpec(peerAS uint32) int {
	before := len(s.fsRules)
	s.fsRules = slices.DeleteFunc(s.fsRules, func(rt fsRoute) bool { return rt.origin == peerAS })
	flushed := before - len(s.fsRules)
	s.metrics.FlowSpecWithdrawn.Add(int64(flushed))
	return flushed
}

// MatchFlowRule returns the discard rule that filters a packet member
// ingress hands into the fabric toward member egress, or nil. A rule the
// ingress imported wins over one the egress originated: the route server
// never reflects a rule back to its announcer, but the announcer's own
// edge filters with it, so traffic toward the protected prefix is covered
// whoever hands it in. Within each kind the first matching rule in
// fsCompare order wins: most-specific destination first, canonical wire
// encoding as the tie breaker. With no rule installed it inlines to one
// length test, which is all the fabric pays per record then.
func (s *Server) MatchFlowRule(ingress, egress, dstIP uint32, proto uint8, srcPort, dstPort uint16) *bgp.FlowRule {
	if len(s.fsRules) == 0 {
		return nil
	}
	return s.matchFlowRule(ingress, egress, dstIP, proto, srcPort, dstPort)
}

func (s *Server) matchFlowRule(ingress, egress, dstIP uint32, proto uint8, srcPort, dstPort uint16) *bgp.FlowRule {
	// imp is the ingress's peer index, or -1 when it imports no rule: a
	// rule's importers are a subset of fsAccepts, which only AddPeer grows.
	imp := -1
	if ps, ok := s.peers[ingress]; ok && s.fsAccepts.has(ps.idx) {
		imp = ps.idx
	}
	var own *bgp.FlowRule
	for i := range s.fsRules {
		rt := &s.fsRules[i]
		imported := imp >= 0 && rt.accepted.has(imp)
		if !imported && (own != nil || rt.origin != egress) {
			continue
		}
		if !rt.rule.Matches(dstIP, proto, srcPort, dstPort) {
			continue
		}
		if imported || imp < 0 {
			return rt.rule
		}
		// An own rule decides only if no later rule the ingress imported
		// matches.
		own = rt.rule
	}
	return own
}

// NumFlowSpecRules returns the number of installed rules.
func (s *Server) NumFlowSpecRules() int { return len(s.fsRules) }
