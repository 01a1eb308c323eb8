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
// encoding as the tie breaker. The fabric asks through FlowCandidates,
// resolved once per batch; this per-packet scan is their reference.
func (s *Server) MatchFlowRule(ingress, egress, dstIP uint32, proto uint8, srcPort, dstPort uint16) *bgp.FlowRule {
	imp := s.flowImporter(ingress)
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

// flowImporter returns the ingress's peer index, or -1 when it imports no
// rule: a rule's importers are a subset of fsAccepts, which only AddPeer
// grows.
func (s *Server) flowImporter(ingress uint32) int {
	if ps, ok := s.peers[ingress]; ok && s.fsAccepts.has(ps.idx) {
		return ps.idx
	}
	return -1
}

// FlowCandidates holds the installed rules that can filter the packets of
// one fabric batch. A batch's destination, ingress and egress member are
// constant, so which rules can match it, and which of them takes
// precedence, is decided once per batch (Server.FlowCandidates); each
// packet then checks its protocol and ports against that short list
// (FlowCandidates.Match). The zero value holds no rule.
type FlowCandidates struct {
	dstIP uint32
	rules []flowCandidate // in fsCompare order
}

type flowCandidate struct {
	rule     *bgp.FlowRule
	imported bool // by the ingress; else the egress originated it
}

// FlowCandidates resets fc, reusing its storage, to the rules that
// MatchFlowRule(ingress, egress, dstIP, ...) can return for some protocol
// and ports: those covering dstIP that the ingress imported or the egress
// originated, in precedence order.
func (s *Server) FlowCandidates(fc *FlowCandidates, ingress, egress, dstIP uint32) {
	fc.dstIP, fc.rules = dstIP, fc.rules[:0]
	if len(s.fsRules) == 0 {
		return
	}
	imp := s.flowImporter(ingress)
	for i := range s.fsRules {
		rt := &s.fsRules[i]
		imported := imp >= 0 && rt.accepted.has(imp)
		if (imported || rt.origin == egress) && (!rt.rule.HasDst || rt.rule.Dst.Contains(dstIP)) {
			fc.rules = append(fc.rules, flowCandidate{rule: rt.rule, imported: imported})
		}
	}
}

// Match answers MatchFlowRule for one packet of the batch fc was resolved
// for: the first candidate the ingress imported that matches wins, else
// the first matching one the egress originated. With no candidate it
// inlines to one length test, which is all the fabric pays per packet
// then.
func (fc *FlowCandidates) Match(proto uint8, srcPort, dstPort uint16) *bgp.FlowRule {
	if len(fc.rules) == 0 {
		return nil
	}
	return fc.match(proto, srcPort, dstPort)
}

func (fc *FlowCandidates) match(proto uint8, srcPort, dstPort uint16) *bgp.FlowRule {
	var own *bgp.FlowRule
	for i := range fc.rules {
		c := &fc.rules[i]
		if (c.imported || own == nil) && c.rule.Matches(fc.dstIP, proto, srcPort, dstPort) {
			if c.imported {
				return c.rule
			}
			own = c.rule
		}
	}
	return own
}

// NumFlowSpecRules returns the number of installed rules.
func (s *Server) NumFlowSpecRules() int { return len(s.fsRules) }
