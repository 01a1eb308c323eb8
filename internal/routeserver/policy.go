// Package routeserver implements an IXP route server with a remotely
// triggered blackholing (RTBH) service, mirroring the deployment the
// paper studies:
//
//   - Members announce routes to the route server over BGP. A route tagged
//     with the RFC 7999 BLACKHOLE community (65535:666) requests that
//     traffic toward the prefix be discarded; the route server rewrites the
//     next hop to the blackhole IP, which resolves to a non-forwarding MAC
//     on the switching fabric.
//   - BGP communities steer propagation: by default a blackhole is
//     announced to every other member, but the originator can restrict the
//     audience ("targeted blackholing", §4.1 of the paper).
//   - Every receiving member applies its own import policy. Default BGP
//     configurations reject prefixes longer than /24, so accepting a /32
//     blackhole requires explicit whitelisting — the operational gap that
//     produces the paper's ~50% drop-rate headline (§4.2).
//
// The route server exposes the per-peer forwarding decision (DropFraction)
// that the switching fabric consults, and archives the member-facing BGP
// message stream through a collector hook.
package routeserver

import "repro/internal/bgp"

// AcceptClass describes how a peer's import policy treats blackhole routes
// of a given prefix-length class.
type AcceptClass int

// Acceptance classes. Partial models multi-router members whose border
// routers are inconsistently configured: a fraction of the member's
// ingress traffic honours the blackhole while the rest forwards — the 13
// "inconsistent" ASes of the paper's Fig 7.
const (
	AcceptNone AcceptClass = iota
	AcceptFull
	AcceptPartial
)

// String implements fmt.Stringer.
func (c AcceptClass) String() string {
	switch c {
	case AcceptNone:
		return "none"
	case AcceptFull:
		return "full"
	case AcceptPartial:
		return "partial"
	default:
		return "invalid"
	}
}

// Policy is a peer's import policy for routes learned from the route
// server, split by the prefix-length classes that matter operationally.
type Policy struct {
	// Standard governs prefixes up to /24 — ordinary BGP announcements
	// that virtually every configuration accepts.
	Standard AcceptClass
	// StandardFraction applies when Standard == AcceptPartial.
	StandardFraction float64
	// Mid governs /25../31 blackhole routes. Operators who whitelist /32
	// blackholes usually forget these, so AcceptNone dominates (§7.1).
	Mid AcceptClass
	// MidFraction applies when Mid == AcceptPartial.
	MidFraction float64
	// Host governs /32 blackhole routes.
	Host AcceptClass
	// HostFraction applies when Host == AcceptPartial.
	HostFraction float64
	// FlowSpec governs fine-grained discard rules (RFC 8955). Adoption
	// at route servers is rare, so the zero value is AcceptNone; only
	// AcceptFull is meaningful for rules (no partial installation).
	FlowSpec AcceptClass
}

// DefaultPolicy is the ubiquitous "nothing longer than /24" router
// default: standard routes accepted, blackhole-length routes rejected.
func DefaultPolicy() Policy {
	return Policy{Standard: AcceptFull, Mid: AcceptNone, Host: AcceptNone}
}

// BlackholeReadyPolicy accepts host blackholes fully but, as commonly
// observed, not the /25../31 range.
func BlackholeReadyPolicy() Policy {
	return Policy{Standard: AcceptFull, Mid: AcceptNone, Host: AcceptFull}
}

// Prefix-length classes: the granularity at which import policies decide
// and at which the route server precomputes its accepting-peer sets.
const (
	classStandard = iota // up to /24
	classMid             // /25../31
	classHost            // /32
	numClasses
)

// classLens[c] has bit l set for every prefix length l of class c.
var classLens = [numClasses]uint64{1<<25 - 1, 1<<32 - 1<<25, 1 << 32}

func lengthClass(prefixLen uint8) int {
	switch {
	case prefixLen <= 24:
		return classStandard
	case prefixLen < 32:
		return classMid
	default:
		return classHost
	}
}

// fraction returns the fraction of the peer's ingress traffic that honours
// an installed route with the given prefix length (0 = rejected entirely).
func (p Policy) fraction(prefixLen uint8) float64 {
	accept, frac := p.Standard, p.StandardFraction
	switch lengthClass(prefixLen) {
	case classMid:
		accept, frac = p.Mid, p.MidFraction
	case classHost:
		accept, frac = p.Host, p.HostFraction
	}
	switch accept {
	case AcceptFull:
		return 1
	case AcceptPartial:
		return max(0, min(1, frac))
	default:
		return 0
	}
}

// Accepts reports whether the policy installs a route of the given length
// at all (fully or partially).
func (p Policy) Accepts(prefixLen uint8) bool { return p.fraction(prefixLen) > 0 }

// communities implementing the route server's targeted-announcement
// scheme. With the route server operating as AS rsASN (16-bit):
//
//	0:peerASN      do not announce to peerASN
//	rsASN:peerASN  announce to peerASN (switches to allow-list mode)
//	0:rsASN        announce to nobody except explicit allows
//
// This is the scheme large European IXPs document for their route servers.
func (s *Server) targetPeers(cs bgp.Communities, origin *peerState) peerSet {
	targets := make(peerSet, len(s.all))
	allowMode := cs.Contains(bgp.MakeCommunity(0, s.ASN))
	for _, c := range cs {
		if c.ASN() == s.ASN && c.Value() != s.ASN {
			allowMode = true
			if ps, ok := s.peers[uint32(c.Value())]; ok {
				targets.set(ps.idx)
			}
		}
	}
	if !allowMode {
		copy(targets, s.all)
	}
	targets.clear(origin.idx)
	// Explicit blocks override everything.
	for _, c := range cs {
		if c.ASN() == 0 && c.Value() != s.ASN {
			if ps, ok := s.peers[uint32(c.Value())]; ok {
				targets.clear(ps.idx)
			}
		}
	}
	return targets
}
