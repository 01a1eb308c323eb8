package scenario

import (
	"time"

	"repro/internal/bgp"
	"repro/internal/ip2as"
	"repro/internal/netgen"
	"repro/internal/peeringdb"
	"repro/internal/routeserver"
)

// EventClass is the ground-truth use case of a planned RTBH event,
// following the paper's taxonomy (Table 1 plus the observed zombie class).
type EventClass int

// Ground-truth event classes.
const (
	// ClassDDoS is infrastructure protection: the blackhole reacts to a
	// volumetric attack.
	ClassDDoS EventClass = iota
	// ClassSteady is a blackhole on a host with ongoing legitimate
	// traffic but no attack visible at the IXP (mitigation of attacks
	// seen elsewhere, precaution, or unexplained operator action).
	ClassSteady
	// ClassQuiet is a short- or mid-lived blackhole on a prefix with
	// essentially no traffic at the vantage point.
	ClassQuiet
	// ClassZombie is a blackhole once triggered and then forgotten:
	// announced once, active for weeks to the end of the period.
	ClassZombie
	// ClassSquatting is prefix-squatting protection: an unused,
	// less-specific prefix announced as a blackhole for months.
	ClassSquatting
)

// String implements fmt.Stringer.
func (c EventClass) String() string {
	switch c {
	case ClassDDoS:
		return "ddos"
	case ClassSteady:
		return "steady"
	case ClassQuiet:
		return "quiet"
	case ClassZombie:
		return "zombie"
	case ClassSquatting:
		return "squatting"
	default:
		return "invalid"
	}
}

// HostKind describes the behavioural profile of a blackholed host.
type HostKind int

// Host kinds.
const (
	HostQuiet HostKind = iota
	HostServer
	HostClient
	HostGamingClient
)

// String implements fmt.Stringer.
func (k HostKind) String() string {
	switch k {
	case HostQuiet:
		return "quiet"
	case HostServer:
		return "server"
	case HostClient:
		return "client"
	case HostGamingClient:
		return "gaming-client"
	default:
		return "invalid"
	}
}

// Member is one AS connected to the peering platform.
type Member struct {
	ASN    uint32
	IP     uint32
	Policy routeserver.Policy
	// TrafficWeight is the member's share of handover traffic
	// (heavy-tailed, as at real IXPs).
	TrafficWeight float64
	// PDBType is the member's PeeringDB organization type.
	PDBType peeringdb.OrgType
}

// VictimAS is an origin AS that owns blackholed prefixes. Peer is the IXP
// member that announces its blackholes (the AS itself when it peers
// directly, otherwise its transit).
type VictimAS struct {
	ASN     uint32
	Peer    uint32
	Block   bgp.Prefix
	PDBType peeringdb.OrgType
}

// RemoteAS is a non-victim origin AS routed through the IXP; amplifier
// pools are drawn from these.
type RemoteAS struct {
	ASN      uint32
	Handover uint32
	Block    bgp.Prefix
}

// Host is one blackholed address with its behavioural profile.
type Host struct {
	IP       uint32
	VictimAS int // index into World.VictimASes
	Kind     HostKind
	// ActiveDays marks the days (0-based) on which the host exchanges
	// baseline traffic.
	ActiveDays []bool
	// Server and Client are the traffic profiles; exactly one is non-nil
	// for non-quiet hosts.
	Server *netgen.ServerProfile
	Client *netgen.ClientProfile
	// ScanDailyPackets is the background-radiation volume toward the
	// host per day (0 for none).
	ScanDailyPackets int64
}

// Episode is one announce..withdraw cycle of an RTBH event. A zero
// Withdraw means the route stays active to the end of the period.
type Episode struct {
	Announce time.Time
	Withdraw time.Time
}

// Attack is the ground-truth description of a DDoS attack driving a
// ClassDDoS event.
type Attack struct {
	Start    time.Time
	Duration time.Duration
	PPS      float64
	// Protocols are the amplification vectors in use (empty for direct
	// floods).
	Protocols []netgen.AmpProtocol
	// ExtraRandomPort adds an unfilterable random-port UDP component.
	ExtraRandomPort bool
	// SYNFlood marks a direct TCP SYN flood component.
	SYNFlood bool
	// OriginASes indexes World.RemoteASes for the reflector pools.
	OriginASes []int
}

// End returns when the attack traffic stops.
func (a *Attack) End() time.Time { return a.Start.Add(a.Duration) }

// FlowSpecWindow is the fine-grained mitigation phase of an event: the
// victim's FlowSpec discard rule is announced at Start and withdrawn at
// End (zero End = active to the end of the period).
type FlowSpecWindow struct {
	Start time.Time
	End   time.Time
	Rule  *bgp.FlowRule
}

// Event is one planned mitigation event with ground truth attached.
// Episodes are the RTBH announce/withdraw cycles; FlowSpec, when
// non-nil, is the fine-grained phase a non-default MitigationPolicy
// planned. A FlowSpec-only event has no episodes at all.
type Event struct {
	ID       int
	Class    EventClass
	Prefix   bgp.Prefix
	Peer     uint32 // announcing member
	OriginAS uint32 // AS_PATH origin
	Host     int    // index into World.Hosts, -1 for squatting prefixes
	Attack   *Attack
	Episodes []Episode
	FlowSpec *FlowSpecWindow
	// TargetedExclude, when non-empty, lists peers excluded from the
	// announcement via communities (targeted blackholing).
	TargetedExclude []uint32
	// Bilateral marks events additionally enforced by private
	// agreements outside the route server.
	Bilateral bool
}

// Start returns the first mitigation action (RTBH announcement, or the
// FlowSpec rule announcement for FlowSpec-only events).
func (e *Event) Start() time.Time {
	if len(e.Episodes) == 0 && e.FlowSpec != nil {
		return e.FlowSpec.Start
	}
	return e.Episodes[0].Announce
}

// End returns when the last mitigation state is removed; ok is false if
// any of it stays active to the end of the measurement period.
func (e *Event) End() (time.Time, bool) {
	var end time.Time
	if len(e.Episodes) > 0 {
		last := e.Episodes[len(e.Episodes)-1]
		if last.Withdraw.IsZero() {
			return time.Time{}, false
		}
		end = last.Withdraw
	}
	if e.FlowSpec != nil {
		if e.FlowSpec.End.IsZero() {
			return time.Time{}, false
		}
		if e.FlowSpec.End.After(end) {
			end = e.FlowSpec.End
		}
	}
	return end, true
}

// actions calls yield for every mitigation action of the event in the
// order the victim takes them: each episode's announcement and, unless
// the route stays up, its withdrawal, then the FlowSpec rule's.
func (e *Event) actions(yield func(t time.Time, announce, flowSpec bool)) {
	for _, ep := range e.Episodes {
		yield(ep.Announce, true, false)
		if !ep.Withdraw.IsZero() {
			yield(ep.Withdraw, false, false)
		}
	}
	if fs := e.FlowSpec; fs != nil {
		yield(fs.Start, true, true)
		if !fs.End.IsZero() {
			yield(fs.End, false, true)
		}
	}
}

// World is the fully planned simulation input.
type World struct {
	Cfg Config

	RSASN uint16
	RSIP  uint32

	Members    []Member
	VictimASes []VictimAS
	RemoteASes []RemoteAS
	// ConeByMember lists, per handover member ASN, the indices of the
	// remote origin ASes routed through it (its customer cone at the
	// IXP). Attack reflector pools cluster within a few cones.
	ConeByMember map[uint32][]int
	Hosts        []*Host
	Events       []*Event
	PDB          *peeringdb.Registry
	IP2AS        *ip2as.Table
	RemotePool   *netgen.RemotePool
	SquatASes    int
	SquatPrefix  int
}
