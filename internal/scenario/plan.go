package scenario

import (
	"math"
	"sort"

	"repro/internal/bgp"
	"repro/internal/netgen"
	"repro/internal/peeringdb"
	"repro/internal/routeserver"
	"repro/internal/stats"
)

// Address plan constants. All blocks are disjoint by construction:
// peering LAN, victim-AS space and remote-AS space live in separate /8s.
const (
	peeringLANBase  = 0xB9010000 // 185.1.0.0/16
	victimBlockBase = 0x28000000 // 40.0.0.0, one /20 per victim AS
	victimBlockBits = 12         // 4096 addresses
	remoteBlockBase = 0x50000000 // 80.0.0.0, one /22 per remote AS
	remoteBlockBits = 10         // 1024 addresses

	rsASN         = 64500
	memberASNBase = 1001
	victimASNBase = 200001
	remoteASNBase = 400001
)

// popularReflectorParticipation lists per-rank probabilities that the
// top reflector-hosting ASes take part in an attack, producing the
// 20%-60% head of the paper's Fig 15 CDF.
var popularReflectorParticipation = []float64{0.60, 0.38, 0.30, 0.26, 0.24, 0.23, 0.22, 0.21, 0.21, 0.20}

// protocolCountDist is the target distribution of distinct amplification
// protocols per attack (paper Table 3): index = count.
var protocolCountDist = stats.NewChooser([]float64{0.06, 0.40, 0.45, 0.083, 0.006, 0.001})

// Plan builds the full world for cfg. Planning is separate from running so
// tests can inspect ground truth without simulating traffic.
func Plan(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &World{Cfg: cfg, RSASN: rsASN, RSIP: peeringLANBase + 1}
	rng := stats.NewRNG(cfg.Seed)

	planMembers(w, rng.Fork(1))
	planVictimASes(w, rng.Fork(2))
	planRemoteASes(w, rng.Fork(3))
	planHosts(w, rng.Fork(4))
	planEvents(w, rng.Fork(5))
	planMitigation(w, rng.Fork(6))
	buildRegistries(w)
	return w, nil
}

// quantileOf returns the q-quantile of xs without modifying it.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}

// logNormalMedian draws a lognormal variate with the given median and
// shape, clamped to [lo, hi].
func logNormalMedian(r *stats.RNG, median, sigma, lo, hi float64) float64 {
	v := r.LogNormal(math.Log(median), sigma)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func planMembers(w *World, r *stats.RNG) {
	n := w.Cfg.Members
	w.Members = make([]Member, n)

	// Organization-type marginals for members, NSP-heavy among the big
	// players as the paper observes (Fig 8).
	types := []peeringdb.OrgType{
		peeringdb.TypeNSP, peeringdb.TypeCableDSL, peeringdb.TypeContent,
		peeringdb.TypeEnterprise, peeringdb.TypeUnknown,
	}
	typeWeightsSmall := []float64{22, 28, 22, 6, 22}
	typeWeightsBig := []float64{45, 15, 20, 2, 18} // top traffic ranks skew NSP

	// Draw the heavy-tailed traffic weights first so that "big member"
	// is a rank, not an absolute threshold: the paper's NSP skew applies
	// to the top traffic contributors.
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = r.Pareto(1.05, 1, 4000)
	}
	bigCut := quantileOf(weights, 0.85)
	giantCut := quantileOf(weights, 0.96)

	for i := 0; i < n; i++ {
		asn := uint32(memberASNBase + i)
		weight := weights[i]
		tw := typeWeightsSmall
		if weight >= bigCut {
			tw = typeWeightsBig
		}
		typ := types[r.WeightedChoice(tw)]
		tier := tierMid
		switch {
		case weight >= giantCut:
			tier = tierGiant
		case weight >= bigCut:
			tier = tierBig
		}
		pol := drawPolicy(r, typ, tier)
		if i == 0 {
			// The designated top member (also the top reflector-hosting
			// origin AS) runs a competent network: it accepts host
			// blackholes. Since it carries the single largest share of
			// attack traffic, this anchors the traffic-weighted /32 drop
			// rate near the paper's ~50%.
			pol.Host = routeserver.AcceptFull
		}
		w.Members[i] = Member{
			ASN:           asn,
			IP:            peeringLANBase + 0x100 + uint32(i),
			Policy:        pol,
			TrafficWeight: weight,
			PDBType:       typ,
		}
	}
}

// Member tiers by traffic rank. The paper's Figs 5-7 jointly require that
// the traffic-weighted acceptance of host blackholes lands near 50% while
// only about a third of the top-100 sources fully accept: the heaviest
// carriers must accept more often than the broad middle, where NSPs that
// mitigate outside the IXP dominate the rejections.
type memberTier int

const (
	tierMid memberTier = iota
	tierBig
	tierGiant
)

// drawPolicy assigns a blackhole import policy. The mix reproduces the
// paper's §4.2 findings: roughly a third of (traffic-weighted) peers fully
// accept /32 blackholes, half reject them, and a noticeable minority is
// inconsistently configured. NSPs skew toward rejecting, matching Fig 8's
// observation that global NSPs often mitigate outside the IXP.
func drawPolicy(r *stats.RNG, typ peeringdb.OrgType, tier memberTier) routeserver.Policy {
	pol := routeserver.Policy{Standard: routeserver.AcceptFull}

	// A small minority filters even standard-length route-server routes,
	// spreading /24 drop rates over the paper's 82%..100% band.
	switch {
	case r.Bool(0.04):
		pol.Standard = routeserver.AcceptNone
	case r.Bool(0.03):
		pol.Standard = routeserver.AcceptPartial
		pol.StandardFraction = 0.5 + 0.5*r.Float64()
	}

	acceptP, partialP := 0.40, 0.12
	if typ == peeringdb.TypeNSP {
		acceptP, partialP = 0.30, 0.11
	}
	switch tier {
	case tierGiant:
		acceptP = 0.88
	case tierBig:
		acceptP *= 0.62
	}
	switch {
	case r.Bool(acceptP):
		pol.Host = routeserver.AcceptFull
	case r.Bool(partialP / (1 - acceptP)):
		pol.Host = routeserver.AcceptPartial
		pol.HostFraction = 0.35 + 0.6*r.Float64()
	default:
		pol.Host = routeserver.AcceptNone
	}

	// /25../31 whitelisting is forgotten even more often (§7.1).
	switch {
	case r.Bool(0.22):
		pol.Mid = routeserver.AcceptFull
	case r.Bool(0.12):
		pol.Mid = routeserver.AcceptPartial
		pol.MidFraction = 0.15 + 0.75*r.Float64()
	default:
		pol.Mid = routeserver.AcceptNone
	}
	return pol
}

func planVictimASes(w *World, r *stats.RNG) {
	n := w.Cfg.VictimOriginASes
	w.VictimASes = make([]VictimAS, n)

	// RTBH-announcing peers: the first RTBHUsers members, with a Zipf
	// popularity so a handful of peers announce for many origin ASes.
	users := w.Cfg.RTBHUsers
	zipf := stats.NewZipf(users, 1.0)

	// Victim-AS organization types chosen so that the host populations
	// recover Table 4's marginals (clients mostly Cable/DSL/ISP, servers
	// mostly Content).
	types := []peeringdb.OrgType{
		peeringdb.TypeCableDSL, peeringdb.TypeContent, peeringdb.TypeNSP,
		peeringdb.TypeEnterprise, peeringdb.TypeUnknown,
	}
	weights := []float64{35, 12, 14, 2, 37}

	for i := 0; i < n; i++ {
		peerIdx := zipf.Draw(r)
		w.VictimASes[i] = VictimAS{
			ASN:     uint32(victimASNBase + i),
			Peer:    w.Members[peerIdx].ASN,
			Block:   bgp.MakePrefix(uint32(victimBlockBase+i<<victimBlockBits), 32-victimBlockBits),
			PDBType: types[r.WeightedChoice(weights)],
		}
	}
}

func planRemoteASes(w *World, r *stats.RNG) {
	n := w.Cfg.RemoteOriginASes
	w.RemoteASes = make([]RemoteAS, n)

	// Handover members weighted by traffic: a remote AS is reached via a
	// big transit member far more often than via a small one.
	weights := make([]float64, len(w.Members))
	for i, m := range w.Members {
		weights[i] = m.TrafficWeight
	}
	byTraffic := stats.NewChooser(weights)
	w.ConeByMember = make(map[uint32][]int)
	for i := 0; i < n; i++ {
		hIdx := byTraffic.Choose(r)
		asn := uint32(remoteASNBase + i)
		switch {
		case i == 0:
			// The top reflector-hosting origin AS is itself a member and
			// hands over its own traffic: the paper finds the top origin
			// AS and top handover AS are identical.
			asn = w.Members[0].ASN
			hIdx = 0
		case i < len(popularReflectorParticipation):
			// The other popular reflector ASes route via distinct
			// members, so no single transit accumulates their combined
			// participation.
			hIdx = i % len(w.Members)
		}
		handover := w.Members[hIdx].ASN
		w.RemoteASes[i] = RemoteAS{
			ASN:      asn,
			Handover: handover,
			Block:    bgp.MakePrefix(uint32(remoteBlockBase+i<<remoteBlockBits), 32-remoteBlockBits),
		}
		w.ConeByMember[handover] = append(w.ConeByMember[handover], i)
	}

	// Remote pool for baseline traffic: remote endpoints scattered over
	// the remote address space, delivered by the biggest members.
	topHandovers := make([]uint32, 0, 24)
	order := make([]int, len(w.Members))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return w.Members[order[a]].TrafficWeight > w.Members[order[b]].TrafficWeight
	})
	for i := 0; i < len(order) && i < 24; i++ {
		topHandovers = append(topHandovers, w.Members[order[i]].ASN)
	}
	w.RemotePool = &netgen.RemotePool{
		Handovers: topHandovers,
		AddrBase:  remoteBlockBase,
		AddrCount: uint32(n) << remoteBlockBits,
	}
}

// victimASByType groups victim-AS indices by organization type, used to
// place hosts so the Table 4 marginals come out.
func victimASByType(w *World) map[peeringdb.OrgType][]int {
	groups := make(map[peeringdb.OrgType][]int)
	for i, v := range w.VictimASes {
		groups[v.PDBType] = append(groups[v.PDBType], i)
	}
	return groups
}

// pickVictimAS draws a victim AS matching the per-kind type marginal.
func pickVictimAS(r *stats.RNG, groups map[peeringdb.OrgType][]int, kinds []peeringdb.OrgType, weights []float64) int {
	for tries := 0; tries < 8; tries++ {
		typ := kinds[r.WeightedChoice(weights)]
		g := groups[typ]
		if len(g) > 0 {
			return g[r.Intn(len(g))]
		}
	}
	// Fall back to any type that exists.
	for _, g := range groups {
		if len(g) > 0 {
			return g[r.Intn(len(g))]
		}
	}
	panic("scenario: no victim ASes")
}

func planHosts(w *World, r *stats.RNG) {
	n := w.Cfg.UniqueVictims
	w.Hosts = make([]*Host, 0, n)
	groups := victimASByType(w)

	// Host-kind mix: 70% quiet, 24% clients (mostly gaming), 6% servers,
	// reproducing the 4:1 client:server ratio among the ~30% of hosts
	// that meet the >=20-active-day criterion.
	nServers := n * 6 / 100
	nClients := n * 24 / 100
	nQuiet := n - nServers - nClients

	allTypes := []peeringdb.OrgType{
		peeringdb.TypeCableDSL, peeringdb.TypeContent, peeringdb.TypeNSP,
		peeringdb.TypeEnterprise, peeringdb.TypeUnknown,
	}
	clientWeights := []float64{60, 2, 14, 1, 23}  // Table 4 client column
	serverWeights := []float64{14, 34, 13, 1, 38} // Table 4 server column
	quietWeights := []float64{40, 8, 14, 2, 36}

	usedIPs := make(map[uint32]bool, n)
	hostIP := func(vas int) uint32 {
		block := w.VictimASes[vas].Block
		for {
			ip := block.Addr + uint32(r.Int63n(int64(block.NumAddresses())))
			if !usedIPs[ip] {
				usedIPs[ip] = true
				return ip
			}
		}
	}
	activeDays := func(p float64) []bool {
		days := make([]bool, w.Cfg.Days)
		for d := range days {
			days[d] = r.Bool(p)
		}
		return days
	}
	// Traffic magnitudes scale, structural draws (kinds, services, active
	// days) do not — the draw sequence is identical at every scale.
	s := w.Cfg.Scale()

	for i := 0; i < nServers; i++ {
		vas := pickVictimAS(r, groups, allTypes, serverWeights)
		ip := hostIP(vas)
		services := []netgen.Service{netgen.CommonServices[r.Intn(3)]}
		if r.Bool(0.5) {
			services = append(services, netgen.CommonServices[3+r.Intn(len(netgen.CommonServices)-3)])
		}
		h := &Host{
			IP:         ip,
			VictimAS:   vas,
			Kind:       HostServer,
			ActiveDays: activeDays(0.93),
			Server: &netgen.ServerProfile{
				IP:           ip,
				MemberAS:     w.VictimASes[vas].Peer,
				Services:     services,
				DailyPackets: int64(s * float64(w.Cfg.BaselineDailyPackets) * (0.5 + 3*r.Float64())),
			},
			ScanDailyPackets: int64(s * r.Pareto(1.3, 200, 5000)),
		}
		w.Hosts = append(w.Hosts, h)
	}
	for i := 0; i < nClients; i++ {
		vas := pickVictimAS(r, groups, allTypes, clientWeights)
		ip := hostIP(vas)
		kind := HostClient
		gaming := r.Bool(0.6)
		if gaming {
			kind = HostGamingClient
		}
		h := &Host{
			IP:         ip,
			VictimAS:   vas,
			Kind:       kind,
			ActiveDays: activeDays(0.9),
			Client: &netgen.ClientProfile{
				IP:             ip,
				MemberAS:       w.VictimASes[vas].Peer,
				SessionsPerDay: 3 + r.Intn(6),
				DailyPackets:   int64(s * float64(w.Cfg.BaselineDailyPackets) * (0.5 + 1.5*r.Float64())),
				Gaming:         gaming,
			},
			ScanDailyPackets: int64(s * r.Pareto(1.3, 100, 2000)),
		}
		w.Hosts = append(w.Hosts, h)
	}
	for i := 0; i < nQuiet; i++ {
		vas := pickVictimAS(r, groups, allTypes, quietWeights)
		h := &Host{
			IP:         hostIP(vas),
			VictimAS:   vas,
			Kind:       HostQuiet,
			ActiveDays: activeDays(0.015), // a stray active day here and there
		}
		if r.Bool(0.5) {
			h.ScanDailyPackets = int64(s * r.Pareto(1.5, 50, 500))
		}
		w.Hosts = append(w.Hosts, h)
	}
	// Shuffle so host index does not encode kind.
	r.Shuffle(len(w.Hosts), func(i, j int) { w.Hosts[i], w.Hosts[j] = w.Hosts[j], w.Hosts[i] })
}
