// Package protomix analyses the traffic observed during RTBH events
// (paper §5.4-§5.5): the transport protocol distribution, attribution to
// known UDP amplification services (Table 3), the potential of
// fine-grained port-list filtering (Fig 14), and the participation of
// handover and origin ASes in amplification attacks (Fig 15).
package protomix

import (
	"slices"
	"sort"

	"repro/internal/analysis"
	"repro/internal/netgen"
)

// maxASesPerEvent bounds the per-event AS sets; real events involve tens
// of ASes, so the bound is far from binding and exists only as a memory
// backstop against pathological inputs.
const maxASesPerEvent = 4096

// ampPorts maps an index of an event's per-port counters back to its
// port: netgen.AmpPortRank ranks the catalog's ports in ascending order.
var ampPorts = func() (ports [len(netgen.AmplificationProtocols)]uint16) {
	for _, p := range netgen.AmplificationProtocols {
		i, _ := netgen.AmpPortRank(netgen.ProtoUDP, p.Port)
		ports[i] = p.Port
	}
	return ports
}()

// The presence mask of the per-port counters is a uint32.
var _ [32 - len(ampPorts)]struct{}

// eventAgg accumulates one event's during-event traffic.
type eventAgg struct {
	udp, tcp, icmp, other int64
	// ampPkts counts amplification packets per source port (ampPorts
	// order); ampSeen has bit i set once port i was counted at all, zero
	// packets included.
	ampPkts                  [len(ampPorts)]int64
	ampSeen                  uint32
	nonAmpUDP                int64
	srcIPs                   analysis.BoundedSet
	originASes, handoverASes asSet
}

// asSet is a set of AS numbers in one flat open-addressed array, kept at
// most half full. 0 marks a free slot, so AS 0 (an unresolved source) is
// never a member.
type asSet struct {
	slots []uint32
	n     int
}

// add inserts as, which must not be 0.
func (s *asSet) add(as uint32) {
	if s.slots == nil {
		s.slots = make([]uint32, 8)
	}
	mask, h := uint32(len(s.slots)-1), as*0x9e3779b1
	i := (h ^ h>>16) & mask
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		if s.slots[i] == as {
			return
		}
	}
	s.slots[i] = as
	s.n++
	if 2*s.n > len(s.slots) {
		old := s.slots
		s.slots, s.n = make([]uint32, 2*len(old)), 0
		for _, as := range old {
			if as != 0 {
				s.add(as)
			}
		}
	}
}

// sorted returns the set's ASes in ascending order.
func (s *asSet) sorted() []uint32 {
	out := make([]uint32, 0, s.n)
	for _, as := range s.slots {
		if as != 0 {
			out = append(out, as)
		}
	}
	slices.Sort(out)
	return out
}

// union adds o's members until s holds maxASesPerEvent.
func (s *asSet) union(o *asSet) {
	for _, as := range o.slots {
		if s.n >= maxASesPerEvent {
			return
		}
		if as != 0 {
			s.add(as)
		}
	}
}

func (s *asSet) clone() asSet { return asSet{slots: slices.Clone(s.slots), n: s.n} }

// Aggregator collects per-event protocol statistics from the streaming
// pass. Feed it records that fall inside merged event windows.
type Aggregator struct {
	events analysis.PerEvent[eventAgg]
}

// New returns an empty aggregator.
func New() *Aggregator { return &Aggregator{} }

// Add accumulates one sampled packet observed during eventID's window.
// originAS is the source's origin AS per the routing table (0 when
// unresolvable, e.g. spoofed), handoverAS the ingress member.
func (a *Aggregator) Add(eventID int, proto uint8, srcIP uint32, srcPort uint16, pkts int64, originAS, handoverAS uint32) {
	ea := a.events.Get(eventID)
	if ea == nil {
		ea = &eventAgg{srcIPs: *analysis.NewBoundedSet(4096)}
		a.events.Put(eventID, ea)
	}
	switch proto {
	case netgen.ProtoUDP:
		ea.udp += pkts
		if i, ok := netgen.AmpPortRank(proto, srcPort); ok {
			ea.ampPkts[i] += pkts
			ea.ampSeen |= 1 << i
			if originAS != 0 && ea.originASes.n < maxASesPerEvent {
				ea.originASes.add(originAS)
			}
			if handoverAS != 0 && ea.handoverASes.n < maxASesPerEvent {
				ea.handoverASes.add(handoverAS)
			}
			ea.srcIPs.Add(uint64(srcIP))
		} else {
			ea.nonAmpUDP += pkts
		}
	case netgen.ProtoTCP:
		ea.tcp += pkts
	case netgen.ProtoICMP:
		ea.icmp += pkts
	default:
		ea.other += pkts
	}
}

// Merge folds o's per-event aggregates into a. Events present in only
// one aggregator are adopted; colliding events sum their packet counters,
// union their AS sets (bounded as in Add) and merge their source-IP
// sets, which is what one pass over both streams leaves wherever only one
// side saw an event, and up to the sets' saturation (BoundedSet.Merge)
// where both did. o must not be used afterwards.
func (a *Aggregator) Merge(o *Aggregator) {
	a.events.Merge(&o.events, func(_ int, ea, oea *eventAgg) {
		ea.udp += oea.udp
		ea.tcp += oea.tcp
		ea.icmp += oea.icmp
		ea.other += oea.other
		ea.nonAmpUDP += oea.nonAmpUDP
		for i, pkts := range oea.ampPkts {
			ea.ampPkts[i] += pkts
		}
		ea.ampSeen |= oea.ampSeen
		ea.originASes.union(&oea.originASes)
		ea.handoverASes.union(&oea.handoverASes)
		ea.srcIPs.Merge(&oea.srcIPs)
	})
}

// Snapshot returns an independent deep copy of the aggregator; further
// Adds on either side do not affect the other (Operator contract in
// internal/analysis).
func (a *Aggregator) Snapshot() *Aggregator {
	return &Aggregator{events: a.events.Clone(func(ea *eventAgg) *eventAgg {
		cp := *ea
		cp.srcIPs = ea.srcIPs.Clone()
		cp.originASes = ea.originASes.clone()
		cp.handoverASes = ea.handoverASes.clone()
		return &cp
	})}
}

// ProtocolShares is the §5.4 transport mix over a set of events.
type ProtocolShares struct {
	UDP, TCP, ICMP, Other float64
	Packets               int64
}

// Shares computes the aggregate protocol mix over the given events (the
// paper restricts this to events with a preceding anomaly and data).
func (a *Aggregator) Shares(eventIDs []int) ProtocolShares {
	var udp, tcp, icmp, other int64
	for _, id := range eventIDs {
		if ea := a.events.Get(id); ea != nil {
			udp += ea.udp
			tcp += ea.tcp
			icmp += ea.icmp
			other += ea.other
		}
	}
	total := udp + tcp + icmp + other
	if total == 0 {
		return ProtocolShares{}
	}
	f := func(v int64) float64 { return float64(v) / float64(total) }
	return ProtocolShares{UDP: f(udp), TCP: f(tcp), ICMP: f(icmp), Other: f(other), Packets: total}
}

// ampProtocolsOf returns the distinct amplification protocols that carry
// a non-negligible share of the event's amplification traffic. minShare
// suppresses stray single samples (the paper conducts the analysis "on a
// per event basis" to avoid outlier bias).
func (ea *eventAgg) ampProtocolsOf(minShare float64) int {
	total := ea.ampTotal()
	if total == 0 {
		return 0
	}
	n := 0
	for i, v := range ea.ampPkts {
		if ea.ampSeen&(1<<i) != 0 && float64(v) >= minShare*float64(total) {
			n++
		}
	}
	return n
}

// ampTotal returns the event's amplification packets over all ports.
func (ea *eventAgg) ampTotal() (total int64) {
	for _, v := range ea.ampPkts {
		total += v
	}
	return total
}

// ProtocolCountDist returns the Table 3 distribution: the share of events
// using exactly k distinct amplification protocols, for k = 0..5+ (the
// last bucket aggregates 5 and more).
func (a *Aggregator) ProtocolCountDist(eventIDs []int) (dist [6]float64, counted int) {
	var counts [6]int
	for _, id := range eventIDs {
		ea := a.events.Get(id)
		if ea == nil {
			continue
		}
		counts[min(ea.ampProtocolsOf(0.02), 5)]++
		counted++
	}
	if counted == 0 {
		return dist, 0
	}
	for k := range counts {
		dist[k] = float64(counts[k]) / float64(counted)
	}
	return dist, counted
}

// FilterableShares returns, per event, the share of packets that would be
// dropped by filtering the known amplification port list (Fig 14),
// sorted ascending.
func (a *Aggregator) FilterableShares(eventIDs []int) []float64 {
	var out []float64
	for _, id := range eventIDs {
		ea := a.events.Get(id)
		if ea == nil {
			continue
		}
		total := ea.udp + ea.tcp + ea.icmp + ea.other
		if total == 0 {
			continue
		}
		out = append(out, float64(ea.ampTotal())/float64(total))
	}
	sort.Float64s(out)
	return out
}

// FullyFilterableShare returns the fraction of events whose traffic is
// covered at least 99% by the amplification port list (the paper's "90%
// of the RTBH events could be supported completely").
func (a *Aggregator) FullyFilterableShare(eventIDs []int) float64 {
	shares := a.FilterableShares(eventIDs)
	if len(shares) == 0 {
		return 0
	}
	n := 0
	for _, s := range shares {
		if s >= 0.99 {
			n++
		}
	}
	return float64(n) / float64(len(shares))
}

// Participation is the Fig 15 result for one AS category.
type Participation struct {
	// Shares holds, per participating AS, the fraction of amplification
	// events it took part in, ascending.
	Shares []float64
	// ASes is the number of participating ASes.
	ASes int
	// Top10 is the participation share of the ten most frequent ASes,
	// descending.
	Top10 []float64
	// TopAS is the most frequent AS.
	TopAS uint32
}

// participationOf tallies per-AS event participation.
func participationOf(events *analysis.PerEvent[eventAgg], ids []int, pick func(*eventAgg) *asSet) Participation {
	perAS := make(map[uint32]int)
	total := 0
	for _, id := range ids {
		ea := events.Get(id)
		if ea == nil || pick(ea).n == 0 {
			continue
		}
		total++
		for _, as := range pick(ea).slots {
			if as != 0 {
				perAS[as]++
			}
		}
	}
	var p Participation
	if total == 0 {
		return p
	}
	type kv struct {
		as uint32
		n  int
	}
	all := make([]kv, 0, len(perAS))
	for as, n := range perAS {
		all = append(all, kv{as, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].as < all[j].as
	})
	p.ASes = len(all)
	for i, e := range all {
		share := float64(e.n) / float64(total)
		if i < 10 {
			p.Top10 = append(p.Top10, share)
		}
		p.Shares = append(p.Shares, share)
	}
	p.TopAS = all[0].as // every counted event holds an AS
	sort.Float64s(p.Shares)
	return p
}

// OriginParticipation returns Fig 15's origin-AS CDF over the given
// (amplification) events.
func (a *Aggregator) OriginParticipation(eventIDs []int) Participation {
	return participationOf(&a.events, eventIDs, func(ea *eventAgg) *asSet { return &ea.originASes })
}

// HandoverParticipation returns Fig 15's handover-AS CDF.
func (a *Aggregator) HandoverParticipation(eventIDs []int) Participation {
	return participationOf(&a.events, eventIDs, func(ea *eventAgg) *asSet { return &ea.handoverASes })
}

// AttackScale summarizes the per-event source diversity: mean amplifiers,
// mean origin ASes and mean handover ASes per amplification event.
type AttackScale struct {
	MeanAmplifiers   float64
	MeanOriginASes   float64
	MeanHandoverASes float64
	Events           int
}

// Scale computes AttackScale over events with amplification traffic.
func (a *Aggregator) Scale(eventIDs []int) AttackScale {
	var s AttackScale
	for _, id := range eventIDs {
		ea := a.events.Get(id)
		if ea == nil || ea.originASes.n == 0 {
			continue
		}
		s.Events++
		s.MeanAmplifiers += float64(ea.srcIPs.Count())
		s.MeanOriginASes += float64(ea.originASes.n)
		s.MeanHandoverASes += float64(ea.handoverASes.n)
	}
	if s.Events > 0 {
		s.MeanAmplifiers /= float64(s.Events)
		s.MeanOriginASes /= float64(s.Events)
		s.MeanHandoverASes /= float64(s.Events)
	}
	return s
}
