// Package dropstats measures how effectively announced blackholes
// actually discard traffic (paper §4.2, Figs 5-8): drop rates by prefix
// length, the per-blackhole drop-rate distribution, and the behaviour of
// the top traffic sources toward host (/32) blackholes.
//
// The aggregator consumes records that fall inside *active* blackhole
// episodes (announced and not withdrawn); the caller performs that
// attribution. Dropped means the record's destination MAC was the
// blackhole MAC.
package dropstats

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/peeringdb"
	"repro/internal/stats"
)

// Aggregator accumulates drop statistics from the streaming pass.
type Aggregator struct {
	byLen    [33]analysis.Counter
	byEvent  analysis.PerEvent[eventCounter]
	bySource map[uint32]*analysis.Counter // ingress member -> /32 counter

	// Run memo: attributed records arrive in long runs sharing the
	// ingress member, so the map probe resolves once per run.
	lastMember uint32
	lastSource *analysis.Counter
}

type eventCounter struct {
	prefixLen uint8
	c         analysis.Counter
}

// New returns an empty aggregator.
func New() *Aggregator {
	return &Aggregator{bySource: make(map[uint32]*analysis.Counter)}
}

// Add records one sampled packet observed while a blackhole of the given
// prefix length was active for its destination. srcMember is the ingress
// (handover) member; eventID attributes the sample to a merged RTBH event.
func (a *Aggregator) Add(eventID int, prefixLen uint8, srcMember uint32, dropped bool, pkts, bytes int64) {
	if prefixLen > 32 {
		return
	}
	a.byLen[prefixLen].Add(dropped, pkts, bytes)

	ec := a.byEvent.Get(eventID)
	if ec == nil {
		ec = &eventCounter{prefixLen: prefixLen}
		a.byEvent.Put(eventID, ec)
	}
	ec.c.Add(dropped, pkts, bytes)

	if prefixLen == 32 && srcMember != 0 {
		sc := a.lastSource
		if sc == nil || a.lastMember != srcMember {
			sc = a.bySource[srcMember]
			if sc == nil {
				sc = &analysis.Counter{}
				a.bySource[srcMember] = sc
			}
			a.lastMember, a.lastSource = srcMember, sc
		}
		sc.Add(dropped, pkts, bytes)
	}
}

// Merge folds o's tallies into a; counters are summed, per-event and
// per-source tallies union-merged. Merging is commutative and associative,
// so the aggregators of a federation's exchanges combine into the exact
// state one aggregator over all their streams would hold. o must not be
// used afterwards: a may adopt its internal structures.
func (a *Aggregator) Merge(o *Aggregator) {
	for l := range o.byLen {
		a.byLen[l].Merge(&o.byLen[l])
	}
	a.byEvent.Merge(&o.byEvent, func(_ int, ec, oc *eventCounter) { ec.c.Merge(&oc.c) })
	for m, oc := range o.bySource {
		if sc := a.bySource[m]; sc != nil {
			sc.Merge(oc)
		} else {
			a.bySource[m] = oc
		}
	}
	// Adoption may have replaced the memoized entry.
	a.lastSource = nil
}

// Snapshot returns an independent deep copy of the aggregator; further
// Adds on either side do not affect the other (Operator contract in
// internal/analysis).
func (a *Aggregator) Snapshot() *Aggregator {
	s := New()
	s.byLen = a.byLen
	s.byEvent = a.byEvent.Clone(func(ec *eventCounter) *eventCounter {
		cp := *ec
		return &cp
	})
	for m, c := range a.bySource {
		cp := *c
		s.bySource[m] = &cp
	}
	return s
}

// LengthStat is one row of Fig 5.
type LengthStat struct {
	PrefixLen uint8
	analysis.Counter
	// TrafficSharePkts is this length's share of all blackhole traffic
	// (the opacity dimension of Fig 5).
	TrafficSharePkts float64
}

// ByLength returns the Fig 5 rows for lengths with any traffic, ascending.
func (a *Aggregator) ByLength() []LengthStat {
	var total int64
	for l := range a.byLen {
		total += a.byLen[l].TotalPkts()
	}
	var out []LengthStat
	for l := range a.byLen {
		c := a.byLen[l]
		if c.TotalPkts() == 0 {
			continue
		}
		s := LengthStat{PrefixLen: uint8(l), Counter: c}
		if total > 0 {
			s.TrafficSharePkts = float64(c.TotalPkts()) / float64(total)
		}
		out = append(out, s)
	}
	return out
}

// AverageDropRate returns the packet and byte drop shares across all
// blackholed traffic (the dashed lines of Fig 5).
func (a *Aggregator) AverageDropRate() (pkts, bytes float64) {
	c := a.Totals()
	return c.DropRatePkts(), c.DropRateBytes()
}

// DropRateCDF returns the per-event packet drop rates for blackholes of
// the given prefix length (Fig 6), sorted ascending. Events with fewer
// than minPkts samples are skipped to avoid quantizing the CDF at tiny
// denominators.
func (a *Aggregator) DropRateCDF(prefixLen uint8, minPkts int64) *stats.ECDF {
	var rates []float64
	a.byEvent.Each(func(_ int, ec *eventCounter) {
		if ec.prefixLen == prefixLen && ec.c.TotalPkts() >= minPkts {
			rates = append(rates, ec.c.DropRatePkts())
		}
	})
	return stats.NewECDF(rates)
}

// SourceBehaviour is one row of Fig 7: a traffic source's reaction to /32
// blackhole routes.
type SourceBehaviour struct {
	Member uint32
	analysis.Counter
}

// TopSources returns the n members contributing the most traffic toward
// /32 blackholes, ordered by total packets descending (Fig 7).
func (a *Aggregator) TopSources(n int) []SourceBehaviour {
	out := make([]SourceBehaviour, 0, len(a.bySource))
	for m, c := range a.bySource {
		out = append(out, SourceBehaviour{Member: m, Counter: *c})
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := out[i].TotalPkts(), out[j].TotalPkts()
		if ti != tj {
			return ti > tj
		}
		return out[i].Member < out[j].Member
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// SourceClasses summarizes Fig 7's headline: of the top n sources, how
// many drop >99% (acceptors), forward >99% (rejectors), and behave
// inconsistently.
type SourceClasses struct {
	Acceptors, Rejectors, Inconsistent int
	// TopShare is the share of all /32-blackhole traffic the top n carry.
	TopShare float64
}

// ClassifyTopSources computes the Fig 7 summary over the top n sources.
func (a *Aggregator) ClassifyTopSources(n int) SourceClasses {
	top := a.TopSources(n)
	var res SourceClasses
	var topPkts, allPkts int64
	for _, c := range a.bySource {
		allPkts += c.TotalPkts()
	}
	for _, s := range top {
		topPkts += s.TotalPkts()
		switch r := s.DropRatePkts(); {
		case r > 0.99:
			res.Acceptors++
		case r < 0.01:
			res.Rejectors++
		default:
			res.Inconsistent++
		}
	}
	if allPkts > 0 {
		res.TopShare = float64(topPkts) / float64(allPkts)
	}
	return res
}

// TopSourceTypes returns the PeeringDB organization-type distribution of
// the top n sources (Fig 8), split by acceptance behaviour.
type TopSourceTypes struct {
	// All counts all top-n sources by type; NonAcceptors counts only
	// those dropping less than 99%.
	All          map[peeringdb.OrgType]int
	NonAcceptors map[peeringdb.OrgType]int
}

// TypesOfTopSources joins the top sources against the registry.
func (a *Aggregator) TypesOfTopSources(n int, pdb *peeringdb.Registry) TopSourceTypes {
	res := TopSourceTypes{
		All:          make(map[peeringdb.OrgType]int),
		NonAcceptors: make(map[peeringdb.OrgType]int),
	}
	for _, s := range a.TopSources(n) {
		typ := pdb.TypeOf(s.Member)
		res.All[typ]++
		if s.DropRatePkts() <= 0.99 {
			res.NonAcceptors[typ]++
		}
	}
	return res
}

// Events returns the number of events with attributed traffic.
func (a *Aggregator) Events() int { return a.byEvent.Len() }

// Totals returns the summed dropped/forwarded tallies across all prefix
// lengths — the numbers a metrics snapshot reconciles against the Fig 5
// rows (ByLength sums to exactly these counters).
func (a *Aggregator) Totals() analysis.Counter {
	var c analysis.Counter
	for l := range a.byLen {
		c.Merge(&a.byLen[l])
	}
	return c
}
