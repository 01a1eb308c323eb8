// Package hosts profiles blackholed addresses from their legitimate
// traffic outside RTBH events (paper §6.1-§6.2): the four port-diversity
// features behind the RadViz projection (Fig 16), the daily top-port
// variation that separates servers from clients (Fig 17), and the
// PeeringDB types of the detected populations (Table 4).
package hosts

import (
	"cmp"
	"maps"
	"slices"
	"sort"

	"repro/internal/analysis"
	"repro/internal/ip2as"
	"repro/internal/peeringdb"
)

// MinActiveDays is the paper's conservative detection criterion: a host
// qualifies only with incoming and outgoing traffic on at least 20
// distinct days.
const MinActiveDays = 20

// Feature indices of the RadViz projection (§6.1).
const (
	FeatInSrcPorts = iota
	FeatInDstPorts
	FeatOutSrcPorts
	FeatOutDstPorts
	NumFeatures
)

// FeatureNames label the RadViz anchors.
var FeatureNames = [NumFeatures]string{
	"in-src-ports", "in-dst-ports", "out-src-ports", "out-dst-ports",
}

// Kind is the host classification outcome.
type Kind int

// Host classes.
const (
	KindUnclassified Kind = iota
	KindServer
	KindClient
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindServer:
		return "server"
	case KindClient:
		return "client"
	default:
		return "unclassified"
	}
}

// dayAgg tracks one host-day.
type dayAgg struct {
	day           int32
	hasIn, hasOut bool
	// inTop counts incoming packets per proto<<16|port. It is allocated
	// by the day's first incoming packet: nil reads as an empty counter of
	// dayTopCap keys (see top), which most candidate days stay.
	inTop *analysis.TopCounter
}

// dayTopCap is how many distinct (proto, port) keys a day's top counter
// tracks.
const dayTopCap = 32

// emptyTop is what a day without incoming traffic reads as; never written.
var emptyTop = analysis.NewTopCounter(dayTopCap)

// top returns the day's incoming top-port counter for reading.
func (da *dayAgg) top() *analysis.TopCounter {
	if da.inTop == nil {
		return emptyTop
	}
	return da.inTop
}

// topForWrite returns the day's incoming top-port counter for writing,
// allocating it first.
func (da *dayAgg) topForWrite() *analysis.TopCounter {
	if da.inTop == nil {
		da.inTop = analysis.NewTopCounter(dayTopCap)
	}
	return da.inTop
}

// hostAgg accumulates one host's legitimate traffic. It is the unit of
// copy-on-write sharing between an aggregator and its snapshots: owner
// names the aggregator that may write it (days included) in place.
type hostAgg struct {
	owner analysis.Stamp
	// days holds one entry per day with traffic, ascending by day: a host's
	// records arrive roughly in time order, so a day is nearly always the
	// last entry or a new one after it.
	days []dayAgg
	// period-level distinct port sets for the four RadViz features.
	feat [NumFeatures]analysis.BoundedSet
}

// Aggregator builds host profiles from the streaming pass. Feed it only
// records outside RTBH activity (including the 10-minute pre-event
// reaction buffer), for addresses inside ever-blackholed prefixes.
type Aggregator struct {
	hosts map[uint32]*hostAgg
	cow   analysis.Cow
}

// New returns an empty aggregator.
func New() *Aggregator {
	return &Aggregator{hosts: make(map[uint32]*hostAgg), cow: analysis.NewCow()}
}

const featCap = 512

// host returns ip's aggregate for writing: created if absent, copied
// first if it is shared with another aggregator.
func (a *Aggregator) host(ip uint32) *hostAgg {
	h := a.hosts[ip]
	switch {
	case h == nil:
		h = &hostAgg{owner: a.cow.Stamp()}
		for i := range h.feat {
			h.feat[i] = *analysis.NewBoundedSet(featCap)
		}
		a.hosts[ip] = h
	case !a.cow.Owns(h.owner):
		h = h.clone(a.cow.Copied())
		a.hosts[ip] = h
	}
	return h
}

// clone copies the host for a new owner: its days in full (their counters
// are updated in place), its feature sets by BoundedSet.Clone.
func (h *hostAgg) clone(owner analysis.Stamp) *hostAgg {
	c := &hostAgg{owner: owner, days: slices.Clone(h.days)}
	for i := range c.days {
		c.days[i].inTop = c.days[i].cloneTop()
	}
	for f := range h.feat {
		c.feat[f] = h.feat[f].Clone()
	}
	return c
}

// cloneTop returns a copy of the day's counter (nil stays nil).
func (da *dayAgg) cloneTop() *analysis.TopCounter {
	if da.inTop == nil {
		return nil
	}
	return da.inTop.Clone()
}

// find returns where day d is or would be inserted in h.days.
func (h *hostAgg) find(d int32) (int, bool) {
	n := len(h.days)
	switch {
	case n == 0 || h.days[n-1].day < d:
		return n, false
	case h.days[n-1].day == d:
		return n - 1, true
	}
	return slices.BinarySearchFunc(h.days, d, func(da dayAgg, d int32) int { return cmp.Compare(da.day, d) })
}

// day returns day d's aggregate for writing, inserted if absent.
func (h *hostAgg) day(d int32) *dayAgg {
	i, ok := h.find(d)
	if !ok {
		h.days = slices.Insert(h.days, i, dayAgg{day: d})
	}
	return &h.days[i]
}

// AddIncoming records a sampled packet toward host ip on day d.
func (a *Aggregator) AddIncoming(ip uint32, d int32, srcPort, dstPort uint16, proto uint8, pkts int64) {
	h := a.host(ip)
	da := h.day(d)
	da.hasIn = true
	da.topForWrite().Add(uint32(proto)<<16|uint32(dstPort), uint64(pkts))
	h.feat[FeatInSrcPorts].Add(uint64(srcPort))
	h.feat[FeatInDstPorts].Add(uint64(dstPort))
}

// AddOutgoing records a sampled packet from host ip on day d.
func (a *Aggregator) AddOutgoing(ip uint32, d int32, srcPort, dstPort uint16, proto uint8, pkts int64) {
	h := a.host(ip)
	h.day(d).hasOut = true
	h.feat[FeatOutSrcPorts].Add(uint64(srcPort))
	h.feat[FeatOutDstPorts].Add(uint64(dstPort))
}

// Merge folds o's host aggregates into a. Hosts present in only one
// aggregator are adopted; colliding hosts union their day maps (OR-ing
// direction flags, merging top-port counters) and merge their feature
// sets, which is what one pass over both streams leaves wherever only one
// side saw a host, and up to the sets' saturation (BoundedSet.Merge) where
// both did. o must not be used afterwards.
//
// An adopted host keeps the stamp it came with, so a copies it before its
// first write; a day moves into a host of a's only when o alone held it,
// and is copied otherwise (o's snapshots still read it).
func (a *Aggregator) Merge(o *Aggregator) {
	for ip, oh := range o.hosts {
		if a.hosts[ip] == nil {
			a.hosts[ip] = oh
			continue
		}
		h := a.host(ip)
		exclusive := o.cow.Owns(oh.owner)
		for _, oda := range oh.days {
			i, ok := h.find(oda.day)
			if !ok {
				if !exclusive {
					oda.inTop = oda.cloneTop()
				}
				h.days = slices.Insert(h.days, i, oda)
				continue
			}
			da := &h.days[i]
			da.hasIn = da.hasIn || oda.hasIn
			da.hasOut = da.hasOut || oda.hasOut
			if oda.inTop != nil {
				da.topForWrite().Merge(oda.inTop)
			}
		}
		for f := range h.feat {
			h.feat[f].Merge(&oh.feat[f])
		}
	}
}

// Snapshot returns an independent copy of the aggregator; further Adds on
// either side do not affect the other (Operator contract in
// internal/analysis). Only the host map is copied: the hosts themselves
// stay shared until one side writes them (analysis.Cow).
func (a *Aggregator) Snapshot() *Aggregator {
	return &Aggregator{hosts: maps.Clone(a.hosts), cow: a.cow.Fork()}
}

// CowCopies returns how many hosts the aggregator has copied on first
// write after a Snapshot or Merge.
func (a *Aggregator) CowCopies() int64 { return a.cow.Copies() }

// Profile is the per-host analysis outcome.
type Profile struct {
	IP uint32
	// ActiveDays counts days with both incoming and outgoing traffic.
	ActiveDays int
	// Features are the four RadViz port-diversity counts.
	Features [NumFeatures]float64
	// TopPorts are the distinct daily top (proto, port) pairs of
	// incoming traffic, encoded proto<<16|port.
	TopPorts []uint32
	// PortVariation is |distinct top ports| / |days with incoming
	// traffic|: ~0 for stable servers, ~1 for clients (§6.2).
	PortVariation float64
	// Kind is the classification (servers at low variation).
	Kind Kind
}

// ClassifyThreshold separates servers (variation below) from clients.
const ClassifyThreshold = 0.5

// Profiles computes per-host outcomes for hosts meeting minActiveDays
// (use MinActiveDays for the paper's criterion), sorted by IP.
func (a *Aggregator) Profiles(minActiveDays int) []Profile {
	return a.ProfilesFunc(minActiveDays, nil)
}

// ProfilesFunc is Profiles restricted to hosts for which keep returns
// true (nil keeps every host). The online analyzer profiles candidate
// hosts speculatively — before knowing whether their prefix will ever be
// blackholed — and applies the ever-blackholed predicate here, at compose
// time, which makes the surviving set identical to what a batch pass
// (which knows the full control stream up front) would have fed.
func (a *Aggregator) ProfilesFunc(minActiveDays int, keep func(ip uint32) bool) []Profile {
	var out []Profile
	for ip, h := range a.hosts {
		active := h.activeDays(minActiveDays)
		if active < minActiveDays || (keep != nil && !keep(ip)) {
			continue
		}
		p := Profile{IP: ip, ActiveDays: active}
		inDays := 0
		topSet := map[uint32]bool{}
		for i := range h.days {
			if da := &h.days[i]; da.hasIn {
				inDays++
				if key, _, ok := da.top().Top(); ok {
					topSet[key] = true
				}
			}
		}
		for f := range p.Features {
			p.Features[f] = float64(h.feat[f].Count())
		}
		for k := range topSet {
			p.TopPorts = append(p.TopPorts, k)
		}
		sort.Slice(p.TopPorts, func(i, j int) bool { return p.TopPorts[i] < p.TopPorts[j] })
		if inDays > 0 {
			p.PortVariation = float64(len(topSet)) / float64(inDays)
		}
		if p.PortVariation <= ClassifyThreshold {
			p.Kind = KindServer
		} else {
			p.Kind = KindClient
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IP < out[j].IP })
	return out
}

// activeDays counts the days with both incoming and outgoing traffic, or
// returns 0 without looking when the host has fewer than atLeast days at
// all. Both compose filters call it before their keep predicate: the day
// count rejects nearly every speculative candidate (most were seen on one
// day), while keep costs a map probe per prefix length.
func (h *hostAgg) activeDays(atLeast int) int {
	if len(h.days) < atLeast {
		return 0
	}
	n := 0
	for _, da := range h.days {
		if da.hasIn && da.hasOut {
			n++
		}
	}
	return n
}

// Hosts returns the number of distinct profiled addresses (before the
// active-day filter).
func (a *Aggregator) Hosts() int { return len(a.hosts) }

// TypeTable is Table 4: the PeeringDB type distribution of detected
// client and server populations.
type TypeTable struct {
	Clients, Servers int
	ClientTypes      map[peeringdb.OrgType]float64
	ServerTypes      map[peeringdb.OrgType]float64
}

// Types joins profiles against the routing table and PeeringDB.
func Types(profiles []Profile, tbl *ip2as.Table, pdb *peeringdb.Registry) TypeTable {
	res := TypeTable{
		ClientTypes: make(map[peeringdb.OrgType]float64),
		ServerTypes: make(map[peeringdb.OrgType]float64),
	}
	for i := range profiles {
		typ := peeringdb.TypeUnknown
		if asn, ok := tbl.Lookup(profiles[i].IP); ok {
			typ = pdb.TypeOf(asn)
		}
		switch profiles[i].Kind {
		case KindClient:
			res.Clients++
			res.ClientTypes[typ]++
		case KindServer:
			res.Servers++
			res.ServerTypes[typ]++
		}
	}
	for k := range res.ClientTypes {
		res.ClientTypes[k] /= float64(res.Clients)
	}
	for k := range res.ServerTypes {
		res.ServerTypes[k] /= float64(res.Servers)
	}
	return res
}
