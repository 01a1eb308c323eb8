// Package hosts profiles blackholed addresses from their legitimate
// traffic outside RTBH events (paper §6.1-§6.2): the four port-diversity
// features behind the RadViz projection (Fig 16), the daily top-port
// variation that separates servers from clients (Fig 17), and the
// PeeringDB types of the detected populations (Table 4).
package hosts

import (
	"cmp"
	"math/bits"
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

// hostAgg accumulates one host's legitimate traffic once it outgrows a
// record (hostRec). It is the unit of copy-on-write sharing between an
// aggregator and its snapshots: owner names the aggregator that may write
// it (days included) in place.
type hostAgg struct {
	ip    uint32
	owner analysis.Stamp
	// days holds one entry per day with traffic, ascending by day: a host's
	// records arrive roughly in time order, so a day is nearly always the
	// last entry or a new one after it.
	days []dayAgg
	// period-level distinct port sets for the four RadViz features.
	feat [NumFeatures]analysis.BoundedSet
}

// newHost returns an empty aggregate of host ip owned by owner.
func newHost(ip uint32, owner analysis.Stamp) *hostAgg {
	h := &hostAgg{ip: ip, owner: owner}
	for i := range h.feat {
		h.feat[i] = *analysis.NewBoundedSet(featCap)
	}
	return h
}

// recKeys is how many distinct ports per feature a record holds.
const recKeys = 4

// hostRec is a host small enough to need no hostAgg: traffic on one day,
// at most recKeys distinct ports in each feature and, for incoming traffic,
// one (proto, port) key in the day's top counter. Most speculative
// candidates are such one-day hosts, and a record holds one in 56
// pointer-free bytes, in place of a hostAgg, its day array, its key arrays
// and its top counter. A host that outgrows its record is promoted: the
// record is replayed as Adds into a hostAgg, so every count, top port and
// encoding is what the hostAgg would have held from the start.
//
// The day's direction flags need no field: every incoming packet adds an
// in-src port and every outgoing one an out-src port.
type hostRec struct {
	topN uint64 // packets on top
	ip   uint32
	day  int32
	top  uint32 // proto<<16|port; set once the day has incoming traffic
	keys [NumFeatures][recKeys]uint16
	n    [NumFeatures]uint8 // keys in use per feature
}

// in and out are the day's direction flags.
func (r *hostRec) in() bool  { return r.n[FeatInSrcPorts] > 0 }
func (r *hostRec) out() bool { return r.n[FeatOutSrcPorts] > 0 }

// fits reports whether port can join feature f without outgrowing the
// record.
func (r *hostRec) fits(f int, port uint16) bool {
	return r.n[f] < recKeys || slices.Contains(r.keys[f][:r.n[f]], port)
}

// add inserts port into feature f; it must fit.
func (r *hostRec) add(f int, port uint16) {
	if !slices.Contains(r.keys[f][:r.n[f]], port) {
		r.keys[f][r.n[f]] = port
		r.n[f]++
	}
}

// replay returns the hostAgg, owned by owner, that the record's Adds would
// have built.
func (r *hostRec) replay(owner analysis.Stamp) *hostAgg {
	h := newHost(r.ip, owner)
	da := dayAgg{day: r.day, hasIn: r.in(), hasOut: r.out()}
	if da.hasIn {
		da.topForWrite().Add(r.top, r.topN)
	}
	h.days = []dayAgg{da}
	for f := range h.feat {
		for _, k := range r.keys[f][:r.n[f]] {
			h.feat[f].Add(uint64(k))
		}
	}
	return h
}

// promoted marks a ref into big; other nonzero refs point into recs.
const promoted = 1 << 31

// Aggregator builds host profiles from the streaming pass. Feed it only
// records outside RTBH activity (including the 10-minute pre-event
// reaction buffer), for addresses inside ever-blackholed prefixes.
//
// A small host is a record in recs: flat, pointer-free and copied whole by
// Snapshot. A host that outgrew its record is a hostAgg in big, shared with
// snapshots until one side writes it (analysis.Cow). slots is one
// open-addressed table from ip to the host's ref: recs[ref-1], or
// big[ref&^promoted]. A zero ref is an empty slot, so ip 0 is a host like
// any other.
type Aggregator struct {
	slots []uint32  // a power of two in size, at most half full
	recs  []hostRec // in no order; promotion moves the last into the gap
	big   []*hostAgg
	cow   analysis.Cow
}

// New returns an empty aggregator.
func New() *Aggregator {
	return &Aggregator{cow: analysis.NewCow()}
}

const featCap = 512

// ip returns the address of the host that ref points to.
func (a *Aggregator) ip(ref uint32) uint32 {
	if ref&promoted != 0 {
		return a.big[ref&^promoted].ip
	}
	return a.recs[ref-1].ip
}

// slot returns ip's slot, or the empty slot where ip goes, growing the
// table first if adding a host would fill it past half.
func (a *Aggregator) slot(ip uint32) (*uint32, bool) {
	if 2*(a.Hosts()+1) > len(a.slots) {
		old := a.slots
		a.slots = make([]uint32, max(16, 2*len(old)))
		for _, ref := range old {
			if ref != 0 {
				s, _ := a.probe(a.ip(ref))
				*s = ref
			}
		}
	}
	return a.probe(ip)
}

// probe returns ip's slot, or the empty slot where ip goes.
func (a *Aggregator) probe(ip uint32) (*uint32, bool) {
	mask := len(a.slots) - 1
	i := int(uint64(ip) * 0x9e3779b97f4a7c15 >> (64 - bits.TrailingZeros(uint(len(a.slots)))))
	for ; ; i = (i + 1) & mask {
		s := &a.slots[i]
		if *s == 0 || a.ip(*s) == ip {
			return s, *s != 0
		}
	}
}

// entry returns ip's slot, adding ip as a new record for day d if absent.
func (a *Aggregator) entry(ip uint32, d int32) *uint32 {
	s, ok := a.slot(ip)
	if !ok {
		a.recs = append(a.recs, hostRec{ip: ip, day: d})
		*s = uint32(len(a.recs))
	}
	return s
}

// adoptRec adds a copy of r as its host; r's ip must be absent.
func (a *Aggregator) adoptRec(r *hostRec) {
	s, _ := a.slot(r.ip)
	a.recs = append(a.recs, *r)
	*s = uint32(len(a.recs))
}

// adopt adds h as its host; h's ip must be absent. h keeps its stamp, so a
// copies it before its first write unless a owns it.
func (a *Aggregator) adopt(h *hostAgg) {
	s, _ := a.slot(h.ip)
	*s = promoted | uint32(len(a.big))
	a.big = append(a.big, h)
}

// small returns the record of slot s for writing, or nil if its host is
// promoted.
func (a *Aggregator) small(s *uint32) *hostRec {
	if *s&promoted != 0 {
		return nil
	}
	return &a.recs[*s-1]
}

// host returns the hostAgg of slot s for writing: promoted from its record
// if it has one, copied first if it is shared with another aggregator.
func (a *Aggregator) host(s *uint32) *hostAgg {
	if *s&promoted != 0 {
		j := *s &^ promoted
		h := a.big[j]
		if !a.cow.Owns(h.owner) {
			h = h.clone(a.cow.Copied())
			a.big[j] = h
		}
		return h
	}
	i := *s - 1
	h := a.recs[i].replay(a.cow.Stamp())
	*s = promoted | uint32(len(a.big))
	a.big = append(a.big, h)
	if last := uint32(len(a.recs)) - 1; i != last {
		moved, _ := a.probe(a.recs[last].ip)
		a.recs[i] = a.recs[last]
		*moved = i + 1
	}
	a.recs = a.recs[:len(a.recs)-1]
	return h
}

// clone copies the host for a new owner: its days in full (their counters
// are updated in place), its feature sets by BoundedSet.Clone.
func (h *hostAgg) clone(owner analysis.Stamp) *hostAgg {
	c := &hostAgg{ip: h.ip, owner: owner, days: slices.Clone(h.days)}
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
	key := uint32(proto)<<16 | uint32(dstPort)
	s := a.entry(ip, d)
	if r := a.small(s); r != nil && r.day == d && (!r.in() || r.top == key) &&
		r.fits(FeatInSrcPorts, srcPort) && r.fits(FeatInDstPorts, dstPort) {
		if !r.in() {
			r.top = key
		}
		r.topN += uint64(pkts)
		r.add(FeatInSrcPorts, srcPort)
		r.add(FeatInDstPorts, dstPort)
		return
	}
	h := a.host(s)
	da := h.day(d)
	da.hasIn = true
	da.topForWrite().Add(key, uint64(pkts))
	h.feat[FeatInSrcPorts].Add(uint64(srcPort))
	h.feat[FeatInDstPorts].Add(uint64(dstPort))
}

// AddOutgoing records a sampled packet from host ip on day d.
func (a *Aggregator) AddOutgoing(ip uint32, d int32, srcPort, dstPort uint16, proto uint8, pkts int64) {
	s := a.entry(ip, d)
	if r := a.small(s); r != nil && r.day == d &&
		r.fits(FeatOutSrcPorts, srcPort) && r.fits(FeatOutDstPorts, dstPort) {
		r.add(FeatOutSrcPorts, srcPort)
		r.add(FeatOutDstPorts, dstPort)
		return
	}
	h := a.host(s)
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
// o's records are replayed into hostAggs of a's own. An adopted hostAgg
// of o's keeps the stamp it came with, so a copies it before its first
// write; a day moves into a hostAgg of a's only when o alone held
// it, and is copied otherwise (o's snapshots still read it).
func (a *Aggregator) Merge(o *Aggregator) {
	for i := range o.recs {
		h := o.recs[i].replay(a.cow.Stamp())
		if s, ok := a.slot(h.ip); !ok {
			a.adopt(h)
		} else {
			a.host(s).merge(h, true)
		}
	}
	for _, oh := range o.big {
		if s, ok := a.slot(oh.ip); !ok {
			a.adopt(oh)
		} else {
			a.host(s).merge(oh, o.cow.Owns(oh.owner))
		}
	}
}

// merge folds o into h; exclusive says that no other aggregator reads o's
// days, so they may move into h uncopied.
func (h *hostAgg) merge(o *hostAgg, exclusive bool) {
	for _, oda := range o.days {
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
		h.feat[f].Merge(&o.feat[f])
	}
}

// Snapshot returns an independent copy of the aggregator; further Adds on
// either side do not affect the other (Operator contract in
// internal/analysis). The table and the records are copied whole; the
// promoted hosts stay shared until one side writes them (analysis.Cow).
func (a *Aggregator) Snapshot() *Aggregator {
	return &Aggregator{
		slots: slices.Clone(a.slots),
		recs:  slices.Clone(a.recs),
		big:   slices.Clone(a.big),
		cow:   a.cow.Fork(),
	}
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
	a.qualified(minActiveDays, keep, func(h *hostAgg) {
		p := Profile{IP: h.ip, ActiveDays: h.activeDays(minActiveDays)}
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
	})
	sort.Slice(out, func(i, j int) bool { return out[i].IP < out[j].IP })
	return out
}

// qualified calls fn for every host with at least minActiveDays active
// days for which keep returns true (nil keeps every host). A record holds
// one day, so one qualifies only at minActiveDays <= 1, and fn then gets
// the hostAgg it would promote to.
func (a *Aggregator) qualified(minActiveDays int, keep func(ip uint32) bool, fn func(h *hostAgg)) {
	visit := func(h *hostAgg) {
		if h.activeDays(minActiveDays) >= minActiveDays && (keep == nil || keep(h.ip)) {
			fn(h)
		}
	}
	if minActiveDays <= 1 {
		for i := range a.recs {
			visit(a.recs[i].replay(analysis.Stamp{}))
		}
	}
	for _, h := range a.big {
		visit(h)
	}
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
func (a *Aggregator) Hosts() int { return len(a.recs) + len(a.big) }

// Promoted returns how many of the hosts outgrew a record.
func (a *Aggregator) Promoted() int { return len(a.big) }

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
