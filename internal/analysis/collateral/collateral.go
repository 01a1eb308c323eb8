// Package collateral quantifies the collateral damage of RTBH mitigation
// (paper §6.3, Fig 18): packets addressed to detected servers' stable
// service ports while an RTBH event for the server was in progress —
// legitimate-looking traffic that blackholing discards along with the
// attack. Counts are reported absolutely (the paper deliberately avoids
// relative shares, which attack volume would dwarf).
package collateral

import (
	"cmp"
	"maps"
	"slices"

	"repro/internal/analysis"
	"repro/internal/analysis/hosts"
	"repro/internal/bgp"
)

// Aggregator holds the per-event damage counters: during-event packets
// to server top ports. It is a compose-time result, not a streaming
// stage — built from the server profiles once host profiling has
// produced the top-port lists, and filled by Pending.Materialize.
type Aggregator struct {
	// servers are the detected servers with top ports, ascending by IP:
	// Materialize finds those inside an event's prefix by binary search.
	servers []server
	// perEvent tallies per event ID.
	perEvent analysis.PerEvent[counts]
}

// server is one detected server and its top ports (proto<<16|port):
// distinct and ascending, as host profiling lists them.
type server struct {
	ip    uint32
	ports []uint32
}

type counts struct {
	all, dropped int64
}

// New builds an aggregator for the detected server profiles, one per
// host as host profiling produces them.
func New(profiles []hosts.Profile) *Aggregator {
	a := &Aggregator{}
	for i := range profiles {
		p := &profiles[i]
		if p.Kind == hosts.KindServer && len(p.TopPorts) > 0 {
			a.servers = append(a.servers, server{ip: p.IP, ports: p.TopPorts})
		}
	}
	slices.SortFunc(a.servers, func(x, y server) int { return cmp.Compare(x.ip, y.ip) })
	return a
}

// in returns the servers inside prefix.
func (a *Aggregator) in(prefix bgp.Prefix) []server {
	lo := prefix.Addr & prefix.Mask()
	hi := lo | ^prefix.Mask()
	i, _ := slices.BinarySearchFunc(a.servers, lo, func(s server, ip uint32) int { return cmp.Compare(s.ip, ip) })
	j := i
	for j < len(a.servers) && a.servers[j].ip <= hi {
		j++
	}
	return a.servers[i:j]
}

// add folds one matched cell's packets into event eventID's damage.
func (a *Aggregator) add(eventID int, all, dropped int64) {
	c := a.perEvent.Get(eventID)
	if c == nil {
		c = &counts{}
		a.perEvent.Put(eventID, c)
	}
	c.all += all
	c.dropped += dropped
}

// Pending accumulates during-event traffic toward blackholed destinations
// *before* the server profiles exist, keyed by (event, dstIP,
// proto<<16|port). It is the compact per-event aggregate that lets the
// pipeline run in a single pass: whether a packet counts as collateral
// damage depends only on these coordinates, never on arrival order, so
// tallying now and filtering against the top-port sets at compose time
// (Materialize) is exact. State is bounded by the distinct (event, host,
// port) combinations with during-event traffic — far below the raw record
// count — but top ports are known only at compose, so the online analyzer
// retains every cell for the whole run.
//
// Nearly every in-event record opens a new cell (attack traffic sprays
// destination ports), so the store is built for insertion and size: one
// flat open-addressed table of 8-byte slots per event, one find-or-insert
// per Add, no per-cell allocation and no pointers for the collector to
// trace.
//
// An event's table is the unit of copy-on-write sharing between a store
// and its snapshots (analysis.Cow): both paths that write a table, Add and
// Merge, reach it through own. RemapEvents writes none: it moves tables
// to new slots as they are.
type Pending struct {
	tables analysis.PerEvent[table]
	n      int
	cow    analysis.Cow
}

// table is one event's cells: linear probing over a power-of-two array
// of 8-byte slots that doubles at 3/4 load. A slot holds the cell key
// (cellKey), whose bits 24-31 are always zero, and uses that byte for the
// cell's counts while they are small: (all+1)<<4 | dropped, for all <= 14
// and dropped <= 15. The counts of any other cell live in spill, under its
// key, and its slot's count byte is the spilled tag. The count byte of an
// occupied slot is never zero, so a zero slot marks a free one and a
// fresh or grown array needs no fill pass. (Half load probes a little
// less but retained 14 % more looking-glass state on the 1M-record
// benchmark world, and retained state is what this store exists to keep
// small.)
type table struct {
	owner analysis.Stamp
	slots []uint64
	shift uint // 64 - log2(len(slots)): the hash's top bits index slots
	n     int  // cells held
	// spill holds the counts that do not fit a count byte: nil until the
	// first such cell, a handful per event when there is one.
	spill map[uint64]counts
}

const (
	countShift = 24
	countMask  = 0xff << countShift
	// fresh is the count byte of a cell with zero counts; spilled that of
	// a cell whose counts are in spill.
	fresh   = 1 << 4 << countShift
	spilled = 1 << countShift
)

// minTableSlots is a new table's size; most events of a large world hold
// a handful of cells.
const minTableSlots = 8

func newTable(owner analysis.Stamp) *table {
	return &table{owner: owner, slots: make([]uint64, minTableSlots), shift: 64 - 3}
}

// clone copies the table for a new owner: the slots and the spill map.
func (t *table) clone(owner analysis.Stamp) *table {
	c := *t
	c.owner, c.slots, c.spill = owner, slices.Clone(t.slots), maps.Clone(t.spill)
	return &c
}

// home is the slot key's probe sequence starts at. Fibonacci hashing:
// the keys are packed fields, the product's top bits mix all of them.
func (t *table) home(key uint64) uint64 { return (key * 0x9e3779b97f4a7c15) >> t.shift }

// add sums (all, dropped) into key's cell, inserting the cell if absent,
// and returns how many cells it inserted: 0 or 1.
func (t *table) add(key uint64, all, dropped int64) int {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		v := t.slots[i]
		if v == 0 {
			if (t.n+1)*4 > len(t.slots)*3 {
				t.grow()
				return t.add(key, all, dropped)
			}
			t.slots[i] = t.sum(key|fresh, all, dropped)
			t.n++
			return 1
		}
		if v&^countMask == key {
			t.slots[i] = t.sum(v, all, dropped)
			return 0
		}
	}
}

// sum returns slot v with (all, dropped) added to its counts, moving them
// to spill when they no longer fit the count byte.
func (t *table) sum(v uint64, all, dropped int64) uint64 {
	key := v &^ countMask
	if b := v >> countShift & 0xff; b >= 1<<4 {
		all += int64(b>>4) - 1
		dropped += int64(b & 15)
		if uint64(all) <= 14 && uint64(dropped) <= 15 {
			return key | uint64(all+1)<<4<<countShift | uint64(dropped)<<countShift
		}
		if t.spill == nil {
			t.spill = make(map[uint64]counts)
		}
		t.spill[key] = counts{all, dropped}
		return key | spilled
	}
	c := t.spill[key]
	t.spill[key] = counts{c.all + all, c.dropped + dropped}
	return v
}

// counts returns the counts of occupied slot v.
func (t *table) counts(v uint64) counts {
	if b := v >> countShift & 0xff; b >= 1<<4 {
		return counts{int64(b>>4) - 1, int64(b & 15)}
	}
	return t.spill[v&^countMask]
}

// grow doubles the slot array and rehashes the occupied slots.
func (t *table) grow() {
	old := t.slots
	t.slots, t.shift = make([]uint64, 2*len(old)), t.shift-1
	mask := uint64(len(t.slots) - 1)
	for _, v := range old {
		if v == 0 {
			continue
		}
		i := t.home(v &^ countMask)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = v
	}
}

// get returns key's counts without inserting the cell. A table always
// keeps a free slot, which ends every probe sequence that misses.
func (t *table) get(key uint64) (counts, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		v := t.slots[i]
		if v == 0 {
			return counts{}, false
		}
		if v&^countMask == key {
			return t.counts(v), true
		}
	}
}

// each calls fn for every cell, in no particular order.
func (t *table) each(fn func(key uint64, c counts)) {
	for _, v := range t.slots {
		if v != 0 {
			fn(v&^countMask, t.counts(v))
		}
	}
}

// absorb sums o's cells into t.
func (t *table) absorb(o *table) {
	o.each(func(key uint64, c counts) { t.add(key, c.all, c.dropped) })
}

// NewPending returns an empty pending store.
func NewPending() *Pending {
	return &Pending{cow: analysis.NewCow()}
}

// cellKey packs (dstIP, proto, dstPort) into the cell key; bits 24-31
// stay zero for the table's count byte.
func cellKey(dstIP uint32, dstPort uint16, proto uint8) uint64 {
	return uint64(dstIP)<<32 | uint64(proto)<<16 | uint64(dstPort)
}

// own returns eventID's table for writing: created if absent, copied
// first if it is shared with another store.
func (p *Pending) own(eventID int) *table {
	t := p.tables.Get(eventID)
	switch {
	case t == nil:
		t = newTable(p.cow.Stamp())
		p.tables.Put(eventID, t)
	case !p.cow.Owns(t.owner):
		t = t.clone(p.cow.Copied())
		p.tables.Put(eventID, t)
	}
	return t
}

// add sums (all, dropped) into the cell (eventID, key), creating it if
// absent.
func (p *Pending) add(eventID int, key uint64, all, dropped int64) {
	p.n += p.own(eventID).add(key, all, dropped)
}

// Add tallies one sampled packet observed during eventID's window toward
// dstIP on (proto, dstPort).
func (p *Pending) Add(eventID int, dstIP uint32, dstPort uint16, proto uint8, dropped bool, pkts int64) {
	var d int64
	if dropped {
		d = pkts
	}
	p.add(eventID, cellKey(dstIP, dstPort, proto), pkts, d)
}

// Merge folds o's cells into p, summing colliding cells. Exact however
// the stream was split: cell sums are commutative. o must not be used
// afterwards: p adopts the tables of events only o holds, under the stamp
// they came with, so p copies such a table before its first write.
func (p *Pending) Merge(o *Pending) {
	// Every cell of o counts, less those that sum into a cell p holds.
	p.n += o.n
	p.tables.Merge(&o.tables, func(id int, _, ot *table) {
		dst := p.own(id)
		held := dst.n + ot.n
		dst.absorb(ot)
		p.n += dst.n - held
	})
}

// Snapshot returns an independent copy (Operator contract in
// internal/analysis). Only the event slots are copied: the tables stay
// shared until one side writes them (analysis.Cow), which for a closed
// event is never.
func (p *Pending) Snapshot() *Pending {
	return &Pending{tables: p.tables.Clone(nil), n: p.n, cow: p.cow.Fork()}
}

// CowCopies returns how many tables the store has copied on first write
// after a Snapshot or Merge.
func (p *Pending) CowCopies() int64 { return p.cow.Copies() }

// Len returns the number of tally cells retained.
func (p *Pending) Len() int { return p.n }

// Materialize filters the pending tallies through agg's top-port sets,
// producing the same per-event damage counters a dedicated second pass
// over the raw records would have. prefixes[id] is event id's blackholed
// prefix. Every cell of an event is addressed inside that prefix — the
// pipeline tallies a record under the event whose prefix covers its
// destination — so instead of visiting every cell, Materialize looks up
// each (server inside the prefix, top port) in the event's table. Cells
// of an ID that names no event count for nothing.
func (p *Pending) Materialize(agg *Aggregator, prefixes []bgp.Prefix) {
	p.tables.Each(func(id int, t *table) {
		if id >= len(prefixes) {
			return
		}
		for _, s := range agg.in(prefixes[id]) {
			for _, port := range s.ports {
				if c, ok := t.get(uint64(s.ip)<<32 | uint64(port)); ok {
					agg.add(id, c.all, c.dropped)
				}
			}
		}
	})
}

// Result is the Fig 18 outcome.
type Result struct {
	// Events is the number of RTBH events with collateral damage.
	Events int
	// AllPkts / DroppedPkts hold the per-event packet counts (sampled)
	// to server top ports, sorted ascending: the two Fig 18 curves.
	AllPkts     []int64
	DroppedPkts []int64
	// MaxAll is the worst per-event damage observed.
	MaxAll int64
}

// Result summarizes the accumulated damage.
func (a *Aggregator) Result() *Result {
	res := &Result{Events: a.perEvent.Len()}
	a.perEvent.Each(func(_ int, c *counts) {
		res.AllPkts = append(res.AllPkts, c.all)
		if c.dropped > 0 {
			res.DroppedPkts = append(res.DroppedPkts, c.dropped)
		}
		res.MaxAll = max(res.MaxAll, c.all)
	})
	slices.Sort(res.AllPkts)
	slices.Sort(res.DroppedPkts)
	return res
}
