package collateral

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/cowtest"
	"repro/internal/analysis/hosts"
	"repro/internal/bgp"
	"repro/internal/stats"
)

// mapPending is the reference model for Pending: the two-level map of
// pointer cells — event ID, then dstIP<<32|proto<<16|port — the store
// used before the per-event open-addressed tables, with the v1 encoder it
// had.
type mapPending struct {
	cells map[int]map[uint64]*counts
	n     int
}

func newMapPending() *mapPending {
	return &mapPending{cells: make(map[int]map[uint64]*counts)}
}

func (p *mapPending) add(eventID int, dstIP uint32, dstPort uint16, proto uint8, dropped bool, pkts int64) {
	inner := p.cells[eventID]
	if inner == nil {
		inner = make(map[uint64]*counts)
		p.cells[eventID] = inner
	}
	key := cellKey(dstIP, dstPort, proto)
	c := inner[key]
	if c == nil {
		c = &counts{}
		inner[key] = c
		p.n++
	}
	c.all += pkts
	if dropped {
		c.dropped += pkts
	}
}

func (p *mapPending) merge(o *mapPending) {
	for id, oinner := range o.cells {
		inner := p.cells[id]
		if inner == nil {
			p.cells[id] = oinner
			p.n += len(oinner)
			continue
		}
		for k, oc := range oinner {
			c := inner[k]
			if c == nil {
				inner[k] = oc
				p.n++
				continue
			}
			c.all += oc.all
			c.dropped += oc.dropped
		}
	}
}

func (p *mapPending) snapshot() *mapPending {
	s := newMapPending()
	s.n = p.n
	for id, inner := range p.cells {
		si := make(map[uint64]*counts, len(inner))
		for k, c := range inner {
			cp := *c
			si[k] = &cp
		}
		s.cells[id] = si
	}
	return s
}

func (p *mapPending) materialize(agg *Aggregator) {
	for id, inner := range p.cells {
		for k, c := range inner {
			agg.addCounts(id, uint32(k>>32), uint32(k&0xffffffff), c.all, c.dropped)
		}
	}
}

// addCounts folds one (event, dstIP, proto<<16|port) cell into a when
// dstIP is a detected server and the port one of its top ports: the
// per-cell filter of the scan reference.
func (a *Aggregator) addCounts(eventID int, dstIP uint32, portKey uint32, all, dropped int64) {
	i, ok := slices.BinarySearchFunc(a.servers, dstIP, func(s server, ip uint32) int { return cmp.Compare(s.ip, ip) })
	if !ok || !slices.Contains(a.servers[i].ports, portKey) {
		return
	}
	a.add(eventID, all, dropped)
}

// scan is the reference model for Materialize: every cell of every table
// visited and filtered through addCounts, as Materialize did before it
// probed per event prefix.
func scan(p *Pending, agg *Aggregator) {
	p.tables.Each(func(id int, t *table) {
		t.each(func(key uint64, c counts) { agg.addCounts(id, uint32(key>>32), uint32(key), c.all, c.dropped) })
	})
}

// everywhere is a prefix list naming events 0..n-1 with 0.0.0.0/0 as
// their prefix: every server is inside, so Materialize probes for each of
// them and matches the scan whatever addresses the cells hold.
func everywhere(n int) []bgp.Prefix { return make([]bgp.Prefix, n) }

// testEvents bounds the event IDs these tests use: everywhere(testEvents)
// names them all, and the decodes run under it.
const testEvents = 128

func (p *mapPending) marshal() []byte {
	w := analysis.NewWireWriter()
	w.Byte(pendingWireVersion)
	ids := make([]int, 0, len(p.cells))
	for id := range p.cells {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.Uvarint(uint64(p.n))
	for _, id := range ids {
		cells := p.cells[id]
		inner := make([]uint64, 0, len(cells))
		for k := range cells {
			inner = append(inner, k)
		}
		sort.Slice(inner, func(i, j int) bool { return inner[i] < inner[j] })
		for _, k := range inner {
			c := cells[k]
			w.Uvarint(uint64(id))
			w.Uvarint(uint64(uint32(k >> 32)))
			w.Uvarint(uint64(uint32(k & 0xffffffff)))
			w.Varint(c.all)
			w.Varint(c.dropped)
		}
	}
	return w.Bytes()
}

func (p *mapPending) remapEvents(m map[int]int) {
	out := make(map[int]map[uint64]*counts, len(p.cells))
	for id, inner := range p.cells {
		out[m[id]] = inner
	}
	p.cells = out
}

// pendingPair drives a Pending and its reference through the same calls.
type pendingPair struct {
	got  *Pending
	want *mapPending
}

func newPendingPair() pendingPair { return pendingPair{NewPending(), newMapPending()} }

func (pp pendingPair) add(id int, ip uint32, port uint16, proto uint8, dropped bool, pkts int64) {
	pp.got.Add(id, ip, port, proto, dropped, pkts)
	pp.want.add(id, ip, port, proto, dropped, pkts)
}

// mustMatch compares everything a Pending can be asked: its cell count,
// what it materializes into an aggregator whose servers own the hot
// cells, and its encoding, byte for byte.
func (pp pendingPair) mustMatch(t *testing.T, label string, profiles []hosts.Profile) {
	t.Helper()
	if pp.got.Len() != pp.want.n {
		t.Fatalf("%s: Len = %d, reference %d", label, pp.got.Len(), pp.want.n)
	}
	gotAgg, wantAgg := New(profiles), New(profiles)
	pp.got.Materialize(gotAgg, everywhere(testEvents))
	pp.want.materialize(wantAgg)
	if !reflect.DeepEqual(gotAgg.perEvent, wantAgg.perEvent) {
		t.Fatalf("%s: Materialize diverges from the reference", label)
	}
	enc, err := pp.got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, pp.want.marshal()) {
		t.Fatalf("%s: MarshalBinary diverges from the reference encoding", label)
	}
	// The encoding round-trips into an equal store.
	var back Pending
	if err := back.UnmarshalEvents(enc, testEvents); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if again, _ := back.MarshalBinary(); !bytes.Equal(again, enc) || back.Len() != pp.got.Len() {
		t.Fatalf("%s: decode/encode is not a fixed point", label)
	}
}

// TestPendingMatchesMapReference runs seeded random Add / Merge /
// Snapshot / RemapEvents sequences against the two-level map. The key
// population includes the two keys a sentinel could steal — all-ones
// (255.255.255.255, proto 255, port 65535) and zero — one event grows
// through several doublings of its table, and packet counts of 0..19
// move some cells past the count byte into spill.
func TestPendingMatchesMapReference(t *testing.T) {
	type hot struct {
		ip    uint32
		port  uint16
		proto uint8
	}
	hots := []hot{
		{0xffffffff, 0xffff, 0xff},
		{0, 0, 0},
		{0xcb007105, 443, 6},
		{0xcb007105, 53, 17},
		{0xc6336407, 80, 6},
	}
	// One profile per address, as host profiling produces them.
	var profiles []hosts.Profile
	for _, h := range hots {
		key := uint32(h.proto)<<16 | uint32(h.port)
		if n := len(profiles); n > 0 && profiles[n-1].IP == h.ip {
			profiles[n-1].TopPorts = append(profiles[n-1].TopPorts, key)
			continue
		}
		profiles = append(profiles, hosts.Profile{IP: h.ip, Kind: hosts.KindServer, TopPorts: []uint32{key}})
	}

	for seed := uint64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := stats.NewRNG(seed)
			fill := func(pp pendingPair, n, events int) {
				for i := 0; i < n; i++ {
					id := r.Intn(events)
					if r.Bool(0.5) {
						id = events - 1 // one event takes half: its table doubles repeatedly
					}
					pkts, dropped := int64(r.Intn(20)), r.Bool(0.6)
					if r.Bool(0.2) {
						h := hots[r.Intn(len(hots))]
						pp.add(id, h.ip, h.port, h.proto, dropped, pkts)
					} else {
						pp.add(id, uint32(r.Uint64()), uint16(r.Intn(1<<16)), uint8(r.Intn(256)), dropped, pkts)
					}
				}
			}

			a := newPendingPair()
			a.mustMatch(t, "empty", profiles)
			fill(a, 3000, 12)
			a.mustMatch(t, "filled", profiles)
			if biggest := a.got.tables.Get(11); len(biggest.slots) < 16*minTableSlots {
				t.Fatalf("largest table has %d slots; growth was not exercised", len(biggest.slots))
			}
			if n := spilledCells(a.got); n == 0 {
				t.Fatal("no cell spilled; counts past the count byte were not exercised")
			}

			// A snapshot stays what it was while the original keeps adding.
			snap := pendingPair{a.got.Snapshot(), a.want.snapshot()}
			frozen, _ := snap.got.MarshalBinary()
			fill(a, 2000, 12)
			a.mustMatch(t, "after snapshot", profiles)
			snap.mustMatch(t, "snapshot", profiles)
			if now, _ := snap.got.MarshalBinary(); !bytes.Equal(now, frozen) {
				t.Fatal("snapshot changed while the original kept adding")
			}

			// Merge: events on one side only are adopted, shared ones summed;
			// the merged store keeps taking records afterwards.
			b := newPendingPair()
			fill(b, 1500, 20)
			a.got.Merge(b.got)
			a.want.merge(b.want)
			a.mustMatch(t, "merged", profiles)
			fill(a, 500, 20)
			a.mustMatch(t, "merged, then added", profiles)

			// Remap renames the events by a permutation into a new range. A
			// map that sends several events to one ID, or leaves one
			// unmapped, is rejected and leaves the store as it was.
			m, folding := make(map[int]int), make(map[int]int)
			for id := 0; id < 20; id++ {
				m[id] = 100 + (id*7+int(seed))%20
				folding[id] = 100 + id/3
			}
			for label, bad := range map[string]map[int]int{"folding": folding, "empty": {}} {
				if err := a.got.RemapEvents(bad); err == nil {
					t.Fatalf("RemapEvents accepted the %s map", label)
				}
				a.mustMatch(t, "rejected "+label+" remap", profiles)
			}
			if err := a.got.RemapEvents(m); err != nil {
				t.Fatal(err)
			}
			a.want.remapEvents(m)
			a.mustMatch(t, "remapped", profiles)
			fill(a, 500, 7)
			a.mustMatch(t, "remapped, then added", profiles)
		})
	}
}

// spilledCells counts the cells of p whose counts live in spill.
func spilledCells(p *Pending) int {
	n := 0
	p.tables.Each(func(_ int, t *table) { n += len(t.spill) })
	return n
}

// TestPendingWireRoundTripPastInline holds the cells the count byte
// cannot carry to the reference and through the wire codec: counts at and
// just past the inline bound (all 14 / 15, dropped 15 / 16), large and
// negative counts (which only a decoded state holds), a dropped count
// above its cell's total, and the zero key; each is summed into again
// afterwards.
func TestPendingWireRoundTripPastInline(t *testing.T) {
	pp := newPendingPair()
	set := func(id int, ip uint32, port uint16, all, dropped int64) {
		proto := uint8(6)
		if ip == 0 {
			proto = 0 // 0.0.0.0, proto 0, port 0: the zero key
		}
		pp.got.add(id, cellKey(ip, port, proto), all, dropped)
		pp.want.add(id, ip, port, proto, false, 0)
		c := pp.want.cells[id][cellKey(ip, port, proto)]
		c.all, c.dropped = c.all+all, c.dropped+dropped
	}
	set(0, 1, 1, 14, 14)
	set(0, 1, 2, 15, 0)
	set(0, 1, 3, 2, 15)
	set(0, 1, 4, 2, 16)
	set(0, 1, 5, 1<<40, 1<<39)
	set(0, 1, 6, math.MaxInt64, math.MinInt64)
	set(1, 1, 1, -1, 0)
	set(1, 1, 2, -3, -3)
	set(1, 0, 0, 20, 20)
	pp.mustMatch(t, "past inline", nil)
	if spilledCells(pp.got) != 7 {
		t.Fatalf("%d cells spilled, want 7", spilledCells(pp.got))
	}
	// Spilled cells keep summing; one falls back to inline-sized counts.
	set(0, 1, 2, -15, 0)
	set(1, 1, 2, 3, 3)
	set(1, 0, 0, 1, 0)
	set(0, 1, 1, 1, 0)
	pp.mustMatch(t, "summed again", nil)

	// A decoded store holds the same cells and sums into them alike.
	enc, _ := pp.got.MarshalBinary()
	var back Pending
	if err := back.UnmarshalEvents(enc, testEvents); err != nil {
		t.Fatal(err)
	}
	pp.got = &back
	set(0, 1, 5, 1, 1)
	set(1, 1, 1, 1, 0)
	pp.mustMatch(t, "decoded, then summed", nil)
}

// TestPendingSnapshotKeepsSpilledCell writes a spilled cell on both sides
// of a snapshot: neither side may see the other's sums, though the spill
// map existed before the snapshot on both.
func TestPendingSnapshotKeepsSpilledCell(t *testing.T) {
	p := NewPending()
	p.Add(3, 0x0a000001, 443, 6, true, 40)
	p.Add(3, 0x0a000002, 53, 17, false, 1)
	snap := p.Snapshot()
	frozen, _ := snap.MarshalBinary()
	p.Add(3, 0x0a000001, 443, 6, true, 2)
	p.Add(3, 0x0a000003, 80, 6, false, 30)
	if now, _ := snap.MarshalBinary(); !bytes.Equal(now, frozen) {
		t.Fatal("snapshot changed while the original summed into its spilled cell")
	}
	if c, _ := p.tables.Get(3).get(cellKey(0x0a000001, 443, 6)); c != (counts{42, 42}) {
		t.Fatalf("original's spilled cell = %+v, want {42 42}", c)
	}
	before, _ := p.MarshalBinary()
	snap.Add(3, 0x0a000001, 443, 6, false, 7)
	if now, _ := p.MarshalBinary(); !bytes.Equal(now, before) {
		t.Fatal("original changed while the snapshot summed into its spilled cell")
	}
	if c, _ := snap.tables.Get(3).get(cellKey(0x0a000001, 443, 6)); c != (counts{47, 40}) {
		t.Fatalf("snapshot's spilled cell = %+v, want {47 40}", c)
	}
}

// deepSnapshot is the reference model for Pending.Snapshot: the copy of
// each event's slots and spill map that Snapshot made before tables
// became shared between a store and its snapshots.
func deepSnapshot(p *Pending) *Pending {
	s := NewPending()
	s.n = p.n
	p.tables.Each(func(id int, t *table) {
		cp := *t
		cp.owner, cp.slots, cp.spill = s.cow.Stamp(), slices.Clone(t.slots), maps.Clone(t.spill)
		s.tables.Put(id, &cp)
	})
	return s
}

// TestPendingSnapshotMatchesDeepCopy drives the store and the deep-copy
// reference through the same random Add / Snapshot / Merge /
// UnmarshalEvents / RemapEvents sequences (cowtest.Run). Six events, one
// taking half of the cells so that its table keeps doubling while shared;
// the remaps permute the event IDs, by rotation or by reflection, so
// tables move under new keys, shared or not, and are written afterwards.
func TestPendingSnapshotMatchesDeepCopy(t *testing.T) {
	const events = 6
	remap := func(p *Pending, x uint64) {
		m := make(map[int]int, events)
		for id := 0; id < events; id++ {
			if x&1 == 0 {
				m[id] = (id + int(x>>1%events)) % events
			} else {
				m[id] = (int(x>>1%events) - id + events) % events
			}
		}
		if err := p.RemapEvents(m); err != nil {
			panic(err)
		}
	}
	c := cowtest.Case[*Pending]{
		New:  NewPending,
		Deep: deepSnapshot,
		Add: func(p *Pending, x uint64) {
			id := events - 1
			if x&1 == 0 {
				id = int(x >> 1 % events)
			}
			ip := uint32(x >> 8 % 16)
			if x>>4&3 == 0 {
				ip = uint32(x >> 8) // a new cell nearly every time
			}
			p.Add(id, ip, uint16(x>>40%4), uint8(x>>42%2), x>>5&1 == 0, int64(x>>44%20))
		},
		Rewrites: []func(*Pending, uint64){remap},
		Decode:   func(p *Pending, data []byte) error { return p.UnmarshalEvents(data, events) },
		Copies:   (*Pending).CowCopies,
	}
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { cowtest.Run(t, seed, 250, c) })
	}
}

// TestMaterializeMatchesScan pins the per-prefix probe to the full scan
// on random tables whose cells lie inside their event's prefix, as the
// pipeline's are. Every prefix length from /0 to /32 occurs; servers sit
// on the first and last address of prefixes and just outside them; one
// server at 0.0.0.0 has the zero port key, so the zero-key cell is hit;
// clients and servers without top ports never count; and the cells of
// an ID past the prefix list count for nothing.
func TestMaterializeMatchesScan(t *testing.T) {
	var hits, zeroHits int
	for seed := uint64(1); seed <= 12; seed++ {
		r := stats.NewRNG(seed)
		prefixes := []bgp.Prefix{
			bgp.MakePrefix(0, 0),
			bgp.MakePrefix(0, 8),
			bgp.MakePrefix(0xffffffff, 32),
		}
		for l := 0; l <= 32; l++ {
			prefixes = append(prefixes, bgp.MakePrefix(uint32(r.Uint64()), uint8(l)))
		}
		last := func(p bgp.Prefix) uint32 { return p.Addr | ^p.Mask() }

		// Servers on and around every prefix's edges, and inside it.
		ips := map[uint32]bool{0: true}
		for _, p := range prefixes[1:] {
			lo, hi := p.Addr, last(p)
			ips[lo], ips[hi], ips[lo-1], ips[hi+1] = true, true, true, true
			ips[lo+uint32(r.Uint64()%(uint64(hi-lo)+1))] = true
		}
		ports := []uint32{0, 6<<16 | 80, 6<<16 | 443, 17<<16 | 53}
		var profiles []hosts.Profile
		for ip := range ips {
			p := hosts.Profile{IP: ip, Kind: hosts.KindServer}
			if ip == 0 {
				p.TopPorts = []uint32{0, 6<<16 | 443}
			} else {
				for _, k := range ports {
					if r.Bool(0.4) {
						p.TopPorts = append(p.TopPorts, k)
					}
				}
			}
			if ip != 0 && r.Bool(0.15) {
				p.Kind = hosts.KindClient
			}
			profiles = append(profiles, p)
		}
		slices.SortFunc(profiles, func(x, y hosts.Profile) int { return cmp.Compare(x.IP, y.IP) })

		// Cells inside each event's prefix: on its servers' top ports, on
		// other ports, and toward addresses that are no server.
		p := NewPending()
		addr := make([]uint32, 0, len(profiles))
		for id, pfx := range prefixes {
			addr = addr[:0]
			for _, pr := range profiles {
				if pfx.Contains(pr.IP) {
					addr = append(addr, pr.IP)
				}
			}
			for n := r.Intn(60); n > 0; n-- {
				ip := pfx.Addr | uint32(r.Uint64())&^pfx.Mask()
				if len(addr) > 0 && r.Bool(0.7) {
					ip = addr[r.Intn(len(addr))]
				}
				k := ports[r.Intn(len(ports))]
				if r.Bool(0.2) {
					k = uint32(r.Intn(1 << 24))
				}
				p.Add(id, ip, uint16(k), uint8(k>>16), r.Bool(0.5), int64(r.Intn(9)))
			}
		}
		p.Add(1, 0, 0, 0, true, 3) // the zero key: 0.0.0.0, proto 0, port 0

		want := New(profiles)
		scan(p, want)
		// An ID that names no event: its cells would match, but count for
		// nothing.
		for _, pr := range profiles {
			if len(pr.TopPorts) > 0 {
				p.Add(len(prefixes)+2, pr.IP, uint16(pr.TopPorts[0]), uint8(pr.TopPorts[0]>>16), true, 5)
			}
		}
		got := New(profiles)
		p.Materialize(got, prefixes)
		if !reflect.DeepEqual(got.perEvent, want.perEvent) {
			t.Fatalf("seed %d: probe and scan disagree:\nprobe %v\nscan  %v", seed, got.Result(), want.Result())
		}
		hits += want.perEvent.Len()
		if want.perEvent.Get(1) != nil && got.perEvent.Get(1).all >= 3 {
			zeroHits++
		}
	}
	if hits < 100 || zeroHits < 12 {
		t.Fatalf("fixture too thin: %d events with damage, zero key counted in %d seeds", hits, zeroHits)
	}
}
