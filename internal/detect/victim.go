package detect

import (
	"math"
	"sort"
	"time"
)

// minSlot is the "no slot" sentinel: the id of an empty ring cell, the
// detector's maxSlot before its first record, and a victim's maxSlot
// while it holds no slots.
const minSlot = math.MinInt64

// Tally list limits: how many distinct ids a tally keeps in a plain list
// before it becomes a ring. Scan and one-off traffic produces thousands
// of destinations that only ever touch a slot or two, so the list keeps
// their footprint tiny.
const (
	rateList = 32 // slots of a victim's packet tally
	gateList = 4  // window-wide buckets of a victim's scan gate
)

// cell is one (id, packets) entry of a tally: a slot, a gate bucket or a
// vector key.
type cell struct{ id, pkts int64 }

// tally counts packets per id. Up to its limit it is a list, linear-
// scanned and never pruned. Past it, it is a ring of n cells where id
// lives in cell id mod n, and n is sized so that two live ids can never
// share a cell (they would be a full horizon apart): a mismatched
// occupant is always older and dead, and the newer id replaces it. Stale
// list entries and dead ring cells are read as they stand: the packet
// tally's window sums skip slots behind the horizon themselves, and the
// scan gate, an upper bound, tolerates overcounting. Flat pointer-free
// cells keep the per-record path to a few indexings and cost the garbage
// collector nothing to scan.
type tally struct {
	cells []cell
	ring  bool
}

// add folds pkts into id and returns its new count. limit is the list
// limit and n the ring size.
func (t *tally) add(id, pkts int64, limit int, n int64) int64 {
	if !t.ring {
		for i := range t.cells {
			if t.cells[i].id == id {
				t.cells[i].pkts += pkts
				return t.cells[i].pkts
			}
		}
		if len(t.cells) < limit {
			t.cells = append(t.cells, cell{id, pkts})
			return pkts
		}
		t.toRing(n)
	}
	c := &t.cells[ringIdx(id, n)]
	if c.id != id {
		*c = cell{id: id}
	}
	c.pkts += pkts
	return c.pkts
}

// get returns id's count, zero when untracked.
func (t *tally) get(id, n int64) int64 {
	if t.ring {
		if c := t.cells[ringIdx(id, n)]; c.id == id {
			return c.pkts
		}
		return 0
	}
	for _, c := range t.cells {
		if c.id == id {
			return c.pkts
		}
	}
	return 0
}

// toRing rebuilds the list as a ring of n cells, keeping the newer id
// where two collide.
func (t *tally) toRing(n int64) {
	ring := make([]cell, n)
	for i := range ring {
		ring[i].id = minSlot
	}
	for _, c := range t.cells {
		if r := &ring[ringIdx(c.id, n)]; c.id > r.id {
			*r = c
		}
	}
	t.cells, t.ring = ring, true
}

// ringIdx maps a (possibly negative) id onto a ring of n cells.
func ringIdx(id, n int64) int64 {
	i := id % n
	if i < 0 {
		i += n
	}
	return i
}

// victim is everything the detector keeps about one destination. Kept
// in one record because records arrive batch-grouped by destination: one
// map probe per record, and the record stays cache-resident across a
// batch's run of records.
type victim struct {
	// maxSlot is the newest slot observed for the victim; minSlot while
	// it holds no slots (a sweep released them).
	maxSlot int64
	// rate is packets per slot, a ring of retain cells.
	rate tally
	// gate is the scan gate: packets per wslots-wide bucket of slots, a
	// ring of retain/wslots+2 cells (the slack keeps two live buckets
	// apart).
	gate tally
	// vecs is packets per (proto, source port) key per slot, for the
	// records that passed the gate.
	vecs map[int64][]cell
	// hyst is nil until the victim first runs hot; a victim that has it
	// keeps its record for good.
	hyst *hysteresis
}

// hysteresis is one victim's mitigation state.
type hysteresis struct {
	det int // index into detections of the latest one; -1 before any
	// hotEnd is the end of the latest window at or above half the
	// threshold (flow time, monotone). Cooldown counts from here.
	hotEnd time.Time
	// clearedEnd consumes windows: after a withdrawal only windows
	// ending strictly later can re-trigger, so one attack's retained
	// samples cannot re-announce in a loop.
	clearedEnd time.Time
}

// slotOf buckets a timestamp.
func (d *Detector) slotOf(t time.Time) int64 { return t.UnixNano() / int64(d.slot) }

// slotEnd returns the end instant of slot s (exclusive upper bound of
// the bucket), the timestamp a detection at that slot carries.
func (d *Detector) slotEnd(s int64) time.Time { return time.Unix(0, (s+1)*int64(d.slot)) }

// horizon returns the oldest live slot; slots strictly below it are
// dead. With nothing observed every slot is live.
func (d *Detector) horizon() int64 {
	if d.maxSlot == minSlot {
		return minSlot
	}
	return d.maxSlot - d.retain + 1
}

// sweep bounds the victim map. A victim whose newest slot has been dead
// for a whole extra horizon releases its slots and gate, and without
// hysteresis its record goes entirely. The grace period matters: the
// flow timeline interleaves day-long batches, so a victim routinely
// looks dead for most of a day before its next batch lands, and
// releasing eagerly would rebuild its ring every day. Dead cells inside
// a kept ring need no eviction: window sums skip them and new slots
// overwrite them in place. Vector slots behind the horizon are pruned.
func (d *Detector) sweep() {
	d.swept = d.maxSlot
	h := d.horizon()
	for id, v := range d.victims {
		if v.maxSlot < h-d.retain {
			if v.hyst == nil {
				delete(d.victims, id)
				continue
			}
			v.maxSlot, v.rate, v.gate = minSlot, tally{}, tally{}
		}
		for s := range v.vecs {
			if s < h {
				delete(v.vecs, s)
			}
		}
	}
}

// windowsAt visits exactly the window sums an observation in slot s can
// have changed: ends in [s, s+wslots), each summing v's live slots in
// (end-wslots, end]. It is the detector's per-record hot path, O(wslots)
// lookups with no allocation. A dead s visits nothing.
func (d *Detector) windowsAt(v *victim, s int64, visit func(end, pkts int64)) {
	h := d.horizon()
	if s < h {
		return
	}
	count := func(slot int64) int64 {
		if slot < h {
			return 0
		}
		return v.rate.get(slot, d.retain)
	}
	var sum int64
	for x := s - d.wslots + 1; x <= s; x++ {
		sum += count(x)
	}
	visit(s, sum)
	for end := s + 1; end < s+d.wslots; end++ {
		sum += count(end) - count(end-d.wslots)
		visit(end, sum)
	}
}

// vectorKey packs (IP protocol, UDP/TCP source port) into one key. For
// DRDoS the source port names the amplification service (123 NTP, 389
// CLDAP, 11211 memcached, ...), which is exactly how the paper and IXmon
// label attack vectors.
type vectorKey uint32

func makeVectorKey(proto uint8, srcPort uint16) vectorKey {
	return vectorKey(uint32(proto)<<16 | uint32(srcPort))
}

func (k vectorKey) proto() uint8    { return uint8(k >> 16) }
func (k vectorKey) srcPort() uint16 { return uint16(k) }

// addCell folds pkts into id's cell of an unordered list, appending one
// when absent. Most slots see a handful of distinct vectors, so a list
// keeps the per-record path allocation-free after the first append.
func addCell(cells []cell, id, pkts int64) []cell {
	for i := range cells {
		if cells[i].id == id {
			cells[i].pkts += pkts
			return cells
		}
	}
	return append(cells, cell{id, pkts})
}

// Vector is one (proto, source port) share of a detection's window.
type Vector struct {
	Proto   uint8  `json:"proto"`
	SrcPort uint16 `json:"src_port"`
	Pkts    int64  `json:"pkts"`
}

// topVectors sums v's vector cells over the live slots of the window
// ending at end, the slots its window sum counts, and returns the n
// heaviest by packets descending, then key, so the result is
// deterministic.
func (d *Detector) topVectors(v *victim, end int64, n int) []Vector {
	var agg []cell
	for s := max(end-d.wslots+1, d.horizon()); s <= end; s++ {
		for _, c := range v.vecs[s] {
			agg = addCell(agg, c.id, c.pkts)
		}
	}
	if len(agg) == 0 {
		return nil
	}
	out := make([]Vector, len(agg))
	for i, c := range agg {
		k := vectorKey(c.id)
		out[i] = Vector{Proto: k.proto(), SrcPort: k.srcPort(), Pkts: c.pkts}
	}
	sortVectors(out)
	return out[:min(n, len(out))]
}

func sortVectors(s []Vector) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Pkts != s[j].Pkts {
			return s[i].Pkts > s[j].Pkts
		}
		return makeVectorKey(s[i].Proto, s[i].SrcPort) < makeVectorKey(s[j].Proto, s[j].SrcPort)
	})
}
