// Package detect closes the measurement loop: a streaming DRDoS
// detector over the live flow path that originates RTBH announcements
// through the route server when a victim's inbound rate crosses an
// attack threshold, and withdraws them when the attack subsides
// (IXmon-style, Subramani et al. — see DESIGN.md, "Closed-loop
// detection").
//
// The state the detector accumulates is held in two sketches: Rate, a
// per-victim slot-bucketed packet counter, and Vectors, the same
// slotting keyed by (proto, source port) so a detection can name the
// amplification vectors behind it.
package detect

import (
	"math"
	"time"
)

// minSlot is the "no slots observed yet" sentinel for maxSlot.
const minSlot = math.MinInt64

// maxRetainSlots bounds the retention horizon in slots. The sketch
// stores each victim as a dense ring over the horizon, so the ratio of
// retention to slot width is a direct per-victim memory commitment; a
// pathological configuration (millisecond slots over a day) is rejected
// instead of silently demanding gigabytes.
const maxRetainSlots = 1 << 20

// denseSlots is the sparse→dense upgrade threshold: a victim holding
// more than this many distinct slots graduates from a small map to a
// ring over the whole horizon.
const denseSlots = 32

// victimRate is one victim's retained slots, in one of two
// representations. Scan and one-off traffic produces thousands of
// destinations that only ever see a handful of packets; those stay in a
// small sparse map. A victim with real traffic volume upgrades to a
// dense ring over the retention horizon: slot s lives in cell
// s mod retain, with ids recording which slot occupies each cell
// (minSlot when empty). Two live slots can never collide in the ring —
// they would be a full horizon apart — so a mismatched occupant is
// always dead and is simply discarded on overwrite. The flat
// pointer-free arrays make the per-record hot path two array indexings
// and cost the garbage collector nothing to scan.
type victimRate struct {
	slots   map[int64]int64 // packets per slot, sparse; nil once dense
	ids     []int64         // dense ring; nil while sparse
	cells   []int64         // packets per ring cell
	maxSlot int64           // newest slot ever observed for this victim
}

func newVictimRate() *victimRate {
	return &victimRate{slots: make(map[int64]int64, 4), maxSlot: minSlot}
}

// add folds pkts packets into slot s. n is the ring size (the sketch's
// retain) and h the current horizon, consulted when the victim crosses
// the dense threshold.
func (v *victimRate) add(s, pkts, n, h int64) {
	if s > v.maxSlot {
		v.maxSlot = s
	}
	if v.ids == nil {
		v.slots[s] += pkts
		if len(v.slots) > denseSlots {
			v.toDense(n, h)
		}
		return
	}
	i := ringIdx(s, n)
	if v.ids[i] != s {
		// The occupant (if any) is necessarily dead; discard it.
		v.ids[i] = s
		v.cells[i] = 0
	}
	v.cells[i] += pkts
}

// toDense rebuilds the victim as a ring, dropping dead slots.
func (v *victimRate) toDense(n, h int64) {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = minSlot
	}
	cells := make([]int64, n)
	for s, c := range v.slots {
		if s < h {
			continue
		}
		i := ringIdx(s, n)
		ids[i] = s // live slots cannot collide
		cells[i] = c
	}
	v.slots, v.ids, v.cells = nil, ids, cells
}

// cellPkts returns slot s's packets (zero when absent or, in dense
// form, when its ring cell holds another slot).
func (v *victimRate) cellPkts(s, n int64) int64 {
	if v.ids == nil {
		return v.slots[s]
	}
	i := ringIdx(s, n)
	if v.ids[i] != s {
		return 0
	}
	return v.cells[i]
}

// Rate is the per-victim sliding rate sketch. Flow timestamps are
// bucketed into fixed slots; only the most recent `retain` slots
// relative to the highest slot ever observed are live. Both eviction
// and every query are pure functions of (slot width, horizon,
// observation multiset), so observation order never changes what a
// query answers.
//
// The flow timeline at an IXP is far from monotone: day-long baseline
// batches put records up to ~24h ahead of the injection clock, so a
// window anchored at the newest timestamp would race past mid-day
// attacks. The horizon therefore retains comfortably more than a day
// (retention) and detection queries consider every retained
// window, not just the newest one.
type Rate struct {
	slot    time.Duration
	retain  int64 // live horizon, in slots
	maxSlot int64 // highest slot observed; minSlot when empty
	swept   int64 // maxSlot value at the last eviction sweep
	victims map[uint32]*victimRate
	evicted func(victim uint32) // called for each victim a sweep drops
}

// NewRate returns an empty sketch with the given slot width and
// retention horizon. Both must be positive; retention is rounded up to
// whole slots.
func NewRate(slot, retention time.Duration) *Rate {
	if slot <= 0 || retention < slot {
		panic("detect: rate sketch needs 0 < slot <= retention")
	}
	retain := int64((retention + slot - 1) / slot)
	if retain > maxRetainSlots {
		panic("detect: retention/slot ratio exceeds maxRetainSlots")
	}
	return &Rate{
		slot:    slot,
		retain:  retain,
		maxSlot: minSlot,
		swept:   minSlot,
		victims: make(map[uint32]*victimRate),
	}
}

// slotOf buckets a timestamp.
func (a *Rate) slotOf(t time.Time) int64 { return t.UnixNano() / int64(a.slot) }

// SlotEnd returns the end instant of slot s (exclusive upper bound of
// the bucket), the timestamp a detection at that slot carries.
func (a *Rate) SlotEnd(s int64) time.Time {
	return time.Unix(0, (s+1)*int64(a.slot))
}

// horizon returns the oldest live slot; slots strictly below it are
// dead. With nothing observed every slot is live.
func (a *Rate) horizon() int64 {
	if a.maxSlot == minSlot {
		return minSlot
	}
	return a.maxSlot - a.retain + 1
}

// Observe folds one sampled flow observation into the sketch.
func (a *Rate) Observe(victim uint32, t time.Time, pkts int64) {
	s := a.slotOf(t)
	if s > a.maxSlot {
		a.maxSlot = s
		// Amortized eviction: a full sweep only when the horizon has
		// moved a quarter of its span since the last one. Queries
		// filter dead slots themselves, so the sweep is purely a memory
		// bound.
		if a.swept == minSlot || a.maxSlot-a.swept >= a.retain/4+1 {
			a.sweep()
		}
	}
	if s < a.horizon() {
		return // dead on arrival: outside the retention horizon
	}
	v := a.victims[victim]
	if v == nil {
		v = newVictimRate()
		a.victims[victim] = v
	}
	v.add(s, pkts, a.retain, a.horizon())
}

// sweep drops victims whose newest slot has been dead for a whole extra
// horizon, bounding the victim map. The grace period matters: the flow
// timeline interleaves day-long batches, so a victim routinely looks
// dead for most of a day before its next batch lands — evicting eagerly
// would rebuild its ring (a fresh zeroed allocation) every day. Dead
// cells inside a surviving victim's ring need no eviction at all:
// queries ignore them and new slots overwrite them in place.
func (a *Rate) sweep() {
	a.swept = a.maxSlot
	if a.maxSlot == minSlot {
		return
	}
	cut := a.horizon() - a.retain
	for victim, v := range a.victims {
		if v.maxSlot < cut {
			delete(a.victims, victim)
			if a.evicted != nil {
				a.evicted(victim)
			}
		}
	}
}

// Victims returns how many victims currently hold retained state. The
// count may include victims whose every slot is dead: a victim's ring is
// kept through a grace period of one extra horizon so the interleaved
// day-batch timeline does not thrash ring allocations.
func (a *Rate) Victims() int { return len(a.victims) }

// WindowsAt visits exactly the window sums an observation in slot s can
// have changed: ends in [s, s+wslots), each summing live slots in
// (end-wslots, end]. It is the detector's per-record hot path — O(wslots)
// lookups with no allocation. A dead s (already behind the horizon)
// visits nothing.
func (a *Rate) WindowsAt(victim uint32, s, wslots int64, visit func(endSlot, pkts int64)) {
	if wslots <= 0 {
		return
	}
	v := a.victims[victim]
	if v == nil {
		return
	}
	h := a.horizon()
	if s < h {
		return
	}
	count := func(slot int64) int64 {
		if slot < h {
			return 0
		}
		return v.cellPkts(slot, a.retain)
	}
	var sum int64
	for x := s - wslots + 1; x <= s; x++ {
		sum += count(x)
	}
	visit(s, sum)
	for end := s + 1; end < s+wslots; end++ {
		sum += count(end) - count(end-wslots)
		visit(end, sum)
	}
}
