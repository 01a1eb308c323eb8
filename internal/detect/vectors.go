package detect

import (
	"sort"
	"time"
)

// vectorKey packs (IP protocol, UDP/TCP source port) into one map key.
// For DRDoS the source port names the amplification service (123 NTP,
// 389 CLDAP, 11211 memcached, ...), which is exactly how the paper and
// IXmon label attack vectors.
type vectorKey uint32

func makeVectorKey(proto uint8, srcPort uint16) vectorKey {
	return vectorKey(uint32(proto)<<16 | uint32(srcPort))
}

func (k vectorKey) proto() uint8    { return uint8(k >> 16) }
func (k vectorKey) srcPort() uint16 { return uint16(k) }

// vcell is one (vector key, tally) pair within a slot. Slots hold a
// small unordered slice of these rather than a map: most slots see a
// handful of distinct vectors, and the slice keeps the per-record hot
// path allocation-free after the first append (a fresh map per
// (victim, slot) pair dominated the ingest profile).
type vcell struct {
	key  vectorKey
	pkts int64
}

// addVec folds pkts into the cell slice, merging with an existing key.
func addVec(cells []vcell, key vectorKey, pkts int64) []vcell {
	for i := range cells {
		if cells[i].key == key {
			cells[i].pkts += pkts
			return cells
		}
	}
	return append(cells, vcell{key: key, pkts: pkts})
}

// victimVectors is one victim's retained per-slot vector tallies.
type victimVectors struct {
	slots map[int64][]vcell
}

// Vectors is the companion sketch to Rate: the same slot bucketing and
// retention horizon, keyed by (proto, source port) instead of a plain
// tally, so a detection can report which services reflected the attack.
// As with Rate, eviction and queries depend only on the construction
// geometry and the observation multiset, never on arrival order.
type Vectors struct {
	slot    time.Duration
	retain  int64
	maxSlot int64
	swept   int64
	victims map[uint32]*victimVectors
}

// NewVectors returns an empty vector sketch; geometry as in NewRate.
func NewVectors(slot, retention time.Duration) *Vectors {
	if slot <= 0 || retention < slot {
		panic("detect: vector sketch needs 0 < slot <= retention")
	}
	return &Vectors{
		slot:    slot,
		retain:  int64((retention + slot - 1) / slot),
		maxSlot: minSlot,
		swept:   minSlot,
		victims: make(map[uint32]*victimVectors),
	}
}

func (a *Vectors) slotOf(t time.Time) int64 { return t.UnixNano() / int64(a.slot) }

func (a *Vectors) horizon() int64 {
	if a.maxSlot == minSlot {
		return minSlot
	}
	return a.maxSlot - a.retain + 1
}

// Observe folds one sampled flow observation into the sketch.
func (a *Vectors) Observe(victim uint32, t time.Time, proto uint8, srcPort uint16, pkts int64) {
	s := a.slotOf(t)
	if s > a.maxSlot {
		a.maxSlot = s
		if a.swept == minSlot || a.maxSlot-a.swept >= a.retain/4+1 {
			a.sweep()
		}
	}
	if s < a.horizon() {
		return
	}
	v := a.victims[victim]
	if v == nil {
		v = &victimVectors{slots: make(map[int64][]vcell)}
		a.victims[victim] = v
	}
	key := makeVectorKey(proto, srcPort)
	cells := v.slots[s]
	grown := addVec(cells, key, pkts)
	// Store back only when the backing array moved; in-place increments
	// (the common case) need no map write.
	if len(grown) != len(cells) {
		v.slots[s] = grown
	}
}

func (a *Vectors) sweep() {
	h := a.horizon()
	for victim, v := range a.victims {
		for s := range v.slots {
			if s < h {
				delete(v.slots, s)
			}
		}
		if len(v.slots) == 0 {
			delete(a.victims, victim)
		}
	}
	a.swept = a.maxSlot
}

// Vector is one (proto, source port) share of a detection's window.
type Vector struct {
	Proto   uint8  `json:"proto"`
	SrcPort uint16 `json:"src_port"`
	Pkts    int64  `json:"pkts"`
}

// Top aggregates the victim's live slots over (endSlot-wslots, endSlot]
// and returns the n heaviest vectors, ordered by packets descending,
// then key, so the result is deterministic.
func (a *Vectors) Top(victim uint32, endSlot, wslots int64, n int) []Vector {
	v := a.victims[victim]
	if v == nil || n <= 0 {
		return nil
	}
	h := a.horizon()
	agg := make(map[vectorKey]int64)
	for s, cells := range v.slots {
		if s < h || s <= endSlot-wslots || s > endSlot {
			continue
		}
		for _, c := range cells {
			agg[c.key] += c.pkts
		}
	}
	if len(agg) == 0 {
		return nil
	}
	out := make([]Vector, 0, len(agg))
	for k, pkts := range agg {
		out = append(out, Vector{Proto: k.proto(), SrcPort: k.srcPort(), Pkts: pkts})
	}
	sortVectors(out)
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func sortVectors(s []Vector) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Pkts != s[j].Pkts {
			return s[i].Pkts > s[j].Pkts
		}
		return makeVectorKey(s[i].Proto, s[i].SrcPort) < makeVectorKey(s[j].Proto, s[j].SrcPort)
	})
}
