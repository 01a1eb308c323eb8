package analysis

import (
	"math"
	"math/bits"
	"slices"
)

// BoundedSet counts distinct uint64 keys exactly up to its capacity and
// saturates beyond it. The streaming aggregators track per-slot feature
// cardinalities (unique sources, ports, flows) whose anomaly signal lives
// entirely in the low range — a saturated counter is already far above any
// detection threshold — so a small exact set beats a probabilistic sketch
// here: zero error where it matters, tiny fixed memory where it doesn't.
//
// The zero value is ready to use with DefaultBoundedCap capacity.
//
// Add scans the keys linearly while a set is small. Once it holds
// indexFrom keys it also keeps an open-addressed index of their positions
// (keyIndex), which the set owns alone: Clone does not carry it, saturation
// and DecodeWire drop it, and the first Add that needs it rebuilds it.
type BoundedSet struct {
	keys      []uint64
	idx       *keyIndex
	saturated uint32
	cap       uint32
}

// DefaultBoundedCap is the capacity used by the zero value.
const DefaultBoundedCap = 32

// indexFrom is how many keys a set holds before Add stops scanning them.
const indexFrom = 16

// NewBoundedSet returns a set with the given capacity (minimum 1).
func NewBoundedSet(capacity int) *BoundedSet {
	capacity = max(capacity, 1)
	return &BoundedSet{cap: uint32(capacity)}
}

// Add inserts key. Once the capacity is exceeded, every further Add
// counts as distinct (an overestimate that only occurs far above any
// detection threshold).
func (s *BoundedSet) Add(key uint64) {
	if s.cap == 0 {
		s.cap = DefaultBoundedCap
	}
	if s.saturated > 0 {
		s.saturated++
		return
	}
	if s.idx == nil && len(s.keys) >= indexFrom && s.cap < math.MaxUint16 && len(s.keys) <= int(s.cap) {
		s.idx = new(keyIndex)
		s.idx.build(s.keys)
	}
	slot, found := 0, false
	if s.idx != nil {
		slot, found = s.idx.find(s.keys, key)
	} else {
		found = slices.Contains(s.keys, key)
	}
	if found {
		return
	}
	if len(s.keys) >= int(s.cap) {
		s.saturated = 1
		s.idx = nil
		return
	}
	if n := len(s.keys); n == cap(s.keys) && n >= indexFrom {
		// A large set grows by half, not by append's doubling, and never
		// past its capacity: the large sets hold most of the keys.
		s.keys = append(make([]uint64, 0, min(int(s.cap), n+n/2)), s.keys...)
	}
	s.keys = append(s.keys, key)
	if s.idx != nil {
		s.idx.slots[slot] = uint16(len(s.keys))
		if 4*len(s.keys) > 3*len(s.idx.slots) {
			s.idx.build(s.keys)
		}
	}
}

// keyIndex maps a key to its position in a BoundedSet's keys: an
// open-addressed, linearly probed table of 1-based positions (0 is an
// empty slot), a power of two in size and at most three quarters full. A
// set indexes only while its capacity fits the 16-bit positions.
type keyIndex struct{ slots []uint16 }

// build re-indexes keys (distinct, as a set's are) in the smallest table
// they fill to at most three quarters.
func (x *keyIndex) build(keys []uint64) {
	n := 1
	for 3*n < 4*len(keys) {
		n <<= 1
	}
	x.slots = make([]uint16, n)
	for p, k := range keys {
		i, _ := x.find(keys[:p], k)
		x.slots[i] = uint16(p + 1)
	}
}

// find returns key's slot and true when keys holds it, or the empty slot
// where it would go and false.
func (x *keyIndex) find(keys []uint64, key uint64) (int, bool) {
	mask := len(x.slots) - 1
	i := int(key * 0x9e3779b97f4a7c15 >> (64 - bits.TrailingZeros(uint(len(x.slots)))))
	for ; ; i = (i + 1) & mask {
		p := x.slots[i]
		if p == 0 {
			return i, false
		}
		if keys[p-1] == key {
			return i, true
		}
	}
}

// Count returns the (possibly saturated) distinct count.
func (s *BoundedSet) Count() int { return len(s.keys) + int(s.saturated) }

// Merge folds o into s: o's recorded keys are replayed as Adds and o's
// saturated tail carries over. The result is exact whenever neither set
// saturated and the union fits the capacity; beyond that it inherits
// Add's saturation overestimate.
func (s *BoundedSet) Merge(o *BoundedSet) {
	for _, k := range o.keys {
		s.Add(k)
	}
	s.saturated += o.saturated
	if s.saturated > 0 {
		s.idx = nil
	}
}

// Exact reports whether the count is exact (the set never saturated).
func (s *BoundedSet) Exact() bool { return s.saturated == 0 }

// Clone returns an independent copy of the set: further Adds on either
// side do not affect the other. The key array is shared, not copied — the
// set is append-only (no key is ever rewritten or removed), and the copy's
// capacity is cut to its length, so its next append reallocates while the
// original's lands past everything the copy can see. That makes copying a
// sub-aggregate on its first write after a snapshot (see Cow) cost a few
// words per set. The copy starts without an index.
func (s *BoundedSet) Clone() BoundedSet {
	return BoundedSet{
		keys:      s.keys[:len(s.keys):len(s.keys)],
		saturated: s.saturated,
		cap:       s.cap,
	}
}

// Hash64 mixes up to four 16-bit fields and two 32-bit fields into a
// 64-bit key for BoundedSet (a splitmix-style finalizer).
func Hash64(a, b uint32, c, d uint16, e uint8) uint64 {
	x := uint64(a)<<32 | uint64(b)
	x ^= uint64(c)<<16 | uint64(d)<<32 | uint64(e)<<48
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// TopCounter tracks per-key packet counts for a bounded number of keys,
// used for daily top-port detection. When full, unseen keys are dropped —
// acceptable because the top port accumulates counts from the first
// samples of the day onward and host-level port diversity within a single
// day is small for exactly the stable hosts the detection is after.
type TopCounter struct {
	keys   []uint32
	counts []uint64
	cap    int
}

// NewTopCounter returns a counter holding at most capacity keys.
func NewTopCounter(capacity int) *TopCounter {
	if capacity < 1 {
		capacity = 1
	}
	return &TopCounter{cap: capacity}
}

// Add accumulates n into key's count.
func (c *TopCounter) Add(key uint32, n uint64) {
	for i, k := range c.keys {
		if k == key {
			c.counts[i] += n
			return
		}
	}
	if len(c.keys) < c.cap {
		c.keys = append(c.keys, key)
		c.counts = append(c.counts, n)
	}
}

// Merge folds o's counts into c, replaying them as Adds. Exact whenever
// the union of keys fits the capacity; beyond that it inherits Add's
// drop-unseen behaviour.
func (c *TopCounter) Merge(o *TopCounter) {
	for i, k := range o.keys {
		c.Add(k, o.counts[i])
	}
}

// Top returns the key with the highest count and that count; ok is false
// for an empty counter. Ties resolve to the smallest key for determinism.
func (c *TopCounter) Top() (key uint32, count uint64, ok bool) {
	if len(c.keys) == 0 {
		return 0, 0, false
	}
	best := 0
	for i := 1; i < len(c.keys); i++ {
		if c.counts[i] > c.counts[best] ||
			(c.counts[i] == c.counts[best] && c.keys[i] < c.keys[best]) {
			best = i
		}
	}
	return c.keys[best], c.counts[best], true
}

// Clone returns an independent copy of the counter.
func (c *TopCounter) Clone() *TopCounter {
	return &TopCounter{
		keys:   append([]uint32(nil), c.keys...),
		counts: append([]uint64(nil), c.counts...),
		cap:    c.cap,
	}
}

// Entries returns the tracked keys and their counts (shared slices; the
// caller must not modify them).
func (c *TopCounter) Entries() ([]uint32, []uint64) { return c.keys, c.counts }

// Counter is a dropped/forwarded tally, the cell of the drop-rate
// (dropstats) and mitigation (Table 5) operators.
type Counter struct {
	DroppedPkts, ForwardedPkts   int64
	DroppedBytes, ForwardedBytes int64
}

// TotalPkts returns dropped plus forwarded packets.
func (c *Counter) TotalPkts() int64 { return c.DroppedPkts + c.ForwardedPkts }

// TotalBytes returns dropped plus forwarded bytes.
func (c *Counter) TotalBytes() int64 { return c.DroppedBytes + c.ForwardedBytes }

// DropRatePkts returns the packet drop share (0 when no traffic).
func (c *Counter) DropRatePkts() float64 {
	t := c.TotalPkts()
	if t == 0 {
		return 0
	}
	return float64(c.DroppedPkts) / float64(t)
}

// DropRateBytes returns the byte drop share (0 when no traffic).
func (c *Counter) DropRateBytes() float64 {
	t := c.TotalBytes()
	if t == 0 {
		return 0
	}
	return float64(c.DroppedBytes) / float64(t)
}

// Add tallies one observation as dropped or forwarded.
func (c *Counter) Add(dropped bool, pkts, bytes int64) {
	if dropped {
		c.DroppedPkts += pkts
		c.DroppedBytes += bytes
	} else {
		c.ForwardedPkts += pkts
		c.ForwardedBytes += bytes
	}
}

// Merge adds o's tallies to c.
func (c *Counter) Merge(o *Counter) {
	c.DroppedPkts += o.DroppedPkts
	c.ForwardedPkts += o.ForwardedPkts
	c.DroppedBytes += o.DroppedBytes
	c.ForwardedBytes += o.ForwardedBytes
}
