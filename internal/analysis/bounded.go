package analysis

// BoundedSet counts distinct uint64 keys exactly up to its capacity and
// saturates beyond it. The streaming aggregators track per-slot feature
// cardinalities (unique sources, ports, flows) whose anomaly signal lives
// entirely in the low range — a saturated counter is already far above any
// detection threshold — so a small exact set beats a probabilistic sketch
// here: zero error where it matters, tiny fixed memory where it doesn't.
//
// The zero value is ready to use with DefaultBoundedCap capacity.
type BoundedSet struct {
	keys      []uint64
	saturated uint32
	cap       int
}

// DefaultBoundedCap is the capacity used by the zero value.
const DefaultBoundedCap = 32

// NewBoundedSet returns a set with the given capacity (minimum 1).
func NewBoundedSet(capacity int) *BoundedSet {
	if capacity < 1 {
		capacity = 1
	}
	return &BoundedSet{cap: capacity}
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
	for _, k := range s.keys {
		if k == key {
			return
		}
	}
	if len(s.keys) >= s.cap {
		s.saturated = 1
		return
	}
	s.keys = append(s.keys, key)
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
}

// Exact reports whether the count is exact (the set never saturated).
func (s *BoundedSet) Exact() bool { return s.saturated == 0 }

// Clone returns an independent copy of the set: further Adds on either
// side do not affect the other. The key array is shared, not copied — the
// set is append-only (no key is ever rewritten or removed), and the copy's
// capacity is cut to its length, so its next append reallocates while the
// original's lands past everything the copy can see. That makes copying a
// sub-aggregate on its first write after a snapshot (see Cow) cost a few
// words per set.
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
