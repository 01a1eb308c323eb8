package analysis

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/bgp"
	"repro/internal/ipfix"
	"repro/internal/mrt"
	"repro/internal/stats"
)

func TestSlotHelpers(t *testing.T) {
	t0 := time.Date(2018, 10, 1, 12, 2, 30, 0, time.UTC)
	s := Slot(t0)
	start := time.Date(2018, 10, 1, 12, 0, 0, 0, time.UTC) // the slot boundary below t0
	if Slot(start.Add(-time.Second)) != s-1 {
		t.Fatal("previous slot wrong")
	}
	if Slot(start) != s || Slot(start.Add(SlotDuration-time.Second)) != s {
		t.Fatal("slot boundaries wrong")
	}
	if Slot(start.Add(SlotDuration)) != s+1 {
		t.Fatal("next slot wrong")
	}
}

func TestParseMRT(t *testing.T) {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	enc := func(u *bgp.Update) []byte {
		b, err := bgp.EncodeUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	t0 := time.Date(2018, 10, 1, 0, 0, 0, 0, time.UTC)
	// Announcement with blackhole community.
	w.WriteRecord(&mrt.Record{
		Timestamp: t0, PeerAS: 100,
		Message: enc(&bgp.Update{
			Attrs: bgp.PathAttrs{
				ASPath: []uint32{100, 777}, NextHop: 1,
				Communities: bgp.Communities{bgp.Blackhole, bgp.MakeCommunity(0, 300)},
			},
			NLRI: []bgp.Prefix{bgp.MustParsePrefix("203.0.113.5/32")},
		}),
	})
	// Non-blackhole announcement: skipped.
	w.WriteRecord(&mrt.Record{
		Timestamp: t0.Add(time.Second), PeerAS: 100,
		Message: enc(&bgp.Update{
			Attrs: bgp.PathAttrs{ASPath: []uint32{100}, NextHop: 1},
			NLRI:  []bgp.Prefix{bgp.MustParsePrefix("198.51.100.0/24")},
		}),
	})
	// Keepalive: skipped.
	w.WriteRecord(&mrt.Record{Timestamp: t0.Add(2 * time.Second), PeerAS: 100, Message: bgp.EncodeKeepalive()})
	// Withdraw.
	w.WriteRecord(&mrt.Record{
		Timestamp: t0.Add(3 * time.Second), PeerAS: 100,
		Message: enc(&bgp.Update{Withdrawn: []bgp.Prefix{bgp.MustParsePrefix("203.0.113.5/32")}}),
	})
	w.Flush()

	us, _, err := ParseMRTAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 2 {
		t.Fatalf("updates = %d, want 2 (announce + withdraw)", len(us))
	}
	if !us[0].Announce || us[0].OriginAS != 777 || us[0].Peer != 100 {
		t.Fatalf("announce = %+v", us[0])
	}
	if !us[0].Communities.Contains(bgp.MakeCommunity(0, 300)) {
		t.Fatal("targeting community lost")
	}
	if us[1].Announce || us[1].Prefix.Len != 32 {
		t.Fatalf("withdraw = %+v", us[1])
	}
	if us[1].Time.Before(us[0].Time) {
		t.Fatal("updates not sorted")
	}
}

func TestMetadataValidate(t *testing.T) {
	good := Metadata{
		SamplingRate: 10000,
		Start:        time.Unix(0, 0),
		End:          time.Unix(1000, 0),
		MemberByMAC:  map[ipfix.MAC]uint32{1: 100},
		BlackholeMAC: 2,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.SamplingRate = 0
	if bad.Validate() == nil {
		t.Fatal("rate 0 accepted")
	}
	bad = good
	bad.MemberByMAC = nil
	if bad.Validate() == nil {
		t.Fatal("empty MAC table accepted")
	}
	bad = good
	bad.End = bad.Start
	if bad.Validate() == nil {
		t.Fatal("empty period accepted")
	}
}

func TestMetadataHelpers(t *testing.T) {
	m := Metadata{
		MemberByMAC:  map[ipfix.MAC]uint32{10: 100},
		InternalMACs: map[ipfix.MAC]bool{99: true},
	}
	if m.MemberOf(10) != 100 || m.MemberOf(11) != 0 {
		t.Fatal("MemberOf wrong")
	}
	if !m.IsInternal(&ipfix.FlowRecord{DstMAC: 99}) {
		t.Fatal("internal dst not detected")
	}
	if !m.IsInternal(&ipfix.FlowRecord{SrcMAC: 99}) {
		t.Fatal("internal src not detected")
	}
	if m.IsInternal(&ipfix.FlowRecord{SrcMAC: 10, DstMAC: 10}) {
		t.Fatal("member traffic flagged internal")
	}
}

func TestBoundedSetExactThenSaturates(t *testing.T) {
	s := NewBoundedSet(4)
	for i := 0; i < 4; i++ {
		s.Add(uint64(i))
		s.Add(uint64(i)) // duplicates must not count
	}
	if s.Count() != 4 || !s.Exact() {
		t.Fatalf("count = %d exact = %v", s.Count(), s.Exact())
	}
	s.Add(99)
	s.Add(99) // after saturation duplicates DO count (documented overcount)
	if s.Exact() {
		t.Fatal("saturated set claims exact")
	}
	if s.Count() != 6 {
		t.Fatalf("saturated count = %d", s.Count())
	}
}

func TestBoundedSetZeroValue(t *testing.T) {
	var s BoundedSet
	for i := 0; i < 100; i++ {
		s.Add(uint64(i))
	}
	if s.Count() < DefaultBoundedCap {
		t.Fatalf("zero-value count = %d", s.Count())
	}
}

func TestBoundedSetNeverUndercounts(t *testing.T) {
	f := func(keys []uint64) bool {
		s := NewBoundedSet(8)
		distinct := map[uint64]bool{}
		for _, k := range keys {
			s.Add(k)
			distinct[k] = true
		}
		if len(distinct) <= 8 {
			return s.Count() == len(distinct)
		}
		return s.Count() >= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// deepCloneSet is the reference model for BoundedSet.Clone: the copy of
// the key array that Clone made before the array became shared.
func deepCloneSet(s *BoundedSet) BoundedSet {
	return BoundedSet{keys: append([]uint64(nil), s.keys...), saturated: s.saturated, cap: s.cap}
}

// TestBoundedSetCloneMatchesDeepCopy walks seeded random sequences of Add,
// Clone (of originals and of clones), Merge and drop over a population of
// sets that share key arrays, each mirrored by a set that shares nothing.
// Every set must encode like its mirror after every step — including the
// steps at which a set fills up and saturates while the sets it shares an
// array with do not.
func TestBoundedSetCloneMatchesDeepCopy(t *testing.T) {
	type pair struct{ shared, deep BoundedSet }
	encode := func(s *BoundedSet) []byte {
		w := NewWireWriter()
		s.EncodeWire(w)
		return w.Bytes()
	}
	oneSided := 0
	for seed := uint64(1); seed <= 20; seed++ {
		r := stats.NewRNG(seed)
		live := []*pair{{*NewBoundedSet(8), *NewBoundedSet(8)}}
		for step := 0; step < 400; step++ {
			p := live[r.Intn(len(live))]
			switch k := r.Intn(8); {
			case k < 4:
				key := uint64(r.Intn(24))
				p.shared.Add(key)
				p.deep.Add(key)
			case k < 6:
				live = append(live, &pair{p.shared.Clone(), deepCloneSet(&p.deep)})
			case k == 6:
				o := live[r.Intn(len(live))]
				if o != p {
					c, d := o.shared.Clone(), deepCloneSet(&o.deep)
					p.shared.Merge(&c)
					p.deep.Merge(&d)
				}
			case len(live) > 1:
				i := r.Intn(len(live))
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if len(live) > 8 {
				live = live[1:]
			}
			exact, saturated := 0, 0
			for i, q := range live {
				if !bytes.Equal(encode(&q.shared), encode(&q.deep)) {
					t.Fatalf("seed %d step %d: set %d of %d diverges from its deep copy", seed, step, i, len(live))
				}
				if q.shared.Exact() {
					exact++
				} else {
					saturated++
				}
			}
			if exact > 0 && saturated > 0 {
				oneSided++
			}
		}
	}
	if oneSided == 0 {
		t.Fatal("no step had a saturated and an exact set side by side")
	}
}

// linearSet is the reference model for BoundedSet's position index: the
// set as it was without one, scanning its keys on every Add.
type linearSet struct {
	keys      []uint64
	saturated uint32
	cap       uint32
}

func (m *linearSet) add(key uint64) {
	switch {
	case m.saturated > 0:
		m.saturated++
	case slices.Contains(m.keys, key):
	case len(m.keys) >= int(m.cap):
		m.saturated = 1
	default:
		m.keys = append(m.keys, key)
	}
}

func (m *linearSet) merge(o *linearSet) {
	for _, k := range o.keys {
		m.add(k)
	}
	m.saturated += o.saturated
}

func (m *linearSet) clone() *linearSet {
	return &linearSet{keys: slices.Clone(m.keys), saturated: m.saturated, cap: m.cap}
}

func encodeSet(s *BoundedSet) []byte {
	w := NewWireWriter()
	s.EncodeWire(w)
	return w.Bytes()
}

// TestBoundedSetIndexMatchesLinear walks seeded random key streams across
// the indexing threshold and saturation over a population of sets, each
// mirrored by a linear-scan model. Between bursts of Adds a set is cloned
// (and both sides go on adding), merged with another, or decoded over with
// another set's encoding. Count, Exact and EncodeWire must match the
// model's after every step, and a set of at most DefaultBoundedCap keys
// never holds an index.
func TestBoundedSetIndexMatchesLinear(t *testing.T) {
	if size := unsafe.Sizeof(BoundedSet{}); size != 40 {
		t.Fatalf("BoundedSet header is %d bytes, want 40", size)
	}
	type pair struct {
		set   *BoundedSet
		model *linearSet
	}
	indexed, saturated, smallPast := 0, 0, 0
	for seed := uint64(1); seed <= 20; seed++ {
		r := stats.NewRNG(seed)
		capacity := []int{20, 32, 40, 100, 300}[seed%5]
		span := capacity + capacity/2 // keys drawn past the capacity saturate
		fresh := func() *pair {
			return &pair{NewBoundedSet(capacity), &linearSet{cap: uint32(capacity)}}
		}
		live := []*pair{fresh()}
		for step := 0; step < 300; step++ {
			p := live[r.Intn(len(live))]
			switch k := r.Intn(10); {
			case k < 5:
				for n := 1 + r.Intn(30); n > 0; n-- {
					key := uint64(r.Intn(span)) * 0x10001 // spread over the hash
					p.set.Add(key)
					p.model.add(key)
				}
			case k < 7:
				c := p.set.Clone()
				live = append(live, &pair{&c, p.model.clone()})
			case k == 7:
				o := live[r.Intn(len(live))]
				if o != p {
					p.set.Merge(o.set)
					p.model.merge(o.model)
				}
			case k == 8:
				o := live[r.Intn(len(live))]
				data := encodeSet(o.set)
				p.set.DecodeWire(NewWireReader(data))
				var d BoundedSet
				d.DecodeWire(NewWireReader(data))
				p.model = &linearSet{keys: d.keys, saturated: d.saturated, cap: d.cap}
			case len(live) > 1:
				i := r.Intn(len(live))
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				live[0] = fresh()
			}
			if len(live) > 6 {
				live = live[1:]
			}
			for i, q := range live {
				ref := BoundedSet{keys: q.model.keys, saturated: q.model.saturated, cap: q.model.cap}
				if q.set.Count() != ref.Count() || q.set.Exact() != ref.Exact() ||
					!bytes.Equal(encodeSet(q.set), encodeSet(&ref)) {
					t.Fatalf("seed %d step %d: set %d of %d holds %d keys (exact %v), its model %d (exact %v)",
						seed, step, i, len(live), q.set.Count(), q.set.Exact(), ref.Count(), ref.Exact())
				}
				if q.set.idx != nil {
					indexed++
				}
				if capacity <= DefaultBoundedCap && q.set.Count() >= indexFrom {
					smallPast++
					if q.set.idx != nil {
						t.Fatalf("seed %d step %d: set %d of capacity %d holds an index", seed, step, i, capacity)
					}
				}
				if !q.set.Exact() {
					saturated++
					if q.set.idx != nil {
						t.Fatalf("seed %d step %d: set %d saturated but keeps its index", seed, step, i)
					}
				}
			}
		}
	}
	if indexed == 0 || saturated == 0 || smallPast == 0 {
		t.Fatalf("%d indexed, %d saturated and %d small set-steps past indexFrom: the walk missed a regime", indexed, saturated, smallPast)
	}
}

func TestTopCounter(t *testing.T) {
	c := NewTopCounter(4)
	c.Add(80, 10)
	c.Add(443, 30)
	c.Add(80, 25)
	key, count, ok := c.Top()
	if !ok || key != 80 || count != 35 {
		t.Fatalf("Top = %d %d %v", key, count, ok)
	}
	// Tie resolves to smaller key.
	c2 := NewTopCounter(4)
	c2.Add(9, 5)
	c2.Add(3, 5)
	if k, _, _ := c2.Top(); k != 3 {
		t.Fatalf("tie key = %d", k)
	}
	// Overflow keys dropped, existing still counted.
	c3 := NewTopCounter(2)
	c3.Add(1, 1)
	c3.Add(2, 1)
	c3.Add(3, 100)
	if keys, _ := c3.Entries(); len(keys) != 2 {
		t.Fatalf("len = %d", len(keys))
	}
	if _, _, ok := NewTopCounter(2).Top(); ok {
		t.Fatal("empty counter has a top")
	}
}

func TestHash64Distinctness(t *testing.T) {
	seen := map[uint64]bool{}
	for a := uint32(0); a < 30; a++ {
		for c := uint16(0); c < 30; c++ {
			h := Hash64(a, a+1, c, c+1, 17)
			if seen[h] {
				t.Fatalf("collision at %d %d", a, c)
			}
			seen[h] = true
		}
	}
}
