package detect

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ipfix"
)

// obs is one synthetic observation for the reference model.
type obsRec struct {
	victim uint32
	slot   int64
	pkts   int64
	proto  uint8
	port   uint16
}

// genObs draws a bounded random stream: a handful of victims, slots in
// a range wider than the retention horizon so eviction is exercised,
// small packet counts.
func genObs(r *rand.Rand, n int) []obsRec {
	out := make([]obsRec, n)
	for i := range out {
		out[i] = obsRec{
			victim: uint32(r.Intn(4)),
			slot:   int64(r.Intn(300)),
			pkts:   1 + int64(r.Intn(5)),
			proto:  uint8(r.Intn(3)),
			port:   uint16(r.Intn(5)),
		}
	}
	return out
}

const (
	testSlot   = time.Minute
	testRetain = 100 * time.Minute // 100 slots
)

// naiveRate is the full-history reference: it retains every raw
// observation and answers window queries by brute force.
type naiveRate struct {
	obs []obsRec
}

func (n *naiveRate) observe(o obsRec) { n.obs = append(n.obs, o) }

func (n *naiveRate) maxSlot() (int64, bool) {
	if len(n.obs) == 0 {
		return 0, false
	}
	m := n.obs[0].slot
	for _, o := range n.obs {
		if o.slot > m {
			m = o.slot
		}
	}
	return m, true
}

// windowPkts sums the victim's live packets in (end-w, end].
func (n *naiveRate) windowPkts(victim uint32, end, w int64) int64 {
	m, ok := n.maxSlot()
	if !ok {
		return 0
	}
	h := m - int64(testRetain/testSlot) + 1
	var sum int64
	for _, o := range n.obs {
		if o.victim != victim || o.slot < h {
			continue
		}
		if o.slot > end-w && o.slot <= end {
			sum += o.pkts
		}
	}
	return sum
}

// testDetector is a detector on the test geometry whose scan gate is
// always open and whose threshold is never met, so every record reaches
// the window scan and the vector cells.
func testDetector(wslots int64) *Detector {
	d, err := New(Config{SamplingRate: 1})
	if err != nil {
		panic(err)
	}
	d.slot, d.wslots, d.retain = testSlot, wslots, int64(testRetain/testSlot)
	d.hotPkts, d.detectPkts = 0, math.Inf(1)
	return d
}

func feed(d *Detector, o obsRec) {
	observe(d, &ipfix.FlowRecord{
		Start: slotTime(o.slot), DstIP: o.victim, Proto: o.proto, SrcPort: o.port, Packets: uint64(o.pkts),
	})
}

func feedDetector(obs []obsRec, wslots int64) *Detector {
	d := testDetector(wslots)
	for _, o := range obs {
		feed(d, o)
	}
	return d
}

// windows visits the window sums an observation of victim in slot s can
// have changed; an untracked victim has none.
func windows(d *Detector, victim uint32, s int64, visit func(end, pkts int64)) {
	if v := d.victims[victim]; v != nil {
		d.windowsAt(v, s, visit)
	}
}

func slotTime(s int64) time.Time {
	// mid-slot, so bucketing is unambiguous
	return time.Unix(0, s*int64(testSlot)+int64(testSlot/2))
}

// TestRateWindowsMatchNaive checks, over random streams, that the
// O(wslots) hot-path scan agrees with the brute-force sum at every end
// it visits, for anchor slots live and dead alike.
func TestRateWindowsMatchNaive(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		obs := genObs(r, 1+r.Intn(120))
		w := int64(1 + r.Intn(8))
		a := feedDetector(obs, w)
		ref := &naiveRate{}
		for _, o := range obs {
			ref.observe(o)
		}
		for victim := uint32(0); victim < 4; victim++ {
			ok := true
			for _, anchor := range []int64{0, 150, 299, int64(r.Intn(300))} {
				windows(a, victim, anchor, func(end, pkts int64) {
					if end < anchor || end >= anchor+w {
						t.Logf("seed %d victim %d w %d: windowsAt(%d) visited end %d", seed, victim, w, anchor, end)
						ok = false
					}
					if want := ref.windowPkts(victim, end, w); pkts != want {
						t.Logf("seed %d victim %d w %d end %d: windowsAt %d want %d", seed, victim, w, end, pkts, want)
						ok = false
					}
				})
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestVectorsTopMatchNaive checks a detection's vector shares against a
// brute-force aggregation of the same window.
func TestVectorsTopMatchNaive(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		obs := genObs(r, 1+r.Intn(120))
		w := int64(1 + r.Intn(8))
		a := feedDetector(obs, w)
		var maxS int64
		for _, o := range obs {
			if o.slot > maxS {
				maxS = o.slot
			}
		}
		h := maxS - int64(testRetain/testSlot) + 1
		for victim := uint32(0); victim < 4; victim++ {
			end := maxS - int64(r.Intn(5))
			agg := map[vectorKey]int64{}
			for _, o := range obs {
				if o.victim == victim && o.slot >= h && o.slot > end-w && o.slot <= end {
					agg[makeVectorKey(o.proto, o.port)] += o.pkts
				}
			}
			want := make([]Vector, 0, len(agg))
			for k, p := range agg {
				want = append(want, Vector{Proto: k.proto(), SrcPort: k.srcPort(), Pkts: p})
			}
			sortVectors(want)
			if len(want) > 3 {
				want = want[:3]
			}
			var got []Vector
			if v := a.victims[victim]; v != nil {
				got = a.topVectors(v, end, 3)
			}
			if len(got) != len(want) {
				t.Logf("seed %d victim %d: got %v want %v", seed, victim, got, want)
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					t.Logf("seed %d victim %d: got %v want %v", seed, victim, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRateEviction pins the horizon semantics on a deterministic case:
// a slot more than the retention behind the newest observation is dead
// — it anchors no scan and contributes to no window.
func TestRateEviction(t *testing.T) {
	sums := func(d *Detector, s int64) (out []int64) {
		windows(d, 1, s, func(_, pkts int64) { out = append(out, pkts) })
		return out
	}
	d1, d2 := testDetector(1), testDetector(2)
	for _, d := range []*Detector{d1, d2} {
		feed(d, obsRec{victim: 1, slot: 0, pkts: 10})
		feed(d, obsRec{victim: 1, slot: 99, pkts: 1}) // same horizon: slot 0 still live
	}
	if got := sums(d1, 0); len(got) != 1 || got[0] != 10 {
		t.Fatalf("before eviction: slot 0 window sums %v", got)
	}
	for _, d := range []*Detector{d1, d2} {
		feed(d, obsRec{victim: 1, slot: 100, pkts: 2}) // horizon moves to 1: slot 0 dies
	}
	if got := sums(d1, 0); len(got) != 0 {
		t.Fatalf("after eviction: dead slot 0 still anchors windows %v", got)
	}
	// The window (−1, 1] covers slots 0 and 1; only the dead slot was ever
	// populated, so it must sum to nothing.
	if got := sums(d2, 1); len(got) != 2 || got[0] != 0 {
		t.Fatalf("after eviction: window over the dead slot sums %v", got)
	}
	if got := sums(d2, 99); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("after eviction: live window sums %v", got)
	}
}
