package detect

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
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

func feedRate(obs []obsRec) *Rate {
	a := NewRate(testSlot, testRetain)
	for _, o := range obs {
		a.Observe(o.victim, slotTime(o.slot), o.pkts)
	}
	return a
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
		a := feedRate(obs)
		ref := &naiveRate{}
		for _, o := range obs {
			ref.observe(o)
		}
		for victim := uint32(0); victim < 4; victim++ {
			ok := true
			for _, anchor := range []int64{0, 150, 299, int64(r.Intn(300))} {
				a.WindowsAt(victim, anchor, w, func(end, pkts int64) {
					if end < anchor || end >= anchor+w {
						t.Logf("seed %d victim %d w %d: WindowsAt(%d) visited end %d", seed, victim, w, anchor, end)
						ok = false
					}
					if want := ref.windowPkts(victim, end, w); pkts != want {
						t.Logf("seed %d victim %d w %d end %d: WindowsAt %d want %d", seed, victim, w, end, pkts, want)
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

// TestVectorsTopMatchNaive checks the vector sketch's Top against a
// brute-force aggregation of the same window.
func TestVectorsTopMatchNaive(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		obs := genObs(r, 1+r.Intn(120))
		w := int64(1 + r.Intn(8))
		a := NewVectors(testSlot, testRetain)
		for _, o := range obs {
			a.Observe(o.victim, slotTime(o.slot), o.proto, o.port, o.pkts)
		}
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
			got := a.Top(victim, end, w, 3)
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
	windows := func(a *Rate, s, w int64) (sums []int64) {
		a.WindowsAt(1, s, w, func(_, pkts int64) { sums = append(sums, pkts) })
		return sums
	}
	a := NewRate(testSlot, testRetain)
	a.Observe(1, slotTime(0), 10)
	a.Observe(1, slotTime(99), 1) // same horizon: slot 0 still live
	if sums := windows(a, 0, 1); len(sums) != 1 || sums[0] != 10 {
		t.Fatalf("before eviction: slot 0 window sums %v", sums)
	}
	a.Observe(1, slotTime(100), 2) // horizon moves to 1: slot 0 dies
	if sums := windows(a, 0, 1); len(sums) != 0 {
		t.Fatalf("after eviction: dead slot 0 still anchors windows %v", sums)
	}
	// The window (−1, 1] covers slots 0 and 1; only the dead slot was ever
	// populated, so it must sum to nothing.
	if sums := windows(a, 1, 2); len(sums) != 2 || sums[0] != 0 {
		t.Fatalf("after eviction: window over the dead slot sums %v", sums)
	}
	if sums := windows(a, 99, 2); len(sums) != 2 || sums[0] != 1 || sums[1] != 3 {
		t.Fatalf("after eviction: live window sums %v", sums)
	}
}
