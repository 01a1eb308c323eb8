package anomaly

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/cowtest"
	aevents "repro/internal/analysis/events"
	"repro/internal/bgp"
	"repro/internal/stats"
)

// denseAnalyzeScaled is the reference model for AnalyzeScaled: the scan as
// the paper states it and as this package ran it before it turned sparse.
// Every one of the 865 slots of every event's pre-window is looked up in
// the slot map (zeros when absent) and observed by all five detectors,
// and every five-minute slot of the event window is looked up for the
// during-event tally. TestAnalyzeMatchesDenseReference requires the
// sparse scan to return the same verdicts, floats by their bits.
func denseAnalyzeScaled(a *Aggregator, evs []*aevents.Event, periodEnd time.Time, threshold, scale float64) []Verdict {
	// The slots are looked up by their unpacked (prefix, slot), and that
	// must agree with the lookup by keyOf: two pairs sharing a key, or a
	// key that unpacks to another pair, read apart here.
	type id struct {
		prefix bgp.Prefix
		slot   int64
	}
	slots := make(map[id]*slotFeat, len(a.slots))
	for k, sf := range a.slots {
		slots[id{k.prefix(), k.slot()}] = sf
	}
	features := func(prefix bgp.Prefix, slot int64) [NumFeatures]float64 {
		sf := slots[id{prefix, slot}]
		if k, ok := keyOf(prefix, slot); !ok || a.slots[k] != sf {
			panic(fmt.Sprintf("slot %d of %s: key %#x (%v) holds another slot's features", slot, prefix, uint64(k), ok))
		}
		if sf == nil {
			return [NumFeatures]float64{}
		}
		return sf.features()
	}
	minMag := MinMagnitudeAt(scale)
	verdicts := make([]Verdict, 0, len(evs))
	detectors := [NumFeatures]*stats.EWMA{}
	for f := range detectors {
		detectors[f] = stats.NewEWMA(Span, threshold)
	}
	preSlots := int64(aevents.PreWindow / analysis.SlotDuration)

	for _, e := range evs {
		v := Verdict{EventID: e.ID}
		startSlot := analysis.Slot(e.Start())
		endSlot := analysis.Slot(e.End(periodEnd))
		for f := range detectors {
			detectors[f].Reset()
		}

		var sum [NumFeatures]float64
		var last [NumFeatures]float64
		var maxPackets float64
		runLevel, runNearest := 0, 0
		flushRun := func() {
			if runLevel > 0 {
				v.Anomalies = append(v.Anomalies, Anomaly{SlotsBefore: runNearest, Level: runLevel})
				runLevel = 0
			}
		}
		for s := startSlot - preSlots; s <= startSlot; s++ {
			feats := features(e.Prefix, s)
			slotsBefore := int(startSlot - s)
			level := 0
			for f := range feats {
				if detectors[f].Observe(feats[f]) && feats[f] >= minMag {
					level++
				}
				if s < startSlot {
					sum[f] += feats[f]
				}
			}
			if s < startSlot {
				if feats[FeatPackets] > 0 {
					v.PreDataSlots++
				}
				if feats[FeatPackets] > maxPackets {
					maxPackets = feats[FeatPackets]
				}
			}
			if level > 0 {
				if level > runLevel {
					runLevel = level
				}
				runNearest = slotsBefore
				if slotsBefore*int(analysis.SlotDuration/time.Minute) <= 10 {
					v.Within10Min = true
				}
				if slotsBefore*int(analysis.SlotDuration/time.Minute) <= 60 {
					v.Within1Hour = true
				}
			} else {
				flushRun()
			}
			if s == startSlot-1 {
				last = feats
			}
		}
		flushRun()
		v.HasPreData = v.PreDataSlots > 0
		for f := range sum {
			mean := sum[f] / float64(preSlots)
			if mean > 0 && last[f] > 0 {
				v.AmpFactor[f] = last[f] / mean
			}
		}
		v.LastSlotIsMax = last[FeatPackets] > 0 && last[FeatPackets] >= maxPackets

		for s := startSlot; s <= endSlot; s++ {
			f := features(e.Prefix, s)
			if f[FeatPackets] > 0 {
				v.HasEventData = true
				v.EventPackets += int64(f[FeatPackets])
			}
		}
		verdicts = append(verdicts, v)
	}
	return verdicts
}

// refWorld is one aggregator plus the events scanned over it.
type refWorld struct {
	a   *Aggregator
	evs []*aevents.Event
	r   *stats.RNG
	mag int // the support floor the magnitudes straddle
}

const refPreSlots = int64(aevents.PreWindow / analysis.SlotDuration)

var refStart = time.Date(2018, 10, 20, 12, 2, 30, 0, time.UTC)

// sample adds n sampled packets to prefix's slot at offset slots from t,
// spread over about n/2+1 sources and ports, a third of them non-TCP.
func (w *refWorld) sample(p bgp.Prefix, t time.Time, offset int64, n int) {
	at := t.Add(time.Duration(offset) * analysis.SlotDuration)
	for i := 0; i < n; i++ {
		proto := uint8(6)
		if w.r.Intn(3) == 0 {
			proto = 17
		}
		k := w.r.Intn(n/2 + 1)
		w.a.Add(p, at, uint32(0x0a000000+k), 123, uint16(1024+k), proto, int64(1+w.r.Intn(2)))
	}
}

// around draws a sample count on either side of the support floor.
func (w *refWorld) around() int { return w.mag/2 + w.r.Intn(w.mag+1) }

// event appends an event on p; a zero dur leaves it open-ended.
func (w *refWorld) event(p bgp.Prefix, start time.Time, dur time.Duration) {
	ep := aevents.Episode{Announce: start}
	if dur > 0 {
		ep.Withdraw = start.Add(dur)
	}
	w.evs = append(w.evs, &aevents.Event{ID: len(w.evs), Prefix: p, Peer: 100, Episodes: []aevents.Episode{ep}, Announcements: 1})
}

func TestAnalyzeMatchesDenseReference(t *testing.T) {
	p1 := bgp.MustParsePrefix("203.0.113.5/32")
	// A covering /24 and the /31 beside p1: neighbours whose slots must
	// never count for p1's events.
	p2 := bgp.MustParsePrefix("203.0.113.0/24")
	p3 := bgp.MustParsePrefix("203.0.113.5/31")
	periodEnd := refStart.Add(36 * time.Hour)

	cases := []struct {
		name  string
		build func(w *refWorld)
	}{
		{"empty prefix", func(w *refWorld) {
			w.sample(p2, refStart, -3, w.mag) // a neighbour's data must not leak
			w.event(p1, refStart, time.Hour)
		}},
		{"own slot only", func(w *refWorld) {
			w.sample(p1, refStart, 0, 3*w.mag)
			w.event(p1, refStart, time.Hour)
		}},
		{"window edge inside", func(w *refWorld) {
			w.sample(p1, refStart, -refPreSlots, 3*w.mag)
			w.event(p1, refStart, time.Hour)
		}},
		{"window edge outside", func(w *refWorld) {
			w.sample(p1, refStart, -refPreSlots-1, 3*w.mag)
			w.event(p1, refStart, time.Hour)
		}},
		{"after start only", func(w *refWorld) {
			for s := int64(1); s < 30; s += 3 {
				w.sample(p1, refStart, s, w.around())
			}
			w.event(p1, refStart, time.Hour)
		}},
		{"dense always-on", func(w *refWorld) {
			for s := -refPreSlots - 20; s <= 40; s++ {
				w.sample(p1, refStart, s, w.around())
			}
			w.sample(p1, refStart, -1, 4*w.mag)
			w.event(p1, refStart, 2*time.Hour)
		}},
		{"last slot spike over sparse baseline", func(w *refWorld) {
			for s := -refPreSlots; s < -2; s += 30 {
				w.sample(p1, refStart, s, 1)
			}
			w.sample(p1, refStart, -2, 3*w.mag)
			w.sample(p1, refStart, -1, 5*w.mag)
			w.event(p1, refStart, time.Hour)
		}},
		{"overlapping pre-windows", func(w *refWorld) {
			for s := -refPreSlots; s <= 100; s++ {
				if w.r.Intn(7) == 0 {
					w.sample(p1, refStart, s, w.around())
				}
			}
			w.event(p1, refStart, 20*time.Minute)
			w.event(p1, refStart.Add(6*time.Hour), time.Hour)
			w.event(p3, refStart.Add(time.Hour), time.Hour)
		}},
		{"open-ended", func(w *refWorld) {
			for s := int64(-50); s <= 36*12+10; s += 5 { // runs past the period end
				w.sample(p1, refStart, s, w.around())
			}
			w.event(p1, refStart, 0)
			w.event(p2, periodEnd.Add(time.Hour), 0) // starts after the period end
		}},
		{"spike after a long gap", func(w *refWorld) {
			// The detector fills its window only through the gap's zeros:
			// without them the spike would meet a detector not yet ready.
			w.sample(p1, refStart, -refPreSlots, 1)
			w.sample(p1, refStart, -refPreSlots+Span+10, 3*w.mag)
			w.event(p1, refStart, time.Hour)
		}},
		{"straddling the floor", func(w *refWorld) {
			for s := -refPreSlots; s <= 0; s++ {
				switch w.r.Intn(4) {
				case 0:
					w.sample(p1, refStart, s, w.mag-1)
				case 1:
					w.sample(p1, refStart, s, w.mag)
				case 2:
					w.sample(p1, refStart, s, w.mag+1)
				}
			}
			w.event(p1, refStart, time.Hour)
		}},
		{"random", func(w *refWorld) {
			prefixes := []bgp.Prefix{p1, p2, p3}
			for _, p := range prefixes {
				every := []int{0, 1, 3, 40, 300}[w.r.Intn(5)]
				for s := -2 * refPreSlots; every > 0 && s <= 500; s++ {
					if w.r.Intn(every) == 0 {
						w.sample(p, refStart, s, w.around())
					}
				}
			}
			for n := 1 + w.r.Intn(6); n > 0; n-- {
				start := refStart.Add(time.Duration(w.r.Int63n(int64(48*time.Hour))) - 12*time.Hour)
				w.event(prefixes[w.r.Intn(3)], start, time.Duration(w.r.Int63n(int64(8*time.Hour))))
			}
		}},
	}

	var anomalies, noData, amplified, eventData int
	for _, tc := range cases {
		for _, scale := range []float64{1, 50} {
			for seed := uint64(1); seed <= 6; seed++ {
				w := &refWorld{a: New(), r: stats.NewRNG(seed), mag: int(MinMagnitudeAt(scale))}
				tc.build(w)
				for _, threshold := range []float64{DefaultThreshold, 10} {
					name := fmt.Sprintf("%s/scale %v/seed %d/threshold %v", tc.name, scale, seed, threshold)
					got := w.a.AnalyzeScaled(w.evs, periodEnd, threshold, scale)
					want := denseAnalyzeScaled(w.a, w.evs, periodEnd, threshold, scale)
					requireSameVerdicts(t, name, got, want)
					for _, v := range want {
						anomalies += len(v.Anomalies)
						if !v.HasPreData {
							noData++
						}
						if v.AmpFactor[FeatPackets] > 0 {
							amplified++
						}
						if v.HasEventData {
							eventData++
						}
					}
				}
			}
		}
	}
	if anomalies == 0 || noData == 0 || amplified == 0 || eventData == 0 {
		t.Fatalf("cases exercise too little: %d anomalies, %d without pre-data, %d amplified, %d with event data",
			anomalies, noData, amplified, eventData)
	}
}

func requireSameVerdicts(t *testing.T, name string, got, want []Verdict) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d verdicts, want %d", name, len(got), len(want))
	}
	for i := range want {
		same := reflect.DeepEqual(got[i], want[i])
		for f := range want[i].AmpFactor {
			same = same && math.Float64bits(got[i].AmpFactor[f]) == math.Float64bits(want[i].AmpFactor[f])
		}
		if !same {
			t.Fatalf("%s: verdict %d differs:\nsparse %+v\ndense  %+v", name, i, got[i], want[i])
		}
	}
}

// deepSnapshot is the reference model for Snapshot: the copy of every
// slot and key array that Snapshot made before slots became shared between
// an aggregator and its snapshots. (A fresh set merged with a set is that
// set: the keys in their order, then the saturated tail.)
func deepSnapshot(a *Aggregator) *Aggregator {
	s := New()
	for k, sf := range a.slots {
		c := &slotFeat{owner: s.cow.Stamp(), packets: sf.packets, nonTCP: sf.nonTCP}
		c.flows.Merge(&sf.flows)
		c.srcIPs.Merge(&sf.srcIPs)
		c.dstPorts.Merge(&sf.dstPorts)
		s.slots[k] = c
	}
	return s
}

// TestSnapshotMatchesDeepCopy drives the aggregator and the deep-copy
// reference through the same random Add / Snapshot / Merge /
// UnmarshalBinary sequences (cowtest.Run). Two prefixes over four slots,
// one slot taking half of the samples, with sources and ports drawn from
// twice the 32-key capacity of the distinct sets: the hot slot saturates
// on the stores that live long and stays exact on fresh branches, and
// merges cross the saturation point.
func TestSnapshotMatchesDeepCopy(t *testing.T) {
	base := time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)
	c := cowtest.Case[*Aggregator]{
		New:  New,
		Deep: deepSnapshot,
		Add: func(a *Aggregator, x uint64) {
			prefix, slot := bgp.MakePrefix(0x0a000000, 24), uint64(0)
			if x&1 == 0 {
				prefix, slot = bgp.MakePrefix(0x0a000000+uint32(x>>1%2)<<8, 24), x>>2%4
			}
			at := base.Add(time.Duration(slot) * analysis.SlotDuration)
			proto := uint8(6)
			if x>>5&1 == 0 {
				proto = 17
			}
			a.Add(prefix, at, 0xc0a80000+uint32(x>>8%64), uint16(x>>16%8), uint16(x>>24%64), proto, int64(1+x>>40%3))
		},
		Decode: (*Aggregator).UnmarshalBinary,
		Copies: (*Aggregator).CowCopies,
	}
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { cowtest.Run(t, seed, 250, c) })
	}
}
