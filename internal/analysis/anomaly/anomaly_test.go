package anomaly

import (
	"testing"
	"time"

	"repro/internal/analysis"
	aevents "repro/internal/analysis/events"
	"repro/internal/bgp"
)

var (
	prefix = bgp.MustParsePrefix("203.0.113.5/32")
	pEnd   = time.Date(2019, 1, 11, 0, 0, 0, 0, time.UTC)
)

// eventAt builds a one-episode event starting at start.
func eventAt(start time.Time, dur time.Duration) *aevents.Event {
	return &aevents.Event{
		ID:            7,
		Prefix:        prefix,
		Peer:          100,
		Episodes:      []aevents.Episode{{Announce: start, Withdraw: start.Add(dur)}},
		Announcements: 1,
	}
}

// fill adds baseline samples: one packet every stride slots across the
// pre-window.
func fill(a *Aggregator, start time.Time, stride int) {
	preSlots := int(aevents.PreWindow / analysis.SlotDuration)
	for s := 0; s < preSlots; s += stride {
		t := start.Add(-aevents.PreWindow).Add(time.Duration(s) * analysis.SlotDuration)
		a.Add(prefix, t, 0x01020304, 44444, 80, 6, 1)
	}
}

func TestNoPreDataClass(t *testing.T) {
	a := New()
	start := time.Date(2018, 10, 20, 12, 0, 0, 0, time.UTC)
	vs := a.Analyze([]*aevents.Event{eventAt(start, time.Hour)}, pEnd, DefaultThreshold)
	if len(vs) != 1 {
		t.Fatalf("verdicts = %d", len(vs))
	}
	v := vs[0]
	if v.HasPreData || v.Within10Min || v.HasEventData {
		t.Fatalf("quiet event verdict = %+v", v)
	}
	c := Classify(vs)
	if c.NoData != 1 || c.Total() != 1 {
		t.Fatalf("classes = %+v", c)
	}
}

func TestAttackSpikeDetectedWithin10Min(t *testing.T) {
	a := New()
	start := time.Date(2018, 10, 20, 12, 0, 0, 0, time.UTC)
	fill(a, start, 30) // sparse baseline so the EWMA has variance
	// Attack burst in the two slots right before the event: many packets,
	// many sources, many ports, UDP.
	for slot := 1; slot <= 2; slot++ {
		tb := start.Add(-time.Duration(slot) * analysis.SlotDuration)
		for i := 0; i < 200; i++ {
			a.Add(prefix, tb, uint32(0x0a000000+i), 123, uint16(1024+i), 17, 1)
		}
	}
	vs := a.Analyze([]*aevents.Event{eventAt(start, time.Hour)}, pEnd, DefaultThreshold)
	v := vs[0]
	if !v.HasPreData || !v.Within10Min || !v.Within1Hour {
		t.Fatalf("verdict = %+v", v)
	}
	// The burst must push all five features to anomalous in some slot.
	maxLevel := 0
	for _, an := range v.Anomalies {
		if an.Level > maxLevel {
			maxLevel = an.Level
		}
	}
	if maxLevel < NumFeatures-1 {
		t.Fatalf("max anomaly level = %d", maxLevel)
	}
	// Amplification factor of the packets feature must be large (Fig 13).
	if v.AmpFactor[FeatPackets] < 20 {
		t.Fatalf("amplification factor = %v", v.AmpFactor[FeatPackets])
	}
	if !v.LastSlotIsMax {
		t.Fatal("last slot should hold the window maximum")
	}
	if c := Classify(vs); c.DataAnomaly10Min != 1 {
		t.Fatalf("classes = %+v", c)
	}
}

func TestSteadyTrafficNoAnomaly(t *testing.T) {
	a := New()
	start := time.Date(2018, 10, 20, 12, 0, 0, 0, time.UTC)
	// Constant traffic: 3 packets every slot, identical flow signature.
	preSlots := int(aevents.PreWindow / analysis.SlotDuration)
	for s := 0; s < preSlots; s++ {
		tb := start.Add(-aevents.PreWindow).Add(time.Duration(s) * analysis.SlotDuration)
		for i := 0; i < 3; i++ {
			a.Add(prefix, tb, 0x01020304, 40000, 443, 6, 1)
		}
	}
	vs := a.Analyze([]*aevents.Event{eventAt(start, time.Hour)}, pEnd, DefaultThreshold)
	v := vs[0]
	if !v.HasPreData {
		t.Fatal("no pre data")
	}
	if v.Within10Min {
		t.Fatalf("steady traffic flagged anomalous: %+v", v.Anomalies)
	}
	if c := Classify(vs); c.DataNoAnomaly != 1 {
		t.Fatalf("classes = %+v", c)
	}
}

func TestAnomalyOutside10MinWindow(t *testing.T) {
	a := New()
	start := time.Date(2018, 10, 20, 12, 0, 0, 0, time.UTC)
	fill(a, start, 30)
	// Burst 30 minutes (6 slots) before the event.
	tb := start.Add(-6 * analysis.SlotDuration)
	for i := 0; i < 200; i++ {
		a.Add(prefix, tb, uint32(0x0a000000+i), 123, uint16(1024+i), 17, 1)
	}
	vs := a.Analyze([]*aevents.Event{eventAt(start, time.Hour)}, pEnd, DefaultThreshold)
	v := vs[0]
	if v.Within10Min {
		t.Fatal("anomaly wrongly within 10 minutes")
	}
	if !v.Within1Hour {
		t.Fatal("anomaly not within 1 hour")
	}
}

func TestEventDataCounted(t *testing.T) {
	a := New()
	start := time.Date(2018, 10, 20, 12, 0, 0, 0, time.UTC)
	during := start.Add(30 * time.Minute)
	for i := 0; i < 5; i++ {
		a.Add(prefix, during, 1, 123, 9999, 17, 1)
	}
	vs := a.Analyze([]*aevents.Event{eventAt(start, time.Hour)}, pEnd, DefaultThreshold)
	if !vs[0].HasEventData || vs[0].EventPackets != 5 {
		t.Fatalf("event data = %+v", vs[0])
	}
}

func TestHigherThresholdDetectsRealBursts(t *testing.T) {
	// §5.3: results stable even at 10*SD for genuine bursts.
	a := New()
	start := time.Date(2018, 10, 20, 12, 0, 0, 0, time.UTC)
	fill(a, start, 30)
	tb := start.Add(-analysis.SlotDuration)
	for i := 0; i < 500; i++ {
		a.Add(prefix, tb, uint32(i), 123, uint16(i), 17, 1)
	}
	ev := eventAt(start, time.Hour)
	for _, thr := range []float64{2.5, 10} {
		vs := a.Analyze([]*aevents.Event{ev}, pEnd, thr)
		if !vs[0].Within10Min {
			t.Fatalf("burst missed at threshold %v", thr)
		}
	}
}

func TestNoDetectionDuringWarmup(t *testing.T) {
	// A burst older than 48h falls into the detector's warm-up (the
	// first 24h of the 72h window have no full window) and must not fire.
	a := New()
	start := time.Date(2018, 10, 20, 12, 0, 0, 0, time.UTC)
	tb := start.Add(-aevents.PreWindow).Add(2 * time.Hour)
	for i := 0; i < 500; i++ {
		a.Add(prefix, tb, uint32(i), 123, uint16(i), 17, 1)
	}
	vs := a.Analyze([]*aevents.Event{eventAt(start, time.Hour)}, pEnd, DefaultThreshold)
	if len(vs[0].Anomalies) != 0 {
		t.Fatalf("warm-up burst detected: %+v", vs[0].Anomalies)
	}
	if !vs[0].HasPreData {
		t.Fatal("burst samples not counted as pre data")
	}
}

func TestSlotsAccounting(t *testing.T) {
	a := New()
	if a.Slots() != 0 {
		t.Fatal("fresh aggregator has slots")
	}
	now := time.Unix(1e9, 0)
	a.Add(prefix, now, 1, 2, 3, 17, 1)
	a.Add(prefix, now.Add(time.Second), 1, 2, 3, 17, 1) // same slot
	a.Add(prefix, now.Add(analysis.SlotDuration), 1, 2, 3, 17, 1)
	if a.Slots() != 2 {
		t.Fatalf("slots = %d", a.Slots())
	}
}

// TestSlotKeyRoundTrip packs prefixes of every length with slots at both
// ends of the key's range and between, and demands each prefix and slot
// back and distinct keys for distinct pairs; the slots just outside the
// range are refused, by keyOf and by Add, and years 0 and 9999 are in it.
func TestSlotKeyRoundTrip(t *testing.T) {
	slots := []int64{-slotBias, -slotBias + 1, -1, 0, 1, analysis.Slot(pEnd), slotBias - 2, slotBias - 1}
	for _, y := range []int{0, 9999} {
		slots = append(slots, analysis.Slot(time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC)), analysis.Slot(time.Date(y, 12, 31, 23, 59, 59, 0, time.UTC)))
	}
	seen := map[slotKey]bool{}
	for l := 0; l <= 32; l++ {
		for _, addr := range []uint32{0, 0xffffffff, 0xcb007105, 0x80000001} {
			p := bgp.MakePrefix(addr, uint8(l))
			if k, _ := keyOf(p, 0); seen[k] {
				continue // a short length masks two addresses alike
			}
			for _, s := range slots {
				k, ok := keyOf(p, s)
				if !ok || k.prefix() != p || k.slot() != s || seen[k] {
					t.Fatalf("keyOf(%s, %d) = %#x %v: unpacks to %s, %d (seen before: %v)", p, s, uint64(k), ok, k.prefix(), k.slot(), seen[k])
				}
				seen[k] = true
			}
			for _, s := range []int64{-slotBias - 1, slotBias, 1 << 62, -1 << 62} {
				if _, ok := keyOf(p, s); ok {
					t.Fatalf("keyOf(%s, %d) accepted a slot outside the key's range", p, s)
				}
			}
		}
	}
	a := New()
	a.Add(prefix, time.Unix(slotBias*300, 0), 1, 2, 3, 17, 1)
	if a.Slots() != 0 {
		t.Fatalf("Add kept a slot outside the key's range")
	}
}
