package anomaly

import (
	"testing"
	"time"

	"repro/internal/analysis"
	aevents "repro/internal/analysis/events"
	"repro/internal/bgp"
	"repro/internal/stats"
)

// BenchmarkAnalyzeScaled measures the pre-RTBH scan over 200 one-hour
// events on distinct /32s, by how much of each 72-hour pre-window holds
// samples: none (the paper's 46 %, Fig 11), a dozen slots, or all of them.
func BenchmarkAnalyzeScaled(b *testing.B) {
	const nEvents = 200
	start := time.Date(2018, 10, 20, 12, 0, 0, 0, time.UTC)
	preSlots := int(aevents.PreWindow / analysis.SlotDuration)
	for _, bc := range []struct {
		name      string
		populated int // pre-window slots with samples, per event
	}{{"nodata", 0}, {"sparse", 12}, {"dense", preSlots}} {
		b.Run(bc.name, func(b *testing.B) {
			a, r := New(), stats.NewRNG(1)
			evs := make([]*aevents.Event, nEvents)
			slots := make([]int, preSlots)
			for i := range slots {
				slots[i] = i
			}
			for i := range evs {
				p := bgp.MakePrefix(0xcb007100+uint32(i), 32)
				at := start.Add(time.Duration(i) * 7 * time.Minute)
				evs[i] = &aevents.Event{ID: i, Prefix: p, Episodes: []aevents.Episode{{Announce: at, Withdraw: at.Add(time.Hour)}}}
				r.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
				for _, s := range slots[:bc.populated] {
					t := at.Add(-time.Duration(s+1) * analysis.SlotDuration)
					for k := 1 + r.Intn(8); k > 0; k-- {
						a.Add(p, t, uint32(r.Intn(64)), 123, uint16(r.Intn(64)), 17, 1)
					}
				}
				a.Add(p, at.Add(10*time.Minute), 1, 123, 80, 17, 1) // during-event sample
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchVerdicts = a.AnalyzeScaled(evs, start.Add(48*time.Hour), DefaultThreshold, 1)
			}
		})
	}
}

var benchVerdicts []Verdict
