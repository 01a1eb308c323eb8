package events

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/stats"
)

// BenchmarkSweep measures the Fig 10 sweep at the report's default
// thresholds (1..60 minutes) over 20,000 updates on 2,000 blackhole
// streams, roughly four simulated days of the paper configuration.
func BenchmarkSweep(b *testing.B) {
	r := stats.NewRNG(1)
	us := make([]analysis.ControlUpdate, 20000)
	at := t0
	for i := range us {
		at = at.Add(time.Duration(r.Intn(30)) * time.Second)
		us[i] = upd(at, uint32(100+r.Intn(4)), bgp.MakePrefix(0xcb007100+uint32(r.Intn(500)), 32), r.Bool(0.55))
	}
	deltas := make([]time.Duration, 60)
	for i := range deltas {
		deltas[i] = time.Duration(i+1) * time.Minute
	}
	b.Run(fmt.Sprintf("deltas=%d", len(deltas)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchPoints, _ = Sweep(us, deltas, pEnd)
		}
	})
}

var benchPoints []SweepPoint
