package rtbh_test

import (
	"context"
	"testing"

	rtbh "repro"
)

// benchLiveRun drives one full live run per iteration and reports
// end-to-end flow throughput as collected_records/s — what reached the
// analyzer, from the run's live.ipfix.collected_records counter — beside
// exported_records/s, the exporter's rate (the two differ by whatever
// the collector dropped). profile "" runs without chaos at all;
// "none" installs the fault wrappers with an empty schedule, so
// comparing BenchmarkLiveClean with BenchmarkLiveWithChaos/none bounds
// the inactive-wrapper overhead (target: ≤2%).
func benchLiveRun(b *testing.B, profile string) {
	b.Helper()
	cfg := chaosConfig()
	var exported, collected int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		reg := rtbh.NewMetricsRegistry()
		lr, err := rtbh.NewLiveRun(cfg, dir, reg)
		if err != nil {
			b.Fatal(err)
		}
		if profile != "" {
			if err := lr.EnableChaos(1, profile); err != nil {
				b.Fatal(err)
			}
		}
		sum, err := lr.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		exported += sum.FlowRecords
		collected += reg.Snapshot().Counter("live.ipfix.collected_records")
	}
	b.ReportMetric(float64(collected)/b.Elapsed().Seconds(), "collected_records/s")
	b.ReportMetric(float64(exported)/b.Elapsed().Seconds(), "exported_records/s")
}

// BenchmarkLiveClean is the baseline: the live pipeline with no fault
// plan and therefore no wrappers on either transport.
func BenchmarkLiveClean(b *testing.B) { benchLiveRun(b, "") }

// BenchmarkLiveWithChaos measures the live pipeline under fault plans:
// "none" quantifies the cost of the wrappers themselves, the active
// profiles the cost of actually injected faults plus recovery.
func BenchmarkLiveWithChaos(b *testing.B) {
	for _, profile := range []string{"none", "lossy-udp", "flapping-tcp"} {
		b.Run(profile, func(b *testing.B) { benchLiveRun(b, profile) })
	}
}
