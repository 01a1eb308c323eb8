package scenario

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/fabric"
	"repro/internal/stats"
)

// countingExecutor is the cheapest possible Executor — what the bench
// harness's sizeWorld runs — so Drive's own cost is all that is measured.
type countingExecutor struct {
	batches, controls, packets int64
}

func (c *countingExecutor) Control(time.Time, uint32, *bgp.Update) error {
	c.controls++
	return nil
}

func (c *countingExecutor) Inject(b *fabric.Batch) error {
	c.batches++
	c.packets += b.Packets
	return nil
}

// driveCounting runs Drive over w under a counting executor and returns
// what it dispatched plus the heap allocations the walk made.
func driveCounting(tb testing.TB, w *World) (ex countingExecutor, mallocs, bytes uint64) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Drive(w, func(*stats.RNG) (Executor, error) { return &ex, nil })
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	return ex, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// BenchmarkDrive measures the generator loop alone over the test world:
// day generation, splitting, ordering and the control/batch interleave,
// per dispatched batch.
func BenchmarkDrive(b *testing.B) {
	w, err := Plan(TestConfig())
	if err != nil {
		b.Fatal(err)
	}
	var batches, mallocs, bytes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, m, by := driveCounting(b, w)
		batches += uint64(ex.batches)
		mallocs += m
		bytes += by
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(batches), "ns/batch")
	b.ReportMetric(float64(mallocs)/float64(batches), "allocs/batch")
	b.ReportMetric(float64(bytes)/float64(batches), "B/batch")
}

var planSink *World

// BenchmarkPlan measures planning the test world.
func BenchmarkPlan(b *testing.B) {
	cfg := TestConfig()
	for i := 0; i < b.N; i++ {
		w, err := Plan(cfg)
		if err != nil {
			b.Fatal(err)
		}
		planSink = w
	}
}

// TestDriveAllocs pins the generator loop's allocation rate on the test
// world. What remains is per control message (the UPDATE and its
// attribute slices, two fifths of it), per attack (vector and
// reflector-pool set-up) and the per-packet hooks of a server's or a
// scan's whole-day batches; a closure or scratch slice per attack batch
// would put it above 1.
func TestDriveAllocs(t *testing.T) {
	w := planTest(t)
	ex, mallocs, _ := driveCounting(t, w)
	perBatch := float64(mallocs) / float64(ex.batches)
	t.Logf("%d batches, %d control messages, %d allocations: %.3f allocs/batch",
		ex.batches, ex.controls, mallocs, perBatch)
	if perBatch > 0.5 {
		t.Errorf("Drive allocates %.3f times per batch, want <= 0.5", perBatch)
	}
}
