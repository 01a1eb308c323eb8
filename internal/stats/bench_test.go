package stats

import "testing"

// BenchmarkEWMAObserve measures the per-slot detector cost on a full
// window, which is the state the anomaly scan keeps it in for two of every
// pre-window's three days: Observe tests the value against the window's
// mean and deviation before pushing it, Push (the scan's path for values
// below its support floor) only pushes.
func BenchmarkEWMAObserve(b *testing.B) {
	warm := func() *EWMA {
		e := NewEWMA(288, 2.5)
		r := NewRNG(1)
		for i := 0; i < 288; i++ {
			e.Observe(r.Float64() * 100)
		}
		return e
	}
	b.Run("full-window", func(b *testing.B) {
		e := warm()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchAnomalous = e.Observe(float64(i & 0xff))
		}
	})
	b.Run("push-only", func(b *testing.B) {
		e := warm()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Push(float64(i & 0xff))
		}
	})
}

var benchAnomalous bool

// BenchmarkBinomialSampling measures the 1:10000 thinning hot path.
func BenchmarkBinomialSampling(b *testing.B) {
	r := NewRNG(2)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += r.Binomial(1_000_000, 0.0001)
	}
	_ = sink
}

// BenchmarkRNGUint64 measures the base generator.
func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(3)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
