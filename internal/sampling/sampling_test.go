package sampling

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, stats.NewRNG(1)); err == nil {
		t.Fatal("rate 0 accepted")
	}
	if _, err := New(-5, stats.NewRNG(1)); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := New(10, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
	s, err := New(10000, stats.NewRNG(1))
	if err != nil || s.Rate() != 10000 {
		t.Fatalf("New: %v, rate %d", err, s.Rate())
	}
}

func TestRateOnePassesEverything(t *testing.T) {
	s, _ := New(1, stats.NewRNG(2))
	for _, n := range []int64{0, 1, 17, 1000000} {
		if got := s.Sample(n); got != n {
			t.Fatalf("Sample(%d) at rate 1 = %d", n, got)
		}
	}
}

func TestSampleMeanMatchesRate(t *testing.T) {
	s, _ := New(10000, stats.NewRNG(3))
	const n = int64(1000000) // expect ~100 samples per call
	const trials = 2000
	var total int64
	for i := 0; i < trials; i++ {
		total += s.Sample(n)
	}
	mean := float64(total) / trials
	want := float64(n) / 10000
	if math.Abs(mean-want) > 0.05*want {
		t.Fatalf("mean samples = %v, want ~%v", mean, want)
	}
}

func TestSampleNeverExceedsInput(t *testing.T) {
	f := func(seed uint64, nRaw int64) bool {
		n := nRaw % (1 << 30)
		if n < 0 {
			n = -n
		}
		s, _ := New(100, stats.NewRNG(seed))
		got := s.Sample(n)
		return got >= 0 && got <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleZeroAndNegative(t *testing.T) {
	s, _ := New(10000, stats.NewRNG(4))
	if s.Sample(0) != 0 || s.Sample(-10) != 0 {
		t.Fatal("non-positive packet counts must sample to zero")
	}
}

func TestSmallFlowsOftenInvisible(t *testing.T) {
	// The paper's central measurement caveat: at 1:10,000 most small
	// flows leave no samples at all. A 100-packet flow is invisible ~99%
	// of the time.
	s, _ := New(10000, stats.NewRNG(5))
	invisible := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if s.Sample(100) == 0 {
			invisible++
		}
	}
	frac := float64(invisible) / trials
	if frac < 0.97 || frac > 1.0 {
		t.Fatalf("invisible fraction for 100-packet flows = %v, want ~0.99", frac)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a, _ := New(1000, stats.NewRNG(7))
	b, _ := New(1000, stats.NewRNG(7))
	for i := 0; i < 100; i++ {
		if a.Sample(123456) != b.Sample(123456) {
			t.Fatal("same-seeded samplers diverged")
		}
	}
}
