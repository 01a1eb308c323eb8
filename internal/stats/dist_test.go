package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPoissonMoments(t *testing.T) {
	r := NewRNG(10)
	for _, lambda := range []float64{0.5, 3, 25, 100, 5000} {
		const n = 50000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(lambda))
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-lambda) > 0.05*lambda+0.1 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.1*lambda+0.5 {
			t.Errorf("Poisson(%v) variance = %v", lambda, variance)
		}
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	r := NewRNG(11)
	if v := r.Poisson(0); v != 0 {
		t.Fatalf("Poisson(0) = %d", v)
	}
	if v := r.Poisson(-3); v != 0 {
		t.Fatalf("Poisson(-3) = %d", v)
	}
}

func TestBinomialMoments(t *testing.T) {
	r := NewRNG(12)
	cases := []struct {
		n int64
		p float64
	}{
		{50, 0.4},          // exact path
		{100000, 0.0001},   // Poisson path (the sampling regime)
		{1000000, 0.3},     // normal path
		{10000000, 0.0001}, // 1:10000 sampling of a large flow
	}
	for _, c := range cases {
		const trials = 20000
		var sum float64
		for i := 0; i < trials; i++ {
			sum += float64(r.Binomial(c.n, c.p))
		}
		mean := sum / trials
		want := float64(c.n) * c.p
		if math.Abs(mean-want) > 0.05*want+0.5 {
			t.Errorf("Binomial(%d, %v) mean = %v, want ~%v", c.n, c.p, mean, want)
		}
	}
}

func TestBinomialBounds(t *testing.T) {
	f := func(seed uint64, nRaw int64, pRaw float64) bool {
		n := nRaw % 1000000
		if n < 0 {
			n = -n
		}
		p := math.Abs(pRaw)
		p -= math.Floor(p) // into [0,1)
		r := NewRNG(seed)
		k := r.Binomial(n, p)
		return k >= 0 && k <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialDegenerate(t *testing.T) {
	r := NewRNG(13)
	if v := r.Binomial(100, 0); v != 0 {
		t.Fatalf("Binomial(100, 0) = %d", v)
	}
	if v := r.Binomial(100, 1); v != 100 {
		t.Fatalf("Binomial(100, 1) = %d", v)
	}
	if v := r.Binomial(0, 0.5); v != 0 {
		t.Fatalf("Binomial(0, .5) = %d", v)
	}
}

func TestParetoBounds(t *testing.T) {
	r := NewRNG(14)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(1.2, 10, 1000)
		if v < 10 || v > 1000 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestParetoSkew(t *testing.T) {
	// A bounded Pareto with alpha just above 1 should put most mass near lo.
	r := NewRNG(15)
	const n = 50000
	below := 0
	for i := 0; i < n; i++ {
		if r.Pareto(1.2, 10, 10000) < 100 {
			below++
		}
	}
	if frac := float64(below) / n; frac < 0.8 {
		t.Fatalf("Pareto(1.2) mass below 10*lo = %v, want > 0.8", frac)
	}
}

func TestZipfRankDistribution(t *testing.T) {
	r := NewRNG(16)
	z := NewZipf(100, 1.0)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Draw(r)]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf rank 0 (%d) not more popular than rank 50 (%d)", counts[0], counts[50])
	}
	// Rank 0 should get roughly 1/H(100) ~ 19% of the mass.
	frac := float64(counts[0]) / n
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("Zipf rank-0 share = %v, want ~0.19", frac)
	}
}

func TestZipfDrawInRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		z := NewZipf(17, 0.8)
		for i := 0; i < 100; i++ {
			v := z.Draw(r)
			if v < 0 || v >= 17 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedChoice(t *testing.T) {
	r := NewRNG(17)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.WeightedChoice(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoiceAllZero(t *testing.T) {
	r := NewRNG(18)
	// Degenerate weights fall back to uniform; result must stay in range.
	for i := 0; i < 100; i++ {
		v := r.WeightedChoice([]float64{0, 0, 0, 0})
		if v < 0 || v >= 4 {
			t.Fatalf("WeightedChoice out of range: %d", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(19)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(2, 1); v <= 0 {
			t.Fatalf("LogNormal <= 0: %v", v)
		}
	}
}

// TestChooserMatchesWeightedChoice pins Chooser bit-exact to the scan it
// replaces: for the same weights and generator state, the same index
// comes out and the generator is left in the same state.
func TestChooserMatchesWeightedChoice(t *testing.T) {
	gen := NewRNG(0xC005E)
	random := func(n int, w func(i int) float64) []float64 {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = w(i)
		}
		return ws
	}
	cases := map[string][]float64{
		"single":          {3},
		"single zero":     {0},
		"all zero":        {0, 0, 0, 0},
		"all negative":    {-1, -2, -3},
		"zero head":       {0, 0, 5, 1},
		"zero tail":       {5, 1, 0, 0},
		"negative inside": {2, -7, 3, math.NaN(), 1},
		"denormals":       {5e-324, 1e-323, 5e-324, 0, 1.5e-323},
		"denormal vs big": {1e300, 5e-324, 1e300, 5e-324},
		"infinite":        {1, math.Inf(1), 1},
		"catalog":         {0.06, 0.40, 0.45, 0.083, 0.006, 0.001},
		"pareto 830":      random(830, func(int) float64 { return gen.Pareto(1.05, 1, 4000) }),
		"sparse 5000": random(5000, func(i int) float64 {
			if i%7 != 0 {
				return 0
			}
			return gen.Float64()
		}),
		"uniform 20000": random(20000, func(int) float64 { return gen.Float64() }),
		"mixed sign 20000": random(20000, func(int) float64 {
			return gen.NormFloat64()
		}),
	}
	for name, weights := range cases {
		c := NewChooser(weights)
		seen := make(map[int]bool)
		a, b := NewRNG(42), NewRNG(42)
		for draw := 0; draw < 3000; draw++ {
			want, got := a.WeightedChoice(weights), c.Choose(b)
			if got != want {
				t.Fatalf("%s: draw %d: Chooser picked %d, WeightedChoice %d", name, draw, got, want)
			}
			if *a != *b {
				t.Fatalf("%s: draw %d: generator states diverged", name, draw)
			}
			seen[got] = true
		}
		if len(weights) > 4 && len(seen) < 2 {
			t.Errorf("%s: 3000 draws hit %d distinct indices", name, len(seen))
		}
	}
}
