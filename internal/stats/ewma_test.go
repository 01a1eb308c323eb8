package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEWMANotReadyBeforeFullWindow(t *testing.T) {
	e := NewEWMA(10, 2.5)
	for i := 0; i < 10; i++ {
		if e.Ready() {
			t.Fatalf("Ready after %d observations, window 10", i)
		}
		// Even a huge spike must not be tagged before the window fills.
		if e.Observe(1e9) {
			t.Fatalf("anomaly reported during warm-up at observation %d", i)
		}
	}
	if !e.Ready() {
		t.Fatal("not Ready after a full window")
	}
}

func TestEWMADetectsSpike(t *testing.T) {
	e := NewEWMA(288, 2.5)
	r := NewRNG(100)
	for i := 0; i < 288; i++ {
		e.Observe(100 + 5*r.NormFloat64())
	}
	if e.Observe(100) {
		t.Fatal("baseline value tagged anomalous")
	}
	if !e.Observe(100 + 100) {
		t.Fatal("20-sigma spike not tagged anomalous")
	}
}

func TestEWMAFlatHistory(t *testing.T) {
	e := NewEWMA(50, 2.5)
	for i := 0; i < 50; i++ {
		e.Observe(7)
	}
	if e.Observe(7) {
		t.Fatal("constant stream tagged anomalous")
	}
	if !e.Observe(8) {
		t.Fatal("increase over flat history not tagged")
	}
}

func TestEWMAMeanStdAgainstDirectFormula(t *testing.T) {
	// Compare the incremental implementation against a direct evaluation
	// of the paper's formula over the window.
	const span = 20
	e := NewEWMA(span, 2.5)
	r := NewRNG(101)
	var window []float64
	alpha := 2.0 / (span + 1)
	for i := 0; i < 200; i++ {
		x := r.Float64() * 50
		e.Observe(x)
		window = append(window, x)
		if len(window) > span {
			window = window[1:]
		}
		var wsum, mean float64
		for age := 0; age < len(window); age++ {
			w := math.Pow(1-alpha, float64(age))
			wsum += w
			mean += w * window[len(window)-1-age]
		}
		mean /= wsum
		var variance float64
		for age := 0; age < len(window); age++ {
			w := math.Pow(1-alpha, float64(age))
			d := window[len(window)-1-age] - mean
			variance += w * d * d
		}
		variance /= wsum
		gotMean, gotStd := e.MeanStd()
		if math.Abs(gotMean-mean) > 1e-6 {
			t.Fatalf("step %d: mean = %v, want %v", i, gotMean, mean)
		}
		if math.Abs(gotStd-math.Sqrt(variance)) > 1e-6 {
			t.Fatalf("step %d: std = %v, want %v", i, gotStd, math.Sqrt(variance))
		}
	}
}

func TestEWMARecentValuesWeighHeavier(t *testing.T) {
	// After a level shift the mean should move toward the new level
	// faster than a plain moving average of the same window would.
	e := NewEWMA(100, 2.5)
	for i := 0; i < 100; i++ {
		e.Observe(0)
	}
	for i := 0; i < 50; i++ {
		e.Observe(10)
	}
	mean, _ := e.MeanStd()
	if mean <= 5 {
		t.Fatalf("EWMA mean after half-window of new level = %v, want > 5 (recency weighting)", mean)
	}
}

func TestEWMAReset(t *testing.T) {
	e := NewEWMA(10, 2.5)
	for i := 0; i < 30; i++ {
		e.Observe(float64(i))
	}
	e.Reset()
	if e.Ready() {
		t.Fatal("Ready after Reset")
	}
	if m, s := e.MeanStd(); m != 0 || s != 0 {
		t.Fatalf("MeanStd after Reset = %v, %v", m, s)
	}
}

func TestEWMANumericalStabilityLongStream(t *testing.T) {
	// Run far past the refresh cadence and confirm the incremental state
	// still matches an exact recompute.
	e := NewEWMA(288, 2.5)
	r := NewRNG(102)
	for i := 0; i < 3*ewmaRefreshEvery+17; i++ {
		e.Observe(1e6 * r.Float64())
	}
	m1, s1 := e.MeanStd()
	e.recompute()
	m2, s2 := e.MeanStd()
	if math.Abs(m1-m2) > 1e-3 || math.Abs(s1-s2) > 1e-3 {
		t.Fatalf("incremental state drifted: mean %v vs %v, std %v vs %v", m1, m2, s1, s2)
	}
}

func TestEWMAStdNonNegativeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		e := NewEWMA(1+r.Intn(64), 2.5)
		for i := 0; i < 300; i++ {
			e.Observe(r.Float64() * 1000)
			if _, s := e.MeanStd(); s < 0 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEWMAHighThresholdFiresLess(t *testing.T) {
	// The paper reports stable results between 2.5*SD and 10*SD for their
	// bursts; structurally, a higher threshold can never fire more often.
	r := NewRNG(103)
	low := NewEWMA(100, 2.5)
	high := NewEWMA(100, 10)
	lowCount, highCount := 0, 0
	for i := 0; i < 2000; i++ {
		x := r.Float64() * 10
		if i%97 == 0 {
			x += 500
		}
		if low.Observe(x) {
			lowCount++
		}
		if high.Observe(x) {
			highCount++
		}
	}
	if highCount > lowCount {
		t.Fatalf("threshold 10 fired %d > threshold 2.5 fired %d", highCount, lowCount)
	}
	if lowCount == 0 {
		t.Fatal("2.5-sigma detector never fired on planted bursts")
	}
}

// TestEWMACachedWeightBits pins the two shortcuts the sparse anomaly scan
// relies on to the bits: the weight sum cached at construction, and
// ResetZeros + Push standing in for a run of Observe calls whose verdicts
// the caller discards.
func TestEWMACachedWeightBits(t *testing.T) {
	for _, span := range []int{1, 20, 288} {
		e := NewEWMA(span, 2.5)
		r := NewRNG(uint64(span))
		for n := 0; n <= 2*e.Window; n++ {
			// The formula as written in the paper, at the current fill level.
			var mean, std float64
			if m := min(n, e.Window); m > 0 {
				ws := (1 - math.Pow(e.decay, float64(m))) / (1 - e.decay)
				mean = e.sum / ws
				std = math.Sqrt(max(e.sumSq/ws-mean*mean, 0))
			}
			gotMean, gotStd := e.MeanStd()
			if math.Float64bits(gotMean) != math.Float64bits(mean) || math.Float64bits(gotStd) != math.Float64bits(std) {
				t.Fatalf("span %d fill %d: MeanStd = %v, %v, want %v, %v", span, n, gotMean, gotStd, mean, std)
			}
			e.Observe(r.Float64() * 100)
		}
	}

	// A dense run that crosses the exact-recompute boundary inside the
	// zero stretch's tail: zeros, then values on both sides of a floor.
	const zeros, floor = ewmaRefreshEvery - 100, 40.0
	plain, sparse := NewEWMA(288, 2.5), NewEWMA(288, 2.5)
	for i := 0; i < 10; i++ {
		sparse.Observe(float64(i)) // ResetZeros must not depend on a clean detector
	}
	for i := 0; i < zeros; i++ {
		if plain.Observe(0) {
			t.Fatalf("zero %d tagged anomalous", i)
		}
	}
	sparse.ResetZeros(zeros)
	r := NewRNG(7)
	for i := 0; i < 400; i++ {
		x := math.Floor(r.Float64() * 60)
		if i%5 == 0 {
			x = 0
		}
		want := plain.Observe(x) && x >= floor
		got := false
		if x < floor {
			sparse.Push(x)
		} else {
			got = sparse.Observe(x)
		}
		if got != want {
			t.Fatalf("value %d (%v): sparse verdict %v, plain %v", i, x, got, want)
		}
		if !reflect.DeepEqual(plain, sparse) ||
			math.Float64bits(plain.sum) != math.Float64bits(sparse.sum) ||
			math.Float64bits(plain.sumSq) != math.Float64bits(sparse.sumSq) {
			t.Fatalf("value %d: states diverge:\nplain  %+v\nsparse %+v", i, plain, sparse)
		}
	}
	if plain.n <= ewmaRefreshEvery {
		t.Fatal("the run never crossed the recompute boundary")
	}
}
