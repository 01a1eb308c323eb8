package dropstats

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/peeringdb"
)

func TestCounterRates(t *testing.T) {
	c := analysis.Counter{DroppedPkts: 30, ForwardedPkts: 70, DroppedBytes: 440, ForwardedBytes: 560}
	if r := c.DropRatePkts(); math.Abs(r-0.3) > 1e-12 {
		t.Fatalf("pkt rate = %v", r)
	}
	if r := c.DropRateBytes(); math.Abs(r-0.44) > 1e-12 {
		t.Fatalf("byte rate = %v", r)
	}
	var empty analysis.Counter
	if empty.DropRatePkts() != 0 || empty.DropRateBytes() != 0 {
		t.Fatal("empty counter rates nonzero")
	}
}

func TestByLengthAndAverages(t *testing.T) {
	a := New()
	// /32: half dropped. /24: all dropped.
	for i := 0; i < 50; i++ {
		a.Add(1, 32, 100, true, 1, 500)
		a.Add(1, 32, 100, false, 1, 500)
	}
	for i := 0; i < 10; i++ {
		a.Add(2, 24, 100, true, 1, 500)
	}
	rows := a.ByLength()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].PrefixLen != 24 || rows[0].DropRatePkts() != 1 {
		t.Fatalf("row /24 = %+v", rows[0])
	}
	if rows[1].PrefixLen != 32 || math.Abs(rows[1].DropRatePkts()-0.5) > 1e-12 {
		t.Fatalf("row /32 = %+v", rows[1])
	}
	// /32 carries 100/110 of the traffic.
	if math.Abs(rows[1].TrafficSharePkts-100.0/110) > 1e-12 {
		t.Fatalf("share = %v", rows[1].TrafficSharePkts)
	}
	p, b := a.AverageDropRate()
	if math.Abs(p-60.0/110) > 1e-12 || math.Abs(b-60.0/110) > 1e-12 {
		t.Fatalf("averages = %v %v", p, b)
	}
}

func TestDropRateCDFPerEvent(t *testing.T) {
	a := New()
	// Three /32 events with drop rates 0, 0.5, 1.
	for i := 0; i < 10; i++ {
		a.Add(1, 32, 100, false, 1, 100)
		a.Add(2, 32, 100, i%2 == 0, 1, 100)
		a.Add(3, 32, 100, true, 1, 100)
	}
	// One tiny event excluded by minPkts.
	a.Add(4, 32, 100, true, 1, 100)

	cdf := a.DropRateCDF(32, 5)
	if cdf.Len() != 3 {
		t.Fatalf("CDF size = %d, want 3", cdf.Len())
	}
	if med := cdf.Quantile(0.5); math.Abs(med-0.5) > 1e-12 {
		t.Fatalf("median = %v", med)
	}
	if a.DropRateCDF(24, 1).Len() != 0 {
		t.Fatal("/24 CDF should be empty")
	}
	if a.Events() != 4 {
		t.Fatalf("events = %d", a.Events())
	}
}

func TestTopSourcesOrderingAndClasses(t *testing.T) {
	a := New()
	// Member 100: acceptor (drops all), heavy.
	for i := 0; i < 1000; i++ {
		a.Add(1, 32, 100, true, 1, 100)
	}
	// Member 200: rejector, medium.
	for i := 0; i < 500; i++ {
		a.Add(1, 32, 200, false, 1, 100)
	}
	// Member 300: inconsistent 50/50, light.
	for i := 0; i < 100; i++ {
		a.Add(1, 32, 300, i%2 == 0, 1, 100)
	}
	// Non-/32 traffic must not appear in source stats.
	a.Add(2, 24, 400, true, 100000, 100)

	top := a.TopSources(10)
	if len(top) != 3 {
		t.Fatalf("sources = %d", len(top))
	}
	if top[0].Member != 100 || top[1].Member != 200 || top[2].Member != 300 {
		t.Fatalf("order = %v", top)
	}
	cls := a.ClassifyTopSources(10)
	if cls.Acceptors != 1 || cls.Rejectors != 1 || cls.Inconsistent != 1 {
		t.Fatalf("classes = %+v", cls)
	}
	if cls.TopShare != 1 {
		t.Fatalf("top share = %v", cls.TopShare)
	}
	// Top-2 only.
	top = a.TopSources(2)
	if len(top) != 2 {
		t.Fatalf("top-2 = %d", len(top))
	}
}

func TestTypesOfTopSources(t *testing.T) {
	a := New()
	for i := 0; i < 10; i++ {
		a.Add(1, 32, 100, false, 1, 100) // NSP rejector
		a.Add(1, 32, 200, true, 1, 100)  // Content acceptor
	}
	pdb := peeringdb.New()
	pdb.Add(peeringdb.Network{ASN: 100, Type: peeringdb.TypeNSP})
	pdb.Add(peeringdb.Network{ASN: 200, Type: peeringdb.TypeContent})

	tt := a.TypesOfTopSources(10, pdb)
	if tt.All[peeringdb.TypeNSP] != 1 || tt.All[peeringdb.TypeContent] != 1 {
		t.Fatalf("all = %v", tt.All)
	}
	if tt.NonAcceptors[peeringdb.TypeNSP] != 1 || tt.NonAcceptors[peeringdb.TypeContent] != 0 {
		t.Fatalf("non-acceptors = %v", tt.NonAcceptors)
	}
}

func TestAddIgnoresInvalidLength(t *testing.T) {
	a := New()
	a.Add(1, 40, 100, true, 1, 1)
	if len(a.ByLength()) != 0 {
		t.Fatal("invalid length recorded")
	}
}

// TestRemapThenAddKeepsIDs pins Add to the renamed store: after
// RemapEvents moves event 1 to 2, an Add under ID 1 opens a new event 1
// and leaves event 2 as it was.
func TestRemapThenAddKeepsIDs(t *testing.T) {
	a := New()
	a.Add(1, 24, 0, true, 1, 100)
	if err := a.RemapEvents(map[int]int{1: 2}); err != nil {
		t.Fatal(err)
	}
	a.Add(1, 24, 0, true, 5, 500)
	got := a.EventStats()
	if len(got) != 2 || got[0].ID != 1 || got[0].DroppedPkts != 5 || got[1].ID != 2 || got[1].DroppedPkts != 1 {
		t.Fatalf("events after remap and Add = %+v; want event 1 with 5 packets, event 2 with 1", got)
	}
}
