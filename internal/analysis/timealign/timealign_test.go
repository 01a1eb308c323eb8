package timealign

import (
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/events"
	"repro/internal/bgp"
)

var (
	prefix = bgp.MustParsePrefix("203.0.113.5/32")
	t0     = time.Date(2018, 10, 1, 12, 0, 0, 0, time.UTC)
	pEnd   = time.Date(2019, 1, 11, 0, 0, 0, 0, time.UTC)
)

func indexWithEpisode(t *testing.T, announce, withdraw time.Time) *events.Index {
	t.Helper()
	us := []analysis.ControlUpdate{
		{Time: announce, Peer: 100, Prefix: prefix, Announce: true,
			Communities: bgp.Communities{bgp.Blackhole}},
		{Time: withdraw, Peer: 100, Prefix: prefix},
	}
	evs := events.Merge(us, events.DefaultDelta, pEnd)
	return events.NewIndex(evs, pEnd)
}

func TestEstimateRecoversInjectedOffset(t *testing.T) {
	ix := indexWithEpisode(t, t0, t0.Add(10*time.Minute))
	a, c := New(), events.NewCursor(ix)
	// Data-plane clock runs 40ms behind: data_time = true_time - 40ms,
	// so adding +40ms re-aligns it.
	skew := -40 * time.Millisecond
	for i := 0; i < 1000; i++ {
		trueTime := t0.Add(time.Duration(i) * 500 * time.Millisecond)
		a.AddDropped(c, prefix.Addr, trueTime.Add(skew))
	}
	res := a.Estimate(10 * time.Millisecond)
	if res.Dropped != 1000 {
		t.Fatalf("dropped = %d", res.Dropped)
	}
	if res.BestOverlap < 0.99 {
		t.Fatalf("best overlap = %v", res.BestOverlap)
	}
	if res.BestOffset < 30*time.Millisecond || res.BestOffset > 50*time.Millisecond {
		t.Fatalf("best offset = %v, want ~+40ms", res.BestOffset)
	}
	// The curve must degrade away from the peak: a 2s offset shifts
	// boundary records out.
	var at2s float64
	for _, p := range res.Curve {
		if p.Offset == 2*time.Second {
			at2s = p.Overlap
		}
	}
	if at2s > res.BestOverlap {
		t.Fatal("curve not peaked")
	}
}

func TestRecordsOutsideIntervalsLowerOverlap(t *testing.T) {
	ix := indexWithEpisode(t, t0, t0.Add(10*time.Minute))
	a, c := New(), events.NewCursor(ix)
	// 900 inside, 100 dropped long before the episode (bilateral drops).
	for i := 0; i < 900; i++ {
		a.AddDropped(c, prefix.Addr, t0.Add(time.Duration(i)*300*time.Millisecond))
	}
	for i := 0; i < 100; i++ {
		a.AddDropped(c, prefix.Addr, t0.Add(-time.Hour))
	}
	res := a.Estimate(50 * time.Millisecond)
	if res.BestOverlap < 0.85 || res.BestOverlap > 0.95 {
		t.Fatalf("overlap = %v, want ~0.9", res.BestOverlap)
	}
}

func TestUnknownPrefixCountsAgainstOverlap(t *testing.T) {
	ix := indexWithEpisode(t, t0, t0.Add(10*time.Minute))
	a, c := New(), events.NewCursor(ix)
	a.AddDropped(c, prefix.Addr, t0.Add(time.Minute))
	a.AddDropped(c, 0x01020304, t0.Add(time.Minute)) // never blackholed
	res := a.Estimate(100 * time.Millisecond)
	if res.BestOverlap != 0.5 {
		t.Fatalf("overlap = %v, want 0.5", res.BestOverlap)
	}
}

func TestEmptyAggregator(t *testing.T) {
	a := New()
	res := a.Estimate(100 * time.Millisecond)
	if res.Dropped != 0 || len(res.Curve) != 0 {
		t.Fatalf("empty result = %+v", res)
	}
	if res := a.Estimate(0); len(res.Curve) != 0 {
		t.Fatal("zero step produced a curve")
	}
}

func TestBoundaryRecordContributesHalfOpenInterval(t *testing.T) {
	ix := indexWithEpisode(t, t0, t0.Add(10*time.Minute))
	a, c := New(), events.NewCursor(ix)
	// Record exactly at the announce time: valid for delta in [0, ...).
	a.AddDropped(c, prefix.Addr, t0)
	res := a.Estimate(50 * time.Millisecond)
	var atZero, atMinus float64
	for _, p := range res.Curve {
		switch p.Offset {
		case 0:
			atZero = p.Overlap
		case -time.Second:
			atMinus = p.Overlap
		}
	}
	if atZero != 1 {
		t.Fatalf("overlap at 0 = %v", atZero)
	}
	if atMinus != 0 {
		t.Fatalf("overlap at -1s = %v (record predates episode under that offset)", atMinus)
	}
}

func TestOverlappingExplanationsMergePerRecord(t *testing.T) {
	// Both a /32 and a covering /24 episode explain the same drop; the
	// record must count once, keeping the likelihood a proper fraction.
	us := []analysis.ControlUpdate{
		{Time: t0, Peer: 100, Prefix: prefix, Announce: true,
			Communities: bgp.Communities{bgp.Blackhole}},
		{Time: t0, Peer: 200, Prefix: bgp.MustParsePrefix("203.0.113.0/24"), Announce: true,
			Communities: bgp.Communities{bgp.Blackhole}},
		{Time: t0.Add(10 * time.Minute), Peer: 100, Prefix: prefix},
		{Time: t0.Add(10 * time.Minute), Peer: 200, Prefix: bgp.MustParsePrefix("203.0.113.0/24")},
	}
	evs := events.Merge(us, events.DefaultDelta, pEnd)
	ix := events.NewIndex(evs, pEnd)
	a, c := New(), events.NewCursor(ix)
	for i := 0; i < 100; i++ {
		a.AddDropped(c, prefix.Addr, t0.Add(time.Duration(i)*5*time.Second))
	}
	res := a.Estimate(100 * time.Millisecond)
	if res.BestOverlap > 1.0 {
		t.Fatalf("overlap exceeds 1: %v", res.BestOverlap)
	}
	if res.BestOverlap != 1.0 {
		t.Fatalf("overlap = %v, want exactly 1", res.BestOverlap)
	}
}

func TestDisjointExplanationsBothCount(t *testing.T) {
	// A record near the gap between two adjacent episodes gets a valid
	// offset interval from each; the curve must reflect both.
	us := []analysis.ControlUpdate{
		{Time: t0, Peer: 100, Prefix: prefix, Announce: true,
			Communities: bgp.Communities{bgp.Blackhole}},
		{Time: t0.Add(time.Minute), Peer: 100, Prefix: prefix},
		{Time: t0.Add(time.Minute + 3*time.Second), Peer: 100, Prefix: prefix, Announce: true,
			Communities: bgp.Communities{bgp.Blackhole}},
		{Time: t0.Add(2 * time.Minute), Peer: 100, Prefix: prefix},
	}
	evs := events.Merge(us, events.DefaultDelta, pEnd)
	ix := events.NewIndex(evs, pEnd)
	a, c := New(), events.NewCursor(ix)
	// Record in the middle of the 3s gap: explained under negative
	// offsets by the first episode and under positive offsets by the
	// second.
	a.AddDropped(c, prefix.Addr, t0.Add(time.Minute+1500*time.Millisecond))
	res := a.Estimate(500 * time.Millisecond)
	var atMinus2, atPlus2, atZero float64
	for _, p := range res.Curve {
		switch p.Offset {
		case -2 * time.Second:
			atMinus2 = p.Overlap
		case 2 * time.Second:
			atPlus2 = p.Overlap
		case 0:
			atZero = p.Overlap
		}
	}
	if atMinus2 != 1 || atPlus2 != 1 {
		t.Fatalf("offsets -2s/+2s = %v/%v, want 1/1", atMinus2, atPlus2)
	}
	if atZero != 0 {
		t.Fatalf("offset 0 = %v, want 0 (record in the gap)", atZero)
	}
}
