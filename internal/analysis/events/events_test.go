package events

import (
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
)

var (
	prefixA = bgp.MustParsePrefix("203.0.113.5/32")
	prefixB = bgp.MustParsePrefix("198.51.100.0/24")
	t0      = time.Date(2018, 10, 1, 12, 0, 0, 0, time.UTC)
	pEnd    = time.Date(2019, 1, 11, 0, 0, 0, 0, time.UTC)
)

func upd(t time.Time, peer uint32, p bgp.Prefix, announce bool) analysis.ControlUpdate {
	u := analysis.ControlUpdate{Time: t, Peer: peer, Prefix: p, Announce: announce}
	if announce {
		u.OriginAS = 777
		u.Communities = bgp.Communities{bgp.Blackhole}
	}
	return u
}

func TestMergeShortGapsIntoOneEvent(t *testing.T) {
	us := []analysis.ControlUpdate{
		upd(t0, 100, prefixA, true),
		upd(t0.Add(5*time.Minute), 100, prefixA, false),
		upd(t0.Add(7*time.Minute), 100, prefixA, true), // 2-min gap -> same event
		upd(t0.Add(15*time.Minute), 100, prefixA, false),
	}
	evs := Merge(us, DefaultDelta, pEnd)
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	e := evs[0]
	if len(e.Episodes) != 2 || e.Announcements != 2 {
		t.Fatalf("episodes = %d, announcements = %d", len(e.Episodes), e.Announcements)
	}
	if !e.Start().Equal(t0) {
		t.Fatalf("start = %v", e.Start())
	}
	if !e.End(pEnd).Equal(t0.Add(15 * time.Minute)) {
		t.Fatalf("end = %v", e.End(pEnd))
	}
	if e.OpenEnded() {
		t.Fatal("event marked open-ended")
	}
	if e.OriginAS != 777 {
		t.Fatalf("origin AS = %d", e.OriginAS)
	}
}

func TestMergeLongGapSplitsEvents(t *testing.T) {
	us := []analysis.ControlUpdate{
		upd(t0, 100, prefixA, true),
		upd(t0.Add(5*time.Minute), 100, prefixA, false),
		upd(t0.Add(16*time.Minute), 100, prefixA, true), // 11-min gap -> new event
		upd(t0.Add(30*time.Minute), 100, prefixA, false),
	}
	evs := Merge(us, DefaultDelta, pEnd)
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	// With a larger delta they merge.
	evs = Merge(us, 15*time.Minute, pEnd)
	if len(evs) != 1 {
		t.Fatalf("events at delta=15m = %d, want 1", len(evs))
	}
}

func TestMergeSeparatesPeersAndPrefixes(t *testing.T) {
	us := []analysis.ControlUpdate{
		upd(t0, 100, prefixA, true),
		upd(t0.Add(time.Minute), 200, prefixA, true), // other peer, same prefix
		upd(t0.Add(2*time.Minute), 100, prefixB, true),
	}
	evs := Merge(us, DefaultDelta, pEnd)
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3", len(evs))
	}
}

func TestMergeOpenEnded(t *testing.T) {
	us := []analysis.ControlUpdate{upd(t0, 100, prefixA, true)}
	evs := Merge(us, DefaultDelta, pEnd)
	if len(evs) != 1 || !evs[0].OpenEnded() {
		t.Fatalf("evs = %+v", evs)
	}
	if !evs[0].End(pEnd).Equal(pEnd) {
		t.Fatalf("open-ended end = %v", evs[0].End(pEnd))
	}
}

func TestMergeIgnoresOrphanWithdrawAndDupAnnounce(t *testing.T) {
	us := []analysis.ControlUpdate{
		upd(t0.Add(-time.Hour), 100, prefixA, false), // orphan withdraw
		upd(t0, 100, prefixA, true),
		upd(t0.Add(time.Minute), 100, prefixA, true), // refresh
		upd(t0.Add(2*time.Minute), 100, prefixA, false),
	}
	evs := Merge(us, DefaultDelta, pEnd)
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	if len(evs[0].Episodes) != 1 || evs[0].Announcements != 2 {
		t.Fatalf("episodes=%d ann=%d", len(evs[0].Episodes), evs[0].Announcements)
	}
}

func TestMergeCollectsExcludedPeers(t *testing.T) {
	u := upd(t0, 100, prefixA, true)
	u.Communities = bgp.Communities{bgp.Blackhole, bgp.MakeCommunity(0, 300), bgp.MakeCommunity(0, 400)}
	evs := Merge([]analysis.ControlUpdate{u}, DefaultDelta, pEnd)
	e := evs[0]
	if len(e.Excluded) != 2 || !e.Excluded[300] || !e.Excluded[400] {
		t.Fatalf("excluded = %v", e.Excluded)
	}
}

func TestActiveAtRespectsGaps(t *testing.T) {
	us := []analysis.ControlUpdate{
		upd(t0, 100, prefixA, true),
		upd(t0.Add(5*time.Minute), 100, prefixA, false),
		upd(t0.Add(8*time.Minute), 100, prefixA, true),
	}
	evs := Merge(us, DefaultDelta, pEnd)
	e := evs[0]
	if !e.ActiveAt(t0.Add(2*time.Minute), pEnd) {
		t.Fatal("not active during first episode")
	}
	if e.ActiveAt(t0.Add(6*time.Minute), pEnd) {
		t.Fatal("active during the gap")
	}
	if !e.ActiveAt(t0.Add(20*time.Minute), pEnd) {
		t.Fatal("not active in open-ended tail")
	}
}

func TestSweepMonotonic(t *testing.T) {
	// An on-off stream with gaps of 1..20 minutes.
	var us []analysis.ControlUpdate
	cursor := t0
	for i := 0; i < 20; i++ {
		us = append(us, upd(cursor, 100, prefixA, true))
		cursor = cursor.Add(5 * time.Minute)
		us = append(us, upd(cursor, 100, prefixA, false))
		cursor = cursor.Add(time.Duration(i+1) * time.Minute)
	}
	deltas := []time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute, 30 * time.Minute}
	points, lower := Sweep(us, deltas, pEnd)
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Events > points[i-1].Events {
			t.Fatalf("event count not monotone: %+v", points)
		}
	}
	// Lower bound: one stream / 20 announcements.
	if lower != 1.0/20 {
		t.Fatalf("lower bound = %v", lower)
	}
	if points[3].Events != 1 {
		t.Fatalf("delta=30m events = %d, want 1", points[3].Events)
	}
	if points[0].Fraction <= points[3].Fraction {
		t.Fatal("fraction must decrease with delta")
	}
}

func TestSweepEmpty(t *testing.T) {
	points, lower := Sweep(nil, []time.Duration{time.Minute}, pEnd)
	if points != nil || lower != 0 {
		t.Fatalf("sweep of empty stream: %v %v", points, lower)
	}
}

func buildIndex(t *testing.T) (*Index, []*Event) {
	t.Helper()
	us := []analysis.ControlUpdate{
		// Event 0: /32, two episodes with a gap.
		upd(t0, 100, prefixA, true),
		upd(t0.Add(5*time.Minute), 100, prefixA, false),
		upd(t0.Add(8*time.Minute), 100, prefixA, true),
		upd(t0.Add(20*time.Minute), 100, prefixA, false),
		// Event 1: covering /24, later.
		upd(t0.Add(2*time.Hour), 200, bgp.MustParsePrefix("203.0.113.0/24"), true),
		upd(t0.Add(3*time.Hour), 200, bgp.MustParsePrefix("203.0.113.0/24"), false),
	}
	evs := Merge(us, DefaultDelta, pEnd)
	if len(evs) != 2 {
		t.Fatalf("setup: events = %d", len(evs))
	}
	return NewIndex(evs, pEnd), evs
}

func TestIndexLookupActiveAndGap(t *testing.T) {
	ix, evs := buildIndex(t)
	ip := prefixA.Addr

	m := ix.Lookup(ip, t0.Add(2*time.Minute))
	if m.Event != evs[0] || !m.Active || m.Prefix != prefixA {
		t.Fatalf("active lookup = %+v", m)
	}
	// During the gap: window matches, not active.
	m = ix.Lookup(ip, t0.Add(6*time.Minute))
	if m.Event != evs[0] || m.Active {
		t.Fatalf("gap lookup = %+v", m)
	}
	// Outside both events.
	m = ix.Lookup(ip, t0.Add(30*time.Hour))
	if m.Event != nil {
		t.Fatalf("quiet-time lookup = %+v", m)
	}
}

func TestIndexLongestPrefixWins(t *testing.T) {
	ix, evs := buildIndex(t)
	ip := prefixA.Addr

	// During the /24 event, the host matches the /24.
	m := ix.Lookup(ip, t0.Add(150*time.Minute))
	if m.Event != evs[1] || !m.Active || m.Prefix.Len != 24 {
		t.Fatalf("/24 lookup = %+v", m)
	}
	// During the /32 gap with... construct: both /32 active window and /24 —
	// not overlapping here, but another host in the /24 matches only /24.
	other := prefixA.Addr + 7
	m = ix.Lookup(other, t0.Add(150*time.Minute))
	if m.Event != evs[1] || !m.Active {
		t.Fatalf("other-host /24 lookup = %+v", m)
	}
	if m2 := ix.Lookup(other, t0.Add(2*time.Minute)); m2.Event != nil {
		t.Fatalf("other host matched /32 event: %+v", m2)
	}
}

func TestIndexEverBlackholed(t *testing.T) {
	ix, _ := buildIndex(t)
	if p, ok := ix.EverBlackholed(prefixA.Addr); !ok || p != prefixA {
		t.Fatalf("EverBlackholed = %v %v", p, ok)
	}
	if p, ok := ix.EverBlackholed(prefixA.Addr + 9); !ok || p.Len != 24 {
		t.Fatalf("covered host = %v %v", p, ok)
	}
	if _, ok := ix.EverBlackholed(0x01020304); ok {
		t.Fatal("unrelated address blackholed")
	}
}

func TestIndexInteresting(t *testing.T) {
	ix, _ := buildIndex(t)
	ip := prefixA.Addr
	if _, ok := ix.Interesting(ip, t0.Add(-time.Hour)); !ok {
		t.Fatal("pre-window not interesting")
	}
	if _, ok := ix.Interesting(ip, t0.Add(2*time.Minute)); !ok {
		t.Fatal("event window not interesting")
	}
	if _, ok := ix.Interesting(ip, t0.Add(-80*time.Hour)); ok {
		t.Fatal("distant past interesting")
	}
	if _, ok := ix.Interesting(0x01020304, t0); ok {
		t.Fatal("unrelated address interesting")
	}
}
