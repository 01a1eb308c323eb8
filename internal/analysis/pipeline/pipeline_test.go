package pipeline

import (
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/events"
	"repro/internal/bgp"
	"repro/internal/ip2as"
	"repro/internal/ipfix"
	"repro/internal/peeringdb"
)

const (
	blackholeMAC ipfix.MAC = 0x066666
	internalMAC  ipfix.MAC = 0x060001
	memberMAC100 ipfix.MAC = 0x020100
	memberMAC200 ipfix.MAC = 0x020200
)

var (
	t0     = time.Date(2018, 10, 10, 12, 0, 0, 0, time.UTC)
	victim = bgp.MustParsePrefix("203.0.113.5/32")
)

func testMeta() *analysis.Metadata {
	tbl := ip2as.New()
	tbl.Add(bgp.MustParsePrefix("80.0.0.0/8"), 9000)
	return &analysis.Metadata{
		SamplingRate: 10000,
		Start:        time.Date(2018, 9, 26, 0, 0, 0, 0, time.UTC),
		End:          time.Date(2019, 1, 11, 0, 0, 0, 0, time.UTC),
		MemberByMAC:  map[ipfix.MAC]uint32{memberMAC100: 100, memberMAC200: 200},
		BlackholeMAC: blackholeMAC,
		InternalMACs: map[ipfix.MAC]bool{internalMAC: true},
		IP2AS:        tbl,
		PDB:          peeringdb.New(),
	}
}

func testUpdates() []analysis.ControlUpdate {
	return []analysis.ControlUpdate{
		{Time: t0, Peer: 100, Prefix: victim, Announce: true,
			OriginAS: 777, Communities: bgp.Communities{bgp.Blackhole}},
		{Time: t0.Add(time.Hour), Peer: 100, Prefix: victim},
	}
}

func newPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := New(testMeta(), testUpdates(), events.DefaultDelta)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func rec(at time.Time, srcMAC, dstMAC ipfix.MAC, srcIP, dstIP uint32, srcPort, dstPort uint16, proto uint8) ipfix.FlowRecord {
	return ipfix.FlowRecord{
		Start: at, SrcMAC: srcMAC, DstMAC: dstMAC,
		SrcIP: srcIP, DstIP: dstIP, SrcPort: srcPort, DstPort: dstPort,
		Proto: proto, Packets: 1, Bytes: 500,
	}
}

func observe(p *Pipeline, recs ...ipfix.FlowRecord) { p.ObserveRecords(recs) }

// counters returns the cleaning and attribution counters (§3.1): total,
// internal, attributed, dropped.
func counters(p *Pipeline) [4]int64 {
	return [4]int64{p.TotalRecords, p.InternalRecords, p.FinalAttributed(), p.DroppedRecords}
}

func TestNewRejectsBadMetadata(t *testing.T) {
	meta := testMeta()
	meta.SamplingRate = 0
	if _, err := New(meta, nil, events.DefaultDelta); err == nil {
		t.Fatal("invalid metadata accepted")
	}
}

func TestInternalRecordsCleaned(t *testing.T) {
	p := newPipeline(t)
	observe(p, rec(t0, memberMAC100, internalMAC, 1, 2, 3, 4, 6))
	if p.InternalRecords != 1 || p.AttributedRecords != 0 {
		t.Fatalf("counters: %v", counters(p))
	}
}

func TestDuringEventAttribution(t *testing.T) {
	p := newPipeline(t)
	// Dropped packet during the active episode.
	observe(p, rec(t0.Add(10*time.Minute), memberMAC200, blackholeMAC,
		0x50000001, victim.Addr, 389, 44444, 17))
	// Forwarded packet during the active episode.
	observe(p, rec(t0.Add(11*time.Minute), memberMAC200, memberMAC100,
		0x50000002, victim.Addr, 389, 44445, 17))
	if p.AttributedRecords != 2 || p.DroppedRecords != 1 {
		t.Fatalf("counters: %v", counters(p))
	}
	rows := p.Drop.ByLength()
	if len(rows) != 1 || rows[0].PrefixLen != 32 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].DroppedPkts != 1 || rows[0].ForwardedPkts != 1 {
		t.Fatalf("drop counters = %+v", rows[0])
	}
	// Protocol mix captured for the event, with origin AS resolution.
	part := p.Proto.OriginParticipation([]int{p.Events[0].ID})
	if part.ASes != 1 || part.TopAS != 9000 {
		t.Fatalf("participation = %+v", part)
	}
}

func TestUnrelatedTrafficIgnored(t *testing.T) {
	p := newPipeline(t)
	observe(p, rec(t0, memberMAC100, memberMAC200, 0x01010101, 0x02020202, 1, 2, 6))
	if p.AttributedRecords != 0 || p.TotalRecords != 1 {
		t.Fatalf("counters: %v", counters(p))
	}
}

func TestLegitTrafficExcludesReactionBuffer(t *testing.T) {
	p := newPipeline(t)
	// 5 minutes before the event: inside the 10-minute reaction buffer,
	// must NOT count as legitimate host traffic.
	observe(p, rec(t0.Add(-5*time.Minute), memberMAC200, memberMAC100,
		0x50000001, victim.Addr, 12345, 443, 6))
	// 3 hours before: legitimate.
	observe(p, rec(t0.Add(-3*time.Hour), memberMAC200, memberMAC100,
		0x50000001, victim.Addr, 12345, 443, 6))
	if p.Hosts.Hosts() != 1 {
		t.Fatalf("hosts = %d", p.Hosts.Hosts())
	}
	// Only one incoming observation should exist; with a 1-day criterion
	// the host still fails (needs both directions), so check the raw
	// aggregator instead.
	profiles := p.Hosts.Profiles(0)
	if len(profiles) != 1 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	if profiles[0].Features[1] != 1 { // in-dst-ports: only port 443 once
		t.Fatalf("features = %v", profiles[0].Features)
	}
}

func TestOutgoingTrafficProfiled(t *testing.T) {
	p := newPipeline(t)
	observe(p, rec(t0.Add(-3*time.Hour), memberMAC100, memberMAC200,
		victim.Addr, 0x50000001, 443, 23456, 6))
	profiles := p.Hosts.Profiles(0)
	if len(profiles) != 1 || profiles[0].IP != victim.Addr {
		t.Fatalf("profiles = %+v", profiles)
	}
}

func TestCollateralSinglePass(t *testing.T) {
	p := newPipeline(t)
	// Build a server profile: incoming+outgoing on stable port 443 for
	// 25 days before the event.
	for d := 0; d < 25; d++ {
		at := p.Meta.Start.Add(time.Duration(d)*24*time.Hour + time.Hour)
		for i := 0; i < 3; i++ {
			observe(p, rec(at, memberMAC200, memberMAC100,
				0x50000001+uint32(i), victim.Addr, uint16(20000+d*31+i), 443, 6))
			observe(p, rec(at, memberMAC100, memberMAC200,
				victim.Addr, 0x50000001, 443, uint16(30000+d*17+i), 6))
		}
	}
	// Dropped packet to the top port during the event: a pending cell
	// that must survive the compose-time top-port filter.
	observe(p, rec(t0.Add(5*time.Minute), memberMAC200, blackholeMAC,
		0x50000009, victim.Addr, 55555, 443, 6))
	// Outside the event: no event window, no pending cell.
	observe(p, rec(t0.Add(48*time.Hour), memberMAC200, memberMAC100,
		0x50000009, victim.Addr, 55555, 443, 6))

	profiles := p.ComposeProfiles(20)
	if len(profiles) != 1 || profiles[0].Kind.String() != "server" {
		t.Fatalf("profiles = %+v", profiles)
	}
	if p.PendingCells() != 1 {
		t.Fatalf("pending cells = %d, want 1", p.PendingCells())
	}
	res := p.ComposeCollateral(profiles).Result()
	if res.Events != 1 || res.AllPkts[0] != 1 || res.DroppedPkts[0] != 1 {
		t.Fatalf("collateral = %+v", res)
	}
}

func TestDroppedRecordFeedsTimeAlign(t *testing.T) {
	p := newPipeline(t)
	observe(p, rec(t0.Add(time.Minute), memberMAC200, blackholeMAC,
		0x50000001, victim.Addr, 389, 44444, 17))
	res := p.Align.Estimate(100 * time.Millisecond)
	if res.Dropped != 1 || res.BestOverlap != 1 {
		t.Fatalf("align = %+v", res)
	}
}
