package fabric

import (
	"math"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/ipfix"
	"repro/internal/routeserver"
	"repro/internal/stats"
)

const rsASN = 65500

func setup(t *testing.T, rate int64) (*routeserver.Server, *Fabric, *[]ipfix.FlowRecord) {
	t.Helper()
	rs := routeserver.New(rsASN, 0x0a000001)
	for asn, pol := range map[uint32]routeserver.Policy{
		100: routeserver.BlackholeReadyPolicy(),
		200: routeserver.BlackholeReadyPolicy(),
		300: routeserver.DefaultPolicy(),
		400: {Standard: routeserver.AcceptFull, Host: routeserver.AcceptPartial, HostFraction: 0.5},
	} {
		if err := rs.AddPeer(routeserver.Peer{ASN: asn, IP: 0x0a000000 + asn, Policy: pol}); err != nil {
			t.Fatal(err)
		}
	}
	var recs []ipfix.FlowRecord
	f, err := New(rs, rate, stats.NewRNG(42), func(b *ipfix.RecordBatch) error {
		recs = append(recs, b.Recs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs, f, &recs
}

func announceBlackhole(t *testing.T, rs *routeserver.Server, origin uint32, prefix string) {
	t.Helper()
	_, err := rs.Process(time.Unix(0, 0), origin, &bgp.Update{
		Attrs: bgp.PathAttrs{
			Origin:      bgp.OriginIGP,
			ASPath:      []uint32{origin},
			NextHop:     1,
			Communities: bgp.Communities{bgp.Blackhole},
		},
		NLRI: []bgp.Prefix{bgp.MustParsePrefix(prefix)},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func victimIP(t *testing.T) uint32 {
	t.Helper()
	a, err := bgp.ParseAddr("203.0.113.5")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func baseBatch(t *testing.T, packets int64) *Batch {
	t.Helper()
	return &Batch{
		Time:       time.Unix(1000, 0),
		Duration:   5 * time.Minute,
		IngressAS:  200,
		EgressAS:   100,
		SrcIP:      0x08080808,
		DstIP:      victimIP(t),
		SrcPort:    123,
		DstPort:    40000,
		Proto:      17,
		PacketSize: 468,
		Packets:    packets,
	}
}

func TestForwardedTrafficGetsEgressMAC(t *testing.T) {
	_, f, recs := setup(t, 1)
	if err := f.Inject(baseBatch(t, 10)); err != nil {
		t.Fatal(err)
	}
	if len(*recs) != 10 {
		t.Fatalf("sampled %d records at rate 1", len(*recs))
	}
	for _, r := range *recs {
		if r.DstMAC != MemberMAC(100) {
			t.Fatalf("DstMAC = %v, want egress member MAC", r.DstMAC)
		}
		if r.SrcMAC != MemberMAC(200) {
			t.Fatalf("SrcMAC = %v, want ingress member MAC", r.SrcMAC)
		}
	}
}

func TestBlackholedTrafficGetsBlackholeMAC(t *testing.T) {
	rs, f, recs := setup(t, 1)
	announceBlackhole(t, rs, 100, "203.0.113.5/32")
	if err := f.Inject(baseBatch(t, 100)); err != nil {
		t.Fatal(err)
	}
	// Ingress 200 has BlackholeReadyPolicy -> everything dropped.
	for _, r := range *recs {
		if r.DstMAC != BlackholeMAC {
			t.Fatalf("DstMAC = %v, want blackhole", r.DstMAC)
		}
	}
	st := f.Stats()
	if st.PacketsDropped != 100 || st.PacketsIn != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRejectingPeerForwardsDespiteBlackhole(t *testing.T) {
	rs, f, recs := setup(t, 1)
	announceBlackhole(t, rs, 100, "203.0.113.5/32")
	b := baseBatch(t, 100)
	b.IngressAS = 300 // default policy rejects /32
	if err := f.Inject(b); err != nil {
		t.Fatal(err)
	}
	for _, r := range *recs {
		if r.DstMAC == BlackholeMAC {
			t.Fatal("packet dropped although ingress peer rejects /32 blackholes")
		}
	}
	if st := f.Stats(); st.PacketsDropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPartialAcceptorDropsFraction(t *testing.T) {
	rs, f, recs := setup(t, 1)
	announceBlackhole(t, rs, 100, "203.0.113.5/32")
	b := baseBatch(t, 20000)
	b.IngressAS = 400 // partial 0.5
	if err := f.Inject(b); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, r := range *recs {
		if r.DstMAC == BlackholeMAC {
			dropped++
		}
	}
	frac := float64(dropped) / float64(len(*recs))
	if math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("dropped fraction = %v, want ~0.5", frac)
	}
	if st := f.Stats(); st.PacketsDropped != 10000 {
		t.Fatalf("expected-drop counter = %d", st.PacketsDropped)
	}
}

func TestSamplingRateApplied(t *testing.T) {
	rs, f, recs := setup(t, 100)
	announceBlackhole(t, rs, 100, "203.0.113.5/32")
	if err := f.Inject(baseBatch(t, 1_000_000)); err != nil {
		t.Fatal(err)
	}
	got := float64(len(*recs))
	if math.Abs(got-10000) > 500 {
		t.Fatalf("sampled %v records from 1M at 1:100, want ~10000", got)
	}
	if st := f.Stats(); st.RecordsSampled != int64(len(*recs)) {
		t.Fatalf("RecordsSampled = %d, emitted %d", st.RecordsSampled, len(*recs))
	}
}

func TestClockOffsetApplied(t *testing.T) {
	_, f, recs := setup(t, 1)
	f.ClockOffset = -40 * time.Millisecond
	b := baseBatch(t, 5)
	b.Duration = time.Millisecond
	if err := f.Inject(b); err != nil {
		t.Fatal(err)
	}
	for _, r := range *recs {
		d := r.Start.Sub(b.Time)
		if d < -40*time.Millisecond || d > -38*time.Millisecond {
			t.Fatalf("timestamp offset = %v, want about -40ms", d)
		}
	}
}

func TestTimestampsWithinSlot(t *testing.T) {
	_, f, recs := setup(t, 1)
	b := baseBatch(t, 1000)
	if err := f.Inject(b); err != nil {
		t.Fatal(err)
	}
	for _, r := range *recs {
		if r.Start.Before(b.Time) || !r.Start.Before(b.Time.Add(b.Duration)) {
			t.Fatalf("timestamp %v outside slot [%v, +%v)", r.Start, b.Time, b.Duration)
		}
	}
}

func TestVaryHooks(t *testing.T) {
	_, f, recs := setup(t, 1)
	b := baseBatch(t, 500)
	b.VaryPorts = func(r *stats.RNG) (uint16, uint16) {
		return uint16(1024 + r.Intn(60000)), 53
	}
	pool := []uint32{1, 2, 3}
	b.VarySrcIP = func(r *stats.RNG) uint32 { return pool[r.Intn(len(pool))] }
	if err := f.Inject(b); err != nil {
		t.Fatal(err)
	}
	srcPorts := map[uint16]bool{}
	srcIPs := map[uint32]bool{}
	for _, r := range *recs {
		if r.DstPort != 53 {
			t.Fatalf("DstPort = %d", r.DstPort)
		}
		srcPorts[r.SrcPort] = true
		srcIPs[r.SrcIP] = true
	}
	if len(srcPorts) < 100 {
		t.Fatalf("port variation too low: %d distinct", len(srcPorts))
	}
	if len(srcIPs) != 3 {
		t.Fatalf("source pool = %d distinct IPs, want 3", len(srcIPs))
	}
}

func TestInternalTrafficMarkedAndNeverDropped(t *testing.T) {
	rs, f, recs := setup(t, 1)
	announceBlackhole(t, rs, 100, "203.0.113.5/32")
	b := baseBatch(t, 50)
	b.Internal = true
	if err := f.Inject(b); err != nil {
		t.Fatal(err)
	}
	for _, r := range *recs {
		if r.DstMAC != InternalMAC {
			t.Fatalf("DstMAC = %v, want internal MAC", r.DstMAC)
		}
	}
	if st := f.Stats(); st.PacketsDropped != 0 {
		t.Fatalf("internal traffic counted as dropped: %+v", st)
	}
}

func TestInjectValidation(t *testing.T) {
	_, f, recs := setup(t, 1)
	b := baseBatch(t, 10)
	b.PacketSize = 0
	if err := f.Inject(b); err == nil {
		t.Fatal("zero packet size accepted")
	}
	b = baseBatch(t, 0)
	if err := f.Inject(b); err != nil || len(*recs) != 0 {
		t.Fatal("empty batch should be a silent no-op")
	}
}

func TestNewValidation(t *testing.T) {
	rs := routeserver.New(rsASN, 1)
	sink := func(*ipfix.RecordBatch) error { return nil }
	if _, err := New(nil, 10, stats.NewRNG(1), sink); err == nil {
		t.Fatal("nil route server accepted")
	}
	if _, err := New(rs, 10, stats.NewRNG(1), nil); err == nil {
		t.Fatal("nil sink accepted")
	}
	if _, err := New(rs, 0, stats.NewRNG(1), sink); err == nil {
		t.Fatal("rate 0 accepted")
	}
}

func TestMemberMACDeterministicAndDistinct(t *testing.T) {
	if MemberMAC(100) == MemberMAC(200) {
		t.Fatal("member MACs collide")
	}
	if MemberMAC(100) != MemberMAC(100) {
		t.Fatal("member MAC not deterministic")
	}
	if MemberMAC(100) == BlackholeMAC || MemberMAC(100) == InternalMAC {
		t.Fatal("member MAC collides with special MAC")
	}
}

func TestBilateralDropOverridesRouteServer(t *testing.T) {
	_, f, recs := setup(t, 1)
	// No route-server blackhole at all; bilateral agreement drops anyway.
	b := baseBatch(t, 1000)
	b.BilateralDropFraction = 1
	if err := f.Inject(b); err != nil {
		t.Fatal(err)
	}
	for _, r := range *recs {
		if r.DstMAC != BlackholeMAC {
			t.Fatal("bilateral blackhole not applied")
		}
	}
	if st := f.Stats(); st.PacketsDropped != 1000 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBilateralDropClamped(t *testing.T) {
	_, f, _ := setup(t, 1)
	b := baseBatch(t, 10)
	b.BilateralDropFraction = 5 // clamped to 1
	if err := f.Inject(b); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.PacketsDropped != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFlowSpecDropsOnlyMatchingTraffic(t *testing.T) {
	rs, f, recs := setup(t, 1)
	// Victim announces a FlowSpec discard for UDP from NTP's source port;
	// peer 200 must support FlowSpec for the rule to bite.
	ntp := &bgp.FlowRule{
		Dst:      bgp.MustParsePrefix("203.0.113.5/32"),
		HasDst:   true,
		Protos:   []uint8{17},
		SrcPorts: []uint16{123},
	}
	announceFS(t, rs, 100, ntp)
	// setup's peer 200 has no FlowSpec support; re-create with support.
	rs2 := routeserver.New(rsASN, 1)
	rs2.AddPeer(routeserver.Peer{ASN: 100, Policy: routeserver.DefaultPolicy()})
	rs2.AddPeer(routeserver.Peer{ASN: 200, Policy: routeserver.Policy{
		Standard: routeserver.AcceptFull, FlowSpec: routeserver.AcceptFull,
	}})
	var recs2 []ipfix.FlowRecord
	f2, err := New(rs2, 1, stats.NewRNG(7), func(b *ipfix.RecordBatch) error {
		recs2 = append(recs2, b.Recs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	announceFS(t, rs2, 100, ntp)

	// Attack traffic (UDP src 123): dropped.
	atk := baseBatch(t, 100)
	if err := f2.Inject(atk); err != nil {
		t.Fatal(err)
	}
	// Legitimate traffic (TCP to 443): forwarded.
	legit := baseBatch(t, 100)
	legit.Proto = 6
	legit.SrcPort = 33333
	legit.DstPort = 443
	if err := f2.Inject(legit); err != nil {
		t.Fatal(err)
	}
	var dropped, forwarded int
	for _, r := range recs2 {
		if r.DstMAC == BlackholeMAC {
			dropped++
			if r.Proto != 17 {
				t.Fatalf("non-UDP packet dropped by flowspec: %+v", r)
			}
		} else {
			forwarded++
		}
	}
	if dropped != 100 || forwarded != 100 {
		t.Fatalf("dropped=%d forwarded=%d, want 100/100", dropped, forwarded)
	}
	if st := f2.Stats(); st.PacketsDropped != 100 {
		t.Fatalf("stats = %+v", st)
	}
	_ = f
	_ = recs
}
