package netgen

import (
	"math"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/stats"
)

func TestAmplificationPortMembership(t *testing.T) {
	// All catalog ports match under UDP.
	for _, p := range AmplificationProtocols {
		if !IsAmplificationPort(ProtoUDP, p.Port) {
			t.Errorf("%s/%d not recognized", p.Name, p.Port)
		}
		// Same port under TCP must not match: the filter is UDP-specific.
		if IsAmplificationPort(ProtoTCP, p.Port) {
			t.Errorf("%s/%d matched under TCP", p.Name, p.Port)
		}
	}
	if IsAmplificationPort(ProtoUDP, 50000) {
		t.Error("ephemeral port matched")
	}

	// AmpPortRank numbers exactly those ports, 0..len-1 in port order.
	rank := 0
	for port := 0; port < 1<<16; port++ {
		for _, proto := range []uint8{ProtoUDP, ProtoTCP} {
			got, ok := AmpPortRank(proto, uint16(port))
			if want := IsAmplificationPort(proto, uint16(port)); ok != want || (ok && got != rank) {
				t.Fatalf("AmpPortRank(%d, %d) = %d, %v; want %d, %v", proto, port, got, ok, rank, want)
			}
		}
		if IsAmplificationPort(ProtoUDP, uint16(port)) {
			rank++
		}
	}
	if rank != len(AmplificationProtocols) {
		t.Fatalf("%d ranked ports for a catalog of %d", rank, len(AmplificationProtocols))
	}
}

func TestAmpProtocolByPort(t *testing.T) {
	p, ok := AmpProtocolByPort(11211)
	if !ok || p.Name != "Memcache" {
		t.Fatalf("Memcache lookup = %+v, %v", p, ok)
	}
	if _, ok := AmpProtocolByPort(9999); ok {
		t.Fatal("unknown port resolved")
	}
}

func TestPickAmpProtocolsDistinct(t *testing.T) {
	r := stats.NewRNG(1)
	for trial := 0; trial < 100; trial++ {
		got := PickAmpProtocols(r, 3)
		if len(got) != 3 {
			t.Fatalf("got %d protocols", len(got))
		}
		seen := map[uint16]bool{}
		for _, p := range got {
			if seen[p.Port] {
				t.Fatalf("duplicate protocol %s", p.Name)
			}
			seen[p.Port] = true
		}
	}
	// Clamped to catalog size.
	if got := PickAmpProtocols(r, 1000); len(got) != len(AmplificationProtocols) {
		t.Fatalf("clamp failed: %d", len(got))
	}
}

func TestPickAmpProtocolsWeighted(t *testing.T) {
	r := stats.NewRNG(2)
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		counts[PickAmpProtocols(r, 1)[0].Name]++
	}
	// cLDAP, NTP, DNS dominate per the paper.
	if counts["cLDAP"] < counts["QOTD"] {
		t.Fatalf("cLDAP (%d) should dominate QOTD (%d)", counts["cLDAP"], counts["QOTD"])
	}
}

func TestEphemeralPortRange(t *testing.T) {
	r := stats.NewRNG(3)
	for i := 0; i < 10000; i++ {
		p := EphemeralPort(r)
		if p < 1024 {
			t.Fatalf("ephemeral port %d below 1024", p)
		}
	}
}

func TestAmplificationVectorBatches(t *testing.T) {
	v := &AmplificationVector{
		Protocol: mustProto(t, 389),
		Reflectors: []Reflector{
			{IP: 1, OriginAS: 10, HandoverAS: 100},
			{IP: 2, OriginAS: 10, HandoverAS: 100},
			{IP: 3, OriginAS: 20, HandoverAS: 200},
		},
	}
	r := stats.NewRNG(4)
	batches := v.Batches(nil, time.Unix(0, 0), 5*time.Minute, 1000, 99, 300, r)
	if len(batches) != 2 {
		t.Fatalf("batches = %d, want one per handover AS", len(batches))
	}
	var total int64
	for _, b := range batches {
		total += b.Packets
		if b.EgressAS != 300 || b.DstIP != 99 {
			t.Fatalf("victim routing wrong: %+v", b)
		}
		if b.Proto != ProtoUDP {
			t.Fatalf("proto = %d", b.Proto)
		}
		src, dstPort := b.VaryPorts(r)
		if src != 389 {
			t.Fatalf("amplified source port = %d, want 389", src)
		}
		if dstPort < 1024 {
			t.Fatalf("dst port %d not ephemeral", dstPort)
		}
		ip := b.VarySrcIP(r)
		if ip == 0 {
			t.Fatal("reflector IP zero")
		}
	}
	want := int64(1000 * 300)
	if math.Abs(float64(total-want)) > float64(want)/10 {
		t.Fatalf("total packets = %d, want ~%d", total, want)
	}
}

func mustProto(t *testing.T, port uint16) AmpProtocol {
	t.Helper()
	p, ok := AmpProtocolByPort(port)
	if !ok {
		t.Fatalf("no protocol for port %d", port)
	}
	return p
}

func TestAmplificationVectorEmptyPool(t *testing.T) {
	v := &AmplificationVector{Protocol: mustProto(t, 123)}
	if got := v.Batches(nil, time.Unix(0, 0), time.Minute, 1000, 1, 2, stats.NewRNG(1)); got != nil {
		t.Fatalf("empty pool produced batches: %v", got)
	}
}

func TestSYNFloodVector(t *testing.T) {
	v := &SYNFloodVector{Handovers: []uint32{100, 200}, DstPorts: []uint16{80, 443}}
	r := stats.NewRNG(5)
	batches := v.Batches(nil, time.Unix(0, 0), time.Minute, 600, 7, 300, r)
	if len(batches) != 2 {
		t.Fatalf("batches = %d", len(batches))
	}
	for _, b := range batches {
		if b.Proto != ProtoTCP || b.PacketSize != 60 {
			t.Fatalf("not SYN-like: %+v", b)
		}
		_, dst := b.VaryPorts(r)
		if dst != 80 && dst != 443 {
			t.Fatalf("dst port = %d", dst)
		}
		ip := b.VarySrcIP(r)
		if ip < 0x01000000 || ip >= 0xdf000000 {
			t.Fatalf("spoofed source %x outside unicast range", ip)
		}
	}
}

func TestRandomPortVectorAvoidsAmpPorts(t *testing.T) {
	v := &RandomPortUDPVector{Handovers: []uint32{100}}
	r := stats.NewRNG(6)
	batches := v.Batches(nil, time.Unix(0, 0), time.Minute, 100, 1, 2, r)
	if len(batches) != 1 {
		t.Fatalf("batches = %d", len(batches))
	}
	for i := 0; i < 5000; i++ {
		src, _ := batches[0].VaryPorts(r)
		if IsAmplificationPort(ProtoUDP, src) {
			t.Fatalf("random-port vector produced amplification source port %d", src)
		}
	}
}

func TestRotatingPortVectorIncrements(t *testing.T) {
	v := &RotatingPortVector{Handovers: []uint32{100}}
	r := stats.NewRNG(7)
	batches := v.Batches(nil, time.Unix(0, 0), time.Minute, 100, 1, 2, r)
	_, p1 := batches[0].VaryPorts(r)
	_, p2 := batches[0].VaryPorts(r)
	_, p3 := batches[0].VaryPorts(r)
	if p2 != p1+1 || p3 != p2+1 {
		t.Fatalf("ports not rotating: %d %d %d", p1, p2, p3)
	}
}

func TestServerProfileSignature(t *testing.T) {
	s := &ServerProfile{
		IP: 0x0b000001, MemberAS: 500,
		Services:     []Service{{ProtoTCP, 443, 1200, 3}, {ProtoTCP, 80, 1100, 1}},
		DailyPackets: 10000,
	}
	remotes := &RemotePool{Handovers: []uint32{100, 200}, AddrBase: 0x20000000, AddrCount: 1 << 16}
	r := stats.NewRNG(8)
	batches := s.DayBatches(nil, time.Unix(0, 0), remotes, r)
	if len(batches) != 4 {
		t.Fatalf("batches = %d, want 2 per service", len(batches))
	}
	var inPkts, outPkts int64
	for _, b := range batches {
		if b.DstIP == s.IP {
			inPkts += b.Packets
			_, dp := b.VaryPorts(r)
			if dp != 443 && dp != 80 {
				t.Fatalf("incoming dst port %d not a service port", dp)
			}
		} else if b.SrcIP == s.IP {
			outPkts += b.Packets
			sp, _ := b.VaryPorts(r)
			if sp != 443 && sp != 80 {
				t.Fatalf("outgoing src port %d not a service port", sp)
			}
		} else {
			t.Fatalf("batch unrelated to server: %+v", b)
		}
	}
	if inPkts == 0 || outPkts == 0 {
		t.Fatal("one direction missing")
	}
	// Weight split: 443 should carry ~3x the packets of 80.
}

func TestClientProfileSignature(t *testing.T) {
	c := &ClientProfile{IP: 0x0c000001, MemberAS: 500, SessionsPerDay: 10, DailyPackets: 5000}
	remotes := &RemotePool{Handovers: []uint32{100}, AddrBase: 0x20000000, AddrCount: 1 << 16}
	r := stats.NewRNG(9)
	batches := c.DayBatches(nil, time.Unix(0, 0), remotes, r)
	if len(batches) != 20 {
		t.Fatalf("batches = %d, want 2 per session", len(batches))
	}
	ephPorts := map[uint16]bool{}
	for _, b := range batches {
		switch {
		case b.SrcIP == c.IP: // outgoing
			ephPorts[b.SrcPort] = true
		case b.DstIP == c.IP: // incoming
			if b.DstPort < 1024 {
				t.Fatalf("incoming to client on privileged port %d", b.DstPort)
			}
		default:
			t.Fatalf("batch unrelated to client: %+v", b)
		}
	}
	if len(ephPorts) < 5 {
		t.Fatalf("client used only %d distinct ephemeral ports", len(ephPorts))
	}
}

func TestGamingClientUsesGameServices(t *testing.T) {
	c := &ClientProfile{IP: 1, MemberAS: 500, SessionsPerDay: 50, DailyPackets: 500, Gaming: true}
	remotes := &RemotePool{Handovers: []uint32{100}, AddrBase: 2, AddrCount: 10}
	batches := c.DayBatches(nil, time.Unix(0, 0), remotes, stats.NewRNG(10))
	udp := 0
	for _, b := range batches {
		if b.Proto == ProtoUDP {
			udp++
		}
	}
	if udp < len(batches)/2 {
		t.Fatalf("gaming client mostly TCP: %d/%d UDP", udp, len(batches))
	}
}

func TestScanBatches(t *testing.T) {
	remotes := &RemotePool{Handovers: []uint32{100}, AddrBase: 2, AddrCount: 10}
	r := stats.NewRNG(11)
	batches := ScanBatches(nil, time.Unix(0, 0), 1, 500, 100, remotes, r)
	if len(batches) != 1 || batches[0].Proto != ProtoTCP {
		t.Fatalf("batches = %+v", batches)
	}
	if got := ScanBatches(nil, time.Unix(0, 0), 1, 500, 0, remotes, r); got != nil {
		t.Fatal("zero packets produced a batch")
	}
}

func TestVectorsProduceInjectableBatches(t *testing.T) {
	// Every vector's batches must satisfy the fabric's invariants.
	vs := []Vector{
		&AmplificationVector{Protocol: mustProto(t, 123), Reflectors: []Reflector{{IP: 1, HandoverAS: 100}}},
		&SYNFloodVector{Handovers: []uint32{100}, DstPorts: []uint16{80}},
		&RandomPortUDPVector{Handovers: []uint32{100}},
		&RotatingPortVector{Handovers: []uint32{100}},
	}
	r := stats.NewRNG(12)
	var all []fabric.Batch
	for _, v := range vs {
		all = v.Batches(all, time.Unix(0, 0), time.Minute, 100, 1, 2, r)
	}
	for _, b := range all {
		if b.PacketSize <= 0 || b.Packets <= 0 || b.Duration <= 0 {
			t.Fatalf("invalid batch: %+v", b)
		}
	}
}

func TestRemotePoolDegenerate(t *testing.T) {
	p := &RemotePool{Handovers: []uint32{7}, AddrBase: 100, AddrCount: 0}
	r := stats.NewRNG(20)
	if a := p.Addr(r); a != 100 {
		t.Fatalf("zero-count pool addr = %d, want base", a)
	}
	if h := p.Handover(r); h != 7 {
		t.Fatalf("handover = %d", h)
	}
}

func TestServerProfileDegenerate(t *testing.T) {
	remotes := &RemotePool{Handovers: []uint32{1}, AddrBase: 2, AddrCount: 4}
	r := stats.NewRNG(21)
	empty := &ServerProfile{IP: 1, MemberAS: 2, DailyPackets: 100}
	if got := empty.DayBatches(nil, time.Unix(0, 0), remotes, r); got != nil {
		t.Fatal("no-service profile produced batches")
	}
	zero := &ServerProfile{IP: 1, MemberAS: 2, Services: CommonServices[:1]}
	if got := zero.DayBatches(nil, time.Unix(0, 0), remotes, r); got != nil {
		t.Fatal("zero-volume profile produced batches")
	}
	// Zero weights fall back to uniform.
	flat := &ServerProfile{IP: 1, MemberAS: 2,
		Services:     []Service{{ProtoTCP, 443, 100, 0}, {ProtoTCP, 80, 100, 0}},
		DailyPackets: 1000,
	}
	got := flat.DayBatches(nil, time.Unix(0, 0), remotes, r)
	if len(got) != 4 {
		t.Fatalf("flat-weight batches = %d", len(got))
	}
}

func TestClientProfileDegenerate(t *testing.T) {
	remotes := &RemotePool{Handovers: []uint32{1}, AddrBase: 2, AddrCount: 4}
	r := stats.NewRNG(22)
	c := &ClientProfile{IP: 1, MemberAS: 2, SessionsPerDay: 0, DailyPackets: 100}
	if got := c.DayBatches(nil, time.Unix(0, 0), remotes, r); got != nil {
		t.Fatal("zero-session client produced batches")
	}
	// More sessions than packets: per-session volume floors at 1.
	tiny := &ClientProfile{IP: 1, MemberAS: 2, SessionsPerDay: 10, DailyPackets: 3}
	got := tiny.DayBatches(nil, time.Unix(0, 0), remotes, r)
	for _, b := range got {
		if b.Packets < 1 {
			t.Fatalf("batch with %d packets", b.Packets)
		}
	}
}

func TestVectorsDegenerate(t *testing.T) {
	r := stats.NewRNG(23)
	at := time.Unix(0, 0)
	// Zero pps or zero duration produce nothing.
	amp := &AmplificationVector{Protocol: AmplificationProtocols[0],
		Reflectors: []Reflector{{IP: 1, HandoverAS: 9}}}
	if got := amp.Batches(nil, at, time.Minute, 0, 1, 2, r); got != nil {
		t.Fatal("zero-pps amp vector produced batches")
	}
	syn := &SYNFloodVector{Handovers: []uint32{9}, DstPorts: []uint16{80}}
	if got := syn.Batches(nil, at, 0, 100, 1, 2, r); got != nil {
		t.Fatal("zero-duration SYN vector produced batches")
	}
	if got := (&SYNFloodVector{}).Batches(nil, at, time.Minute, 100, 1, 2, r); got != nil {
		t.Fatal("handover-less SYN vector produced batches")
	}
	if got := (&RandomPortUDPVector{}).Batches(nil, at, time.Minute, 100, 1, 2, r); got != nil {
		t.Fatal("handover-less random vector produced batches")
	}
	if got := (&RotatingPortVector{}).Batches(nil, at, time.Minute, 100, 1, 2, r); got != nil {
		t.Fatal("handover-less rotating vector produced batches")
	}
}

func TestScanBatchesContent(t *testing.T) {
	remotes := &RemotePool{Handovers: []uint32{5}, AddrBase: 10, AddrCount: 100}
	r := stats.NewRNG(24)
	got := ScanBatches(nil, time.Unix(0, 0), 99, 7, 1000, remotes, r)
	if len(got) != 1 {
		t.Fatalf("batches = %d", len(got))
	}
	b := got[0]
	if b.DstIP != 99 || b.EgressAS != 7 || b.IngressAS != 5 || b.Packets != 1000 {
		t.Fatalf("scan batch = %+v", b)
	}
	for i := 0; i < 100; i++ {
		src, _ := b.VaryPorts(r)
		if src < 1024 {
			t.Fatalf("scan source port %d privileged", src)
		}
	}
}
