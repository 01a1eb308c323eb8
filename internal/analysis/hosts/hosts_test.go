package hosts

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/ip2as"
	"repro/internal/netgen"
	"repro/internal/peeringdb"
	"repro/internal/radviz"
)

const (
	serverIP = 0x0b000001
	clientIP = 0x0c000001
)

// feedServer simulates a stable web server across days.
func feedServer(a *Aggregator, days int) {
	for d := int32(0); d < int32(days); d++ {
		for i := 0; i < 20; i++ {
			// Incoming: ephemeral sources to port 443.
			a.AddIncoming(serverIP, d, uint16(20000+i*7+int(d)), 443, netgen.ProtoTCP, 1)
			// Outgoing: 443 to ephemeral destinations.
			a.AddOutgoing(serverIP, d, 443, uint16(30000+i*11+int(d)), netgen.ProtoTCP, 1)
		}
	}
}

// feedClient simulates a client whose sessions use fresh ephemeral ports
// daily, so its daily top incoming port changes every day.
func feedClient(a *Aggregator, days int) {
	for d := int32(0); d < int32(days); d++ {
		eph := uint16(40000 + d*13)
		for i := 0; i < 10; i++ {
			a.AddOutgoing(clientIP, d, eph, 443, netgen.ProtoTCP, 1)
			a.AddIncoming(clientIP, d, 443, eph, netgen.ProtoTCP, 1)
		}
	}
}

func TestServerClientClassification(t *testing.T) {
	a := New()
	feedServer(a, 30)
	feedClient(a, 30)
	profiles := a.Profiles(MinActiveDays)
	if len(profiles) != 2 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	var server, client *Profile
	for i := range profiles {
		switch profiles[i].IP {
		case serverIP:
			server = &profiles[i]
		case clientIP:
			client = &profiles[i]
		}
	}
	if server == nil || client == nil {
		t.Fatal("profiles missing")
	}
	if server.Kind != KindServer {
		t.Fatalf("server classified as %v (variation %v)", server.Kind, server.PortVariation)
	}
	if client.Kind != KindClient {
		t.Fatalf("client classified as %v (variation %v)", client.Kind, client.PortVariation)
	}
	if server.PortVariation > 0.1 {
		t.Fatalf("server port variation = %v", server.PortVariation)
	}
	if client.PortVariation < 0.9 {
		t.Fatalf("client port variation = %v", client.PortVariation)
	}
	// Server top ports: exactly (TCP, 443).
	if len(server.TopPorts) != 1 || server.TopPorts[0] != uint32(netgen.ProtoTCP)<<16|443 {
		t.Fatalf("server top ports = %v", server.TopPorts)
	}
}

func TestMinActiveDaysFilter(t *testing.T) {
	a := New()
	feedServer(a, 10) // below the 20-day criterion
	if got := a.Profiles(MinActiveDays); len(got) != 0 {
		t.Fatalf("under-observed host detected: %v", got)
	}
	if got := a.Profiles(5); len(got) != 1 {
		t.Fatalf("lenient threshold = %d profiles", len(got))
	}
}

func TestActiveDayNeedsBothDirections(t *testing.T) {
	a := New()
	// Incoming on 25 days, outgoing on none.
	for d := int32(0); d < 25; d++ {
		a.AddIncoming(serverIP, d, 1234, 443, netgen.ProtoTCP, 1)
	}
	if got := a.Profiles(20); len(got) != 0 {
		t.Fatal("incoming-only host qualified")
	}
}

func TestRadVizSeparation(t *testing.T) {
	a := New()
	feedServer(a, 30)
	feedClient(a, 30)
	profiles := a.Profiles(MinActiveDays)
	proj := radviz.New(NumFeatures)
	var serverPt, clientPt radviz.Point
	for _, p := range profiles {
		pt := proj.Project(p.Features[:])
		if p.IP == serverIP {
			serverPt = pt
		} else {
			clientPt = pt
		}
	}
	// Server: diversity in in-src-ports (anchor 0) and out-dst-ports
	// (anchor 3). Client: in-dst-ports (anchor 1) and out-src-ports
	// (anchor 2). They must project to clearly different positions.
	dx := serverPt.X - clientPt.X
	dy := serverPt.Y - clientPt.Y
	if dx*dx+dy*dy < 0.25 {
		t.Fatalf("projections not separated: server %+v client %+v", serverPt, clientPt)
	}
}

func TestTypesJoin(t *testing.T) {
	a := New()
	feedServer(a, 30)
	feedClient(a, 30)
	profiles := a.Profiles(MinActiveDays)

	tbl := ip2as.New()
	tbl.Add(bgp.MakePrefix(serverIP, 24), 5001)
	tbl.Add(bgp.MakePrefix(clientIP, 24), 5002)
	pdb := peeringdb.New()
	pdb.Add(peeringdb.Network{ASN: 5001, Type: peeringdb.TypeContent})
	pdb.Add(peeringdb.Network{ASN: 5002, Type: peeringdb.TypeCableDSL})

	tt := Types(profiles, tbl, pdb)
	if tt.Servers != 1 || tt.Clients != 1 {
		t.Fatalf("table = %+v", tt)
	}
	if tt.ServerTypes[peeringdb.TypeContent] != 1.0 {
		t.Fatalf("server types = %v", tt.ServerTypes)
	}
	if tt.ClientTypes[peeringdb.TypeCableDSL] != 1.0 {
		t.Fatalf("client types = %v", tt.ClientTypes)
	}
}

func TestHostsCounter(t *testing.T) {
	a := New()
	a.AddIncoming(1, 0, 1, 2, 6, 1)
	a.AddOutgoing(1, 0, 1, 2, 6, 1)
	a.AddIncoming(2, 0, 1, 2, 6, 1)
	if a.Hosts() != 2 {
		t.Fatalf("hosts = %d", a.Hosts())
	}
}

func TestWhitelistCoverageServersHighClientsLow(t *testing.T) {
	a := New()
	feedServer(a, 30)
	feedClient(a, 30)
	cov := a.WhitelistCoverage(MinActiveDays)
	if len(cov) != 2 {
		t.Fatalf("coverage entries = %d", len(cov))
	}
	var srv, cli *Coverage
	for i := range cov {
		switch cov[i].IP {
		case serverIP:
			srv = &cov[i]
		case clientIP:
			cli = &cov[i]
		}
	}
	if srv == nil || cli == nil {
		t.Fatal("missing entries")
	}
	// The server's daily top port never changes: full coverage from day 2.
	if srv.Share < 0.95 {
		t.Fatalf("server coverage = %v, want ~1", srv.Share)
	}
	// The client's ephemeral port changes daily: past top ports never
	// cover today's traffic.
	if cli.Share > 0.05 {
		t.Fatalf("client coverage = %v, want ~0", cli.Share)
	}
	if srv.Days < 20 || cli.Days < 20 {
		t.Fatalf("days = %d/%d", srv.Days, cli.Days)
	}
}

func TestWhitelistCoverageFiltersUnderObserved(t *testing.T) {
	a := New()
	feedServer(a, 10)
	if got := a.WhitelistCoverage(MinActiveDays); len(got) != 0 {
		t.Fatalf("under-observed host covered: %v", got)
	}
}

// encodeDays is one host's encoding with the given days, each carrying
// flags and an empty top counter of the default capacity, and with the
// feature sets of feat (empty ones when nil), written field by field.
func encodeDays(feat *[NumFeatures]analysis.BoundedSet, flags byte, days ...int64) []byte {
	w := analysis.NewWireWriter()
	w.Byte(wireVersion)
	w.Uvarint(1) // hosts
	w.Uvarint(serverIP)
	w.Uvarint(uint64(len(days)))
	for _, d := range days {
		w.Varint(d)
		w.Byte(flags)
		analysis.NewTopCounter(dayTopCap).EncodeWire(w)
	}
	for f := 0; f < NumFeatures; f++ {
		set := analysis.NewBoundedSet(featCap)
		if feat != nil {
			set = &feat[f]
		}
		set.EncodeWire(w)
	}
	return w.Bytes()
}

// TestDaysWire pins the day list's encoding: a day without incoming
// traffic, which holds no top counter, encodes the empty one it reads as;
// and since the days are kept in ascending order, a duplicate or
// out-of-order day is an error rather than a silent overwrite.
func TestDaysWire(t *testing.T) {
	a := New()
	var feat [NumFeatures]analysis.BoundedSet
	for f := range feat {
		feat[f] = *analysis.NewBoundedSet(featCap)
	}
	for _, d := range []int32{5, 2} {
		a.AddOutgoing(serverIP, d, 443, 40000, netgen.ProtoTCP, 1)
		feat[FeatOutSrcPorts].Add(443)
		feat[FeatOutDstPorts].Add(40000)
	}
	want := encodeDays(&feat, 2, 2, 5)
	if got, _ := a.MarshalBinary(); !bytes.Equal(got, want) {
		t.Fatalf("outgoing-only days encode as\n%x, want\n%x", got, want)
	}
	if err := New().UnmarshalBinary(encodeDays(nil, 3, 2, 5)); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"duplicate day":    encodeDays(nil, 3, 2, 2),
		"out-of-order day": encodeDays(nil, 3, 5, 2),
	} {
		if err := New().UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
