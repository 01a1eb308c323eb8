package rtbh

import (
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/fabric"
	"repro/internal/ipfix"
	"repro/internal/routeserver"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// TestLivePeerFlushDuringInject flushes a peer's blackhole, as a lost
// session does on a session or timer goroutine, while the driver injects
// traffic toward it, whose fabric reads the route server: under -race
// it fails unless the injection holds the exchange's route-server lock.
func TestLivePeerFlushDuringInject(t *testing.T) {
	const rsASN, victimAS, member = 65500, 100, 200
	rs := routeserver.New(rsASN, 0x0a000001)
	for _, asn := range []uint32{victimAS, member} {
		if err := rs.AddPeer(routeserver.Peer{ASN: asn, IP: 0x0a000000 + asn, Policy: routeserver.DefaultPolicy()}); err != nil {
			t.Fatal(err)
		}
	}
	var sampled, dropped int
	fb, err := fabric.New(rs, 1, stats.NewRNG(1), func(b *ipfix.RecordBatch) error {
		for _, r := range b.Recs {
			sampled++
			if r.DstMAC == fabric.BlackholeMAC {
				dropped++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	x := &liveExchange{ex: &scenario.Exchange{RS: rs, FB: fb}}

	at := time.Date(2018, 10, 1, 12, 0, 0, 0, time.UTC)
	victim := bgp.MustParsePrefix("203.0.113.7/32")
	announce := &bgp.Update{
		Attrs: bgp.PathAttrs{
			Origin:      bgp.OriginIGP,
			ASPath:      []uint32{victimAS},
			NextHop:     routeserver.BlackholeNextHop,
			Communities: bgp.Communities{bgp.Blackhole},
		},
		NLRI: []bgp.Prefix{victim},
	}
	const rounds = 300
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for i := 0; i < rounds; i++ {
			x.rsMu.Lock() // a delivery, as the sequencer's goroutine makes it
			_, err := rs.Process(at, victimAS, announce)
			x.rsMu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
			x.flushPeer(victimAS)
		}
	}()
	b := &fabric.Batch{Time: at, Duration: time.Second, IngressAS: member, EgressAS: victimAS,
		SrcIP: 0x50000001, DstIP: victim.Addr, SrcPort: 123, DstPort: 443, Proto: 17, PacketSize: 500, Packets: 4}
	for i := 0; i < rounds; i++ {
		if err := x.inject(b); err != nil {
			t.Fatal(err)
		}
	}
	<-flushed
	if sampled != 4*rounds || rs.NumActiveRoutes() != 0 {
		t.Fatalf("%d records sampled (%d dropped), %d routes left; want %d and none", sampled, dropped, rs.NumActiveRoutes(), 4*rounds)
	}
}
