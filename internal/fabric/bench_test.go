package fabric

import (
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/ipfix"
	"repro/internal/routeserver"
	"repro/internal/stats"
)

// BenchmarkFabricFlowSpec measures the per-batch injection cost with the
// full rule catalog installed against the no-rules baseline. The batch
// mix alternates matching and non-matching headers so both the matcher's
// empty-list exit (baseline) and the linear precedence scan (rules
// installed) are on the measured path.
func BenchmarkFabricFlowSpec(b *testing.B) {
	for _, bc := range []struct {
		name  string
		rules []*bgp.FlowRule
	}{
		{"no-rules", nil},
		{"catalog-8", fsCatalog()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rs := routeserver.New(rsASN, 1)
			peers := []routeserver.Peer{
				{ASN: 100, Policy: routeserver.DefaultPolicy(),
					Space: []bgp.Prefix{bgp.MustParsePrefix("203.0.113.0/24")}},
				{ASN: 200, Policy: routeserver.Policy{
					Standard: routeserver.AcceptFull, FlowSpec: routeserver.AcceptFull}},
				{ASN: 300, Policy: routeserver.DefaultPolicy()},
			}
			for _, p := range peers {
				if err := rs.AddPeer(p); err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range bc.rules {
				upd, err := bgp.UpdateFromFlowSpec(&bgp.FlowSpecUpdate{
					Announced: []*bgp.FlowRule{r},
					ExtComms:  []bgp.ExtCommunity{bgp.TrafficRateDiscard},
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rs.Process(time.Unix(0, 0), 100, upd); err != nil {
					b.Fatal(err)
				}
			}
			var sink int64
			f, err := New(rs, 100, stats.NewRNG(1), func(b *ipfix.RecordBatch) error {
				sink += int64(b.Len())
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			victim, err := bgp.ParseAddr("203.0.113.5")
			if err != nil {
				b.Fatal(err)
			}
			batches := []Batch{
				// Matching attack traffic: UDP from the NTP source port.
				{IngressAS: 200, EgressAS: 300, SrcIP: 0x08080808, DstIP: victim,
					SrcPort: 123, DstPort: 40000, Proto: 17},
				// Non-matching legitimate traffic to the same host.
				{IngressAS: 200, EgressAS: 300, SrcIP: 0x08080808, DstIP: victim,
					SrcPort: 33333, DstPort: 443, Proto: 6},
				// Traffic outside the protected space entirely.
				{IngressAS: 300, EgressAS: 200, SrcIP: 0x08080808, DstIP: 0xc6336409,
					SrcPort: 33333, DstPort: 80, Proto: 6},
			}
			for i := range batches {
				batches[i].Time = time.Unix(1000, 0)
				batches[i].Duration = time.Second
				batches[i].PacketSize = 468
				batches[i].Packets = 1000
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Inject(&batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
			_ = sink
		})
	}
}
