package routeserver

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bgp"
)

// benchServer registers n peers, every third of which accepts /32
// blackholes (ASNs 1000.., so AS1000 accepts and AS1001 rejects).
func benchServer(b *testing.B, n int) *Server {
	b.Helper()
	s := New(64500, 1)
	for i := uint32(0); i < uint32(n); i++ {
		pol := DefaultPolicy()
		if i%3 == 0 {
			pol = BlackholeReadyPolicy()
		}
		if err := s.AddPeer(Peer{ASN: 1000 + i, IP: i, Policy: pol}); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func benchAnnounce(origin uint32, prefix bgp.Prefix, extra ...bgp.Community) *bgp.Update {
	return &bgp.Update{
		Attrs: bgp.PathAttrs{
			ASPath: []uint32{origin}, NextHop: 1,
			Communities: append(bgp.Communities{bgp.Blackhole}, extra...),
		},
		NLRI: []bgp.Prefix{prefix},
	}
}

// BenchmarkProcessAnnounceWithdraw measures one RTBH on-off cycle at the
// route server, at the test worlds' and the paper's session counts, for an
// announcement to everybody and for one steered to a four-peer allow list.
func BenchmarkProcessAnnounceWithdraw(b *testing.B) {
	for _, peers := range []int{120, 830} {
		for _, steering := range []string{"untargeted", "allow-listed"} {
			b.Run(fmt.Sprintf("peers=%d/%s", peers, steering), func(b *testing.B) {
				s := benchServer(b, peers)
				var cs []bgp.Community
				if steering == "allow-listed" {
					for _, asn := range []uint16{1003, 1010, 1050, 1100} {
						cs = append(cs, bgp.MakeCommunity(64500, asn))
					}
				}
				ann := benchAnnounce(1000, bgp.MustParsePrefix("203.0.113.5/32"), cs...)
				wd := &bgp.Update{Withdrawn: ann.NLRI}
				ts := time.Unix(0, 0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Process(ts, 1000, ann); err != nil {
						b.Fatal(err)
					}
					if _, err := s.Process(ts, 1000, wd); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDropFraction measures the fabric's forwarding-decision lookup at
// the paper's 830 sessions with 300 active /32 routes and a covering /24,
// from a member that accepts /32 (prefix-index lookups at both lengths)
// and from one that rejects it (the /32 length is skipped outright), for a
// blackholed and an unaffected destination.
func BenchmarkDropFraction(b *testing.B) {
	s := benchServer(b, 830)
	ts := time.Unix(0, 0)
	for i := uint32(0); i < 300; i++ {
		ann := benchAnnounce(1002+i, bgp.HostPrefix(0xcb007100+i))
		if _, err := s.Process(ts, 1002+i, ann); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.Process(ts, 1002, benchAnnounce(1002, bgp.MustParsePrefix("198.51.100.0/24"))); err != nil {
		b.Fatal(err)
	}
	for _, peer := range []struct {
		name string
		asn  uint32
	}{{"accepts-host", 1000}, {"rejects-host", 1001}} {
		for _, dst := range []struct {
			name string
			ip   uint32
		}{{"blackholed", 0xcb007105}, {"unaffected", 0x08080808}} {
			b.Run(peer.name+"/"+dst.name, func(b *testing.B) {
				var sink float64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink += s.DropFraction(peer.asn, dst.ip)
				}
				_ = sink
			})
		}
	}
}

// BenchmarkMatchFlowSpec measures the per-packet fine-grained matching
// cost with a realistic installed rule count: once for a member that
// imported the rules and once for one that did not, where only the egress
// originator's own rules can match. The batch cases ask as the fabric
// does, through FlowCandidates resolved once per 16 packets toward one
// destination.
func BenchmarkMatchFlowSpec(b *testing.B) {
	s := New(64500, 1)
	s.AddPeer(Peer{ASN: 1000, Policy: DefaultPolicy()})
	s.AddPeer(Peer{ASN: 1001, Policy: Policy{Standard: AcceptFull, FlowSpec: AcceptFull}})
	s.AddPeer(Peer{ASN: 1002, Policy: DefaultPolicy()})
	for i := 0; i < 50; i++ {
		upd, err := bgp.UpdateFromFlowSpec(&bgp.FlowSpecUpdate{
			Announced: []*bgp.FlowRule{{
				Dst:      bgp.MakePrefix(0xcb007100+uint32(i), 32),
				HasDst:   true,
				Protos:   []uint8{17},
				SrcPorts: []uint16{123, 389},
			}},
			ExtComms: []bgp.ExtCommunity{bgp.TrafficRateDiscard},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Process(time.Unix(0, 0), 1000, upd); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name    string
		ingress uint32
	}{{"imported", 1001}, {"not-imported", 1002}} {
		b.Run(bc.name, func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				if s.MatchFlowRule(bc.ingress, 1000, 0xcb007100+uint32(i%64), 17, 123, 40000) != nil {
					hits++
				}
			}
			_ = hits
		})
		b.Run(bc.name+"-batch", func(b *testing.B) {
			var fc FlowCandidates
			hits := 0
			for i := 0; i < b.N; i++ {
				if i%16 == 0 {
					s.FlowCandidates(&fc, bc.ingress, 1000, 0xcb007100+uint32(i/16%64))
				}
				if fc.Match(17, 123, 40000) != nil {
					hits++
				}
			}
			_ = hits
		})
	}
}
