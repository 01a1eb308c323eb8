// FlowSpec vs RTBH: the paper names BGP FlowSpec among the fine-grained
// alternatives to blackholing (§1) and shows that port-based filtering
// could fully cover ~90% of attacks (§5.5, Fig 14). This example stages
// the same amplification attack twice against a simulated route server
// and switching fabric — once mitigated by a classic /32 RTBH, once by a
// FlowSpec discard rule for the amplification source ports — and compares
// attack suppression and collateral damage.
//
//	go run ./examples/flowspec-vs-rtbh
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/bgp"
	"repro/internal/fabric"
	"repro/internal/ipfix"
	"repro/internal/netgen"
	"repro/internal/routeserver"
	"repro/internal/stats"
)

const (
	rsASN    = 64500
	victimAS = 100 // announces the mitigation
	attackAS = 200 // hands the attack into the IXP
	clientAS = 300 // hands legitimate client traffic into the IXP
)

var victimIP = func() uint32 {
	a, err := bgp.ParseAddr("203.0.113.80")
	if err != nil {
		panic(err)
	}
	return a
}()

// outcome tallies one mitigation run.
type outcome struct {
	attackDropped, attackForwarded int
	legitDropped, legitForwarded   int
}

func main() {
	rtbh := runScenario(func(rs *routeserver.Server) error {
		// Classic mitigation: a /32 blackhole. Everything toward the
		// victim dies at peers that accept host routes.
		_, err := rs.Process(time.Unix(0, 0), victimAS, &bgp.Update{
			Attrs: bgp.PathAttrs{
				ASPath:      []uint32{victimAS},
				NextHop:     routeserver.BlackholeNextHop,
				Communities: bgp.Communities{bgp.Blackhole},
			},
			NLRI: []bgp.Prefix{bgp.HostPrefix(victimIP)},
		})
		return err
	})

	flowspec := runScenario(func(rs *routeserver.Server) error {
		// Fine-grained mitigation: discard only UDP from the
		// amplification source ports used by the attack. The rule rides
		// an ordinary UPDATE, the same way into the route server.
		upd, err := bgp.UpdateFromFlowSpec(&bgp.FlowSpecUpdate{
			Announced: []*bgp.FlowRule{{
				Dst:      bgp.HostPrefix(victimIP),
				HasDst:   true,
				Protos:   []uint8{netgen.ProtoUDP},
				SrcPorts: []uint16{123, 389}, // NTP + cLDAP, as detected
			}},
			ExtComms: []bgp.ExtCommunity{bgp.TrafficRateDiscard},
		})
		if err != nil {
			return err
		}
		_, err = rs.Process(time.Unix(0, 0), victimAS, upd)
		return err
	})

	fmt.Println("same attack (NTP+cLDAP amplification) plus ongoing legitimate web traffic:")
	fmt.Println()
	print("RTBH /32 blackhole", rtbh)
	fmt.Println()
	print("FlowSpec port-list discard", flowspec)
	fmt.Println()
	fmt.Println("takeaway (paper §5.5/§7.2): port-based filtering suppresses the attack")
	fmt.Println("as effectively as blackholing while keeping the victim reachable —")
	fmt.Println("RTBH completes the denial of service on the mitigating peers.")
}

func print(name string, o outcome) {
	fmt.Printf("%s:\n", name)
	total := o.attackDropped + o.attackForwarded
	fmt.Printf("  attack traffic suppressed:    %4.0f%% (%d of %d sampled packets)\n",
		100*float64(o.attackDropped)/float64(total), o.attackDropped, total)
	legit := o.legitDropped + o.legitForwarded
	fmt.Printf("  legitimate traffic delivered: %4.0f%% (%d of %d sampled packets)\n",
		100*float64(o.legitForwarded)/float64(legit), o.legitForwarded, legit)
}

func runScenario(mitigate func(*routeserver.Server) error) outcome {
	rs := routeserver.New(rsASN, 1)
	peers := map[uint32]routeserver.Policy{
		victimAS: routeserver.DefaultPolicy(),
		attackAS: {Standard: routeserver.AcceptFull, Host: routeserver.AcceptFull, FlowSpec: routeserver.AcceptFull},
		clientAS: {Standard: routeserver.AcceptFull, Host: routeserver.AcceptFull, FlowSpec: routeserver.AcceptFull},
	}
	for asn, pol := range peers {
		if err := rs.AddPeer(routeserver.Peer{ASN: asn, IP: asn, Policy: pol}); err != nil {
			log.Fatal(err)
		}
	}

	var o outcome
	fb, err := fabric.New(rs, 1 /* sample everything */, stats.NewRNG(42), func(b *ipfix.RecordBatch) error {
		for i := range b.Recs {
			r := &b.Recs[i]
			dropped := r.DstMAC == fabric.BlackholeMAC
			attack := r.Proto == netgen.ProtoUDP && netgen.IsAmplificationPort(r.Proto, r.SrcPort)
			switch {
			case attack && dropped:
				o.attackDropped++
			case attack:
				o.attackForwarded++
			case dropped:
				o.legitDropped++
			default:
				o.legitForwarded++
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := mitigate(rs); err != nil {
		log.Fatal(err)
	}

	rng := stats.NewRNG(7)
	start := time.Unix(1000, 0)

	// The attack: two amplification vectors at 10k packets total.
	vec := &netgen.AmplificationVector{
		Protocol: mustProto(123),
		Reflectors: []netgen.Reflector{
			{IP: 0x50000001, OriginAS: 9000, HandoverAS: attackAS},
			{IP: 0x50000002, OriginAS: 9001, HandoverAS: attackAS},
		},
	}
	vec2 := &netgen.AmplificationVector{
		Protocol:   mustProto(389),
		Reflectors: []netgen.Reflector{{IP: 0x50000003, OriginAS: 9002, HandoverAS: attackAS}},
	}
	var batches []fabric.Batch
	batches = vec.Batches(batches, start, time.Minute, 100, victimIP, victimAS, rng)
	batches = vec2.Batches(batches, start, time.Minute, 66, victimIP, victimAS, rng)

	// Legitimate clients keep talking to the victim's web service.
	batches = append(batches, fabric.Batch{
		Time: start, Duration: time.Minute,
		IngressAS: clientAS, EgressAS: victimAS,
		SrcIP: 0x60000001, DstIP: victimIP,
		SrcPort: 0, DstPort: 443, Proto: netgen.ProtoTCP,
		PacketSize: 600, Packets: 2000,
		VaryPorts: func(r *stats.RNG) (uint16, uint16) {
			return netgen.EphemeralPort(r), 443
		},
	})

	for i := range batches {
		if err := fb.Inject(&batches[i]); err != nil {
			log.Fatal(err)
		}
	}
	return o
}

func mustProto(port uint16) netgen.AmpProtocol {
	p, ok := netgen.AmpProtocolByPort(port)
	if !ok {
		log.Fatalf("no amplification protocol on port %d", port)
	}
	return p
}
