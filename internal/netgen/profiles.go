package netgen

import (
	"time"

	"repro/internal/fabric"
	"repro/internal/stats"
)

// Service is one transport-layer service endpoint (a listening port).
type Service struct {
	Proto      uint8
	Port       uint16
	PacketSize int
	Weight     float64
}

// CommonServices is the catalog of services remote hosts and detected
// servers offer; weights reflect rough traffic-mix popularity.
var CommonServices = []Service{
	{ProtoTCP, 443, 1200, 45},
	{ProtoTCP, 80, 1100, 25},
	{ProtoUDP, 443, 1250, 10}, // QUIC
	{ProtoUDP, 53, 300, 6},
	{ProtoTCP, 22, 500, 2},
	{ProtoTCP, 25, 700, 3},
	{ProtoTCP, 993, 800, 2},
	{ProtoUDP, 27015, 250, 4}, // game server
	{ProtoTCP, 8080, 1000, 3},
}

// serviceChooser draws catalog indices by the services' weights.
func serviceChooser(catalog []Service) *stats.Chooser {
	weights := make([]float64, len(catalog))
	for i, svc := range catalog {
		weights[i] = svc.Weight
	}
	return stats.NewChooser(weights)
}

var commonServiceChooser = serviceChooser(CommonServices)

// RemotePool models the rest of the Internet as seen through the IXP: a
// block of remote addresses reachable via a set of member (handover) ASes.
type RemotePool struct {
	Handovers []uint32
	AddrBase  uint32
	AddrCount uint32
}

// Addr draws a random remote address.
func (p *RemotePool) Addr(r *stats.RNG) uint32 {
	if p.AddrCount == 0 {
		return p.AddrBase
	}
	return p.AddrBase + uint32(r.Int63n(int64(p.AddrCount)))
}

// Handover draws a random handover member.
func (p *RemotePool) Handover(r *stats.RNG) uint32 {
	return p.Handovers[r.Intn(len(p.Handovers))]
}

// ServerProfile is a host with stable listening ports: the legitimate-
// traffic signature the paper's §6 pipeline classifies as "server"
// (near-zero top-port variation, incoming port diversity concentrated on
// source ports).
type ServerProfile struct {
	// IP is the host address; MemberAS the IXP member announcing it.
	IP       uint32
	MemberAS uint32
	// Services are the listening ports, weight-split across the daily
	// volume. One to three entries is typical.
	Services []Service
	// DailyPackets is the mean incoming packet volume per active day;
	// outgoing volume matches (request/response symmetry).
	DailyPackets int64
}

// DayBatches appends the profile's batches for the active day starting at
// dayStart. Traffic spreads over the day via a small number of batches
// with long durations; the sampler thins them into realistic sparse
// samples.
func (s *ServerProfile) DayBatches(dst []fabric.Batch, dayStart time.Time, remotes *RemotePool, r *stats.RNG) []fabric.Batch {
	if len(s.Services) == 0 || s.DailyPackets <= 0 {
		return dst
	}
	// A service without a weight takes an even share.
	weight := func(svc Service) float64 {
		if svc.Weight <= 0 {
			return 1
		}
		return svc.Weight
	}
	var wsum float64
	for _, svc := range s.Services {
		wsum += weight(svc)
	}
	day := 24 * time.Hour
	for _, svc := range s.Services {
		pkts := int64(float64(s.DailyPackets) * weight(svc) / wsum)
		if pkts <= 0 {
			continue
		}
		svc := svc
		// Incoming: many clients, ephemeral source ports, service dst port.
		dst = append(dst, fabric.Batch{
			Time: dayStart, Duration: day,
			IngressAS: remotes.Handover(r), EgressAS: s.MemberAS,
			SrcIP: remotes.Addr(r), DstIP: s.IP,
			SrcPort: EphemeralPort(r), DstPort: svc.Port,
			Proto: svc.Proto, PacketSize: 400,
			Packets: pkts,
			VaryPorts: func(r *stats.RNG) (uint16, uint16) {
				return EphemeralPort(r), svc.Port
			},
			VarySrcIP: func(r *stats.RNG) uint32 { return remotes.Addr(r) },
		})
		// Outgoing: responses from the service port to ephemeral ports.
		dst = append(dst, fabric.Batch{
			Time: dayStart, Duration: day,
			IngressAS: s.MemberAS, EgressAS: remotes.Handover(r),
			SrcIP: s.IP, DstIP: remotes.Addr(r),
			SrcPort: svc.Port, DstPort: EphemeralPort(r),
			Proto: svc.Proto, PacketSize: svc.PacketSize,
			Packets: pkts,
			VaryPorts: func(r *stats.RNG) (uint16, uint16) {
				return svc.Port, EphemeralPort(r)
			},
		})
	}
	return dst
}

// ClientProfile is a host that initiates sessions toward remote services:
// ephemeral source ports outgoing, responses arriving on those ephemeral
// ports — so the daily "top port" of incoming traffic changes from day to
// day, the signature §6.2 uses to classify clients.
type ClientProfile struct {
	IP       uint32
	MemberAS uint32
	// SessionsPerDay is the mean number of distinct sessions per active
	// day; each session uses a fresh ephemeral port.
	SessionsPerDay int
	// DailyPackets is the mean per-direction daily packet volume.
	DailyPackets int64
	// Gaming biases remote services toward game/UDP endpoints, the
	// client population most often DDoSed (§6.2).
	Gaming bool
}

// gameServices are remote endpoints gaming clients talk to.
var gameServices = []Service{
	{ProtoUDP, 27015, 250, 5},
	{ProtoUDP, 3074, 250, 4}, // Xbox Live
	{ProtoUDP, 9308, 250, 2}, // PSN
	{ProtoTCP, 443, 1200, 2},
}

var gameServiceChooser = serviceChooser(gameServices)

// DayBatches appends the client's batches for one active day.
func (c *ClientProfile) DayBatches(dst []fabric.Batch, dayStart time.Time, remotes *RemotePool, r *stats.RNG) []fabric.Batch {
	sessions := c.SessionsPerDay
	if sessions <= 0 || c.DailyPackets <= 0 {
		return dst
	}
	catalog, chooser := CommonServices, commonServiceChooser
	if c.Gaming {
		catalog, chooser = gameServices, gameServiceChooser
	}
	perSession := c.DailyPackets / int64(sessions)
	if perSession <= 0 {
		perSession = 1
	}
	day := 24 * time.Hour
	for i := 0; i < sessions; i++ {
		svc := catalog[chooser.Choose(r)]
		eph := EphemeralPort(r)
		remote := remotes.Addr(r)
		handover := remotes.Handover(r)
		start := dayStart.Add(time.Duration(r.Int63n(int64(day) * 3 / 4)))
		sdur := day / 8
		// Outgoing requests.
		dst = append(dst, fabric.Batch{
			Time: start, Duration: sdur,
			IngressAS: c.MemberAS, EgressAS: handover,
			SrcIP: c.IP, DstIP: remote,
			SrcPort: eph, DstPort: svc.Port,
			Proto: svc.Proto, PacketSize: 120,
			Packets: perSession,
		})
		// Incoming responses to the session's ephemeral port.
		dst = append(dst, fabric.Batch{
			Time: start, Duration: sdur,
			IngressAS: handover, EgressAS: c.MemberAS,
			SrcIP: remote, DstIP: c.IP,
			SrcPort: svc.Port, DstPort: eph,
			Proto: svc.Proto, PacketSize: svc.PacketSize,
			Packets: perSession,
		})
	}
	return dst
}

// ScanBatches appends Internet background-radiation traffic toward a host:
// low-rate TCP SYN probes to random ports from scattered sources. The
// paper names scans as an incoming-traffic bias for host classification.
func ScanBatches(dst []fabric.Batch, dayStart time.Time, hostIP, memberAS uint32,
	packets int64, remotes *RemotePool, r *stats.RNG) []fabric.Batch {
	if packets <= 0 {
		return dst
	}
	return append(dst, fabric.Batch{
		Time: dayStart, Duration: 24 * time.Hour,
		IngressAS: remotes.Handover(r), EgressAS: memberAS,
		SrcIP: remotes.Addr(r), DstIP: hostIP,
		Proto: ProtoTCP, PacketSize: 60,
		Packets: packets,
		VaryPorts: func(r *stats.RNG) (uint16, uint16) {
			return EphemeralPort(r), uint16(r.Intn(65536))
		},
		VarySrcIP: func(r *stats.RNG) uint32 { return remotes.Addr(r) },
	})
}
