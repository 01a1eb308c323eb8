// Package netgen generates the traffic that crosses the simulated IXP:
// volumetric DDoS attacks (UDP amplification on the protocols the paper
// tabulates, TCP SYN floods, random- and rotating-port floods) and
// legitimate baseline traffic with distinct server and client signatures.
//
// All generators emit fabric.Batch values — packet aggregates per time
// slot — and take deterministic RNG streams, so a scenario reproduces
// exactly across runs.
package netgen

import (
	"math/bits"

	"repro/internal/stats"
)

// Transport protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// AmpProtocol describes one UDP amplification service, per the paper's
// Table 3 footnote.
type AmpProtocol struct {
	Name string
	Port uint16
	// PacketSize is a typical amplified-response size in bytes.
	PacketSize int
	// Weight is the relative frequency with which attacks use this
	// vector; cLDAP, NTP and DNS dominate (§5.4).
	Weight float64
}

// AmplificationProtocols is the known amplification vector list from the
// paper's Table 3: "QOTD/17, CharGEN/19, DNS/53, TFTP/69, NTP/123,
// NetBIOS/138, SNMPv2/161, LDAP/389, RIPv1/520, SSDP/1900, Game/3659,
// Game/3478, SIP/5060, BitTorrent/6881, Memcache/11211, Game/27005,
// Game/28960, Fragmentation/0". An array, so that the analysis can size
// per-protocol counters by it.
var AmplificationProtocols = [...]AmpProtocol{
	{Name: "QOTD", Port: 17, PacketSize: 500, Weight: 0.5},
	{Name: "CharGEN", Port: 19, PacketSize: 1020, Weight: 2},
	{Name: "DNS", Port: 53, PacketSize: 1400, Weight: 18},
	{Name: "TFTP", Port: 69, PacketSize: 500, Weight: 1},
	{Name: "NTP", Port: 123, PacketSize: 468, Weight: 22},
	{Name: "NetBIOS", Port: 138, PacketSize: 400, Weight: 1},
	{Name: "SNMPv2", Port: 161, PacketSize: 900, Weight: 1.5},
	{Name: "cLDAP", Port: 389, PacketSize: 1400, Weight: 26},
	{Name: "RIPv1", Port: 520, PacketSize: 500, Weight: 0.5},
	{Name: "SSDP", Port: 1900, PacketSize: 350, Weight: 6},
	{Name: "Game/3659", Port: 3659, PacketSize: 300, Weight: 1},
	{Name: "Game/3478", Port: 3478, PacketSize: 300, Weight: 1},
	{Name: "SIP", Port: 5060, PacketSize: 600, Weight: 1},
	{Name: "BitTorrent", Port: 6881, PacketSize: 800, Weight: 1.5},
	{Name: "Memcache", Port: 11211, PacketSize: 1400, Weight: 4},
	{Name: "Game/27005", Port: 27005, PacketSize: 300, Weight: 0.5},
	{Name: "Game/28960", Port: 28960, PacketSize: 300, Weight: 0.5},
	{Name: "Fragmentation", Port: 0, PacketSize: 1480, Weight: 2},
}

// ampPortSet indexes AmplificationProtocols by port: one bit per port.
// The analysis asks for every in-event record, several times over, so
// membership is an array read rather than a hash probe. ampRankBase[w]
// counts the catalog ports below word w's first port.
var ampPortSet, ampRankBase = func() (set [1 << 16 / 64]uint64, base [1 << 16 / 64]uint8) {
	for _, p := range AmplificationProtocols {
		set[p.Port>>6] |= 1 << (p.Port & 63)
	}
	for w := 1; w < len(set); w++ {
		base[w] = base[w-1] + uint8(bits.OnesCount64(set[w-1]))
	}
	return set, base
}()

// IsAmplificationPort reports whether a UDP source port belongs to a known
// amplification service. Reflected attack traffic arrives with the
// service port as *source* port (the reflector answers the victim), which
// is what port-list filtering matches on (§5.5, Fig 14).
func IsAmplificationPort(proto uint8, srcPort uint16) bool {
	return proto == ProtoUDP && ampPortSet[srcPort>>6]&(1<<(srcPort&63)) != 0
}

// AmpPortRank is IsAmplificationPort that also returns the port's rank
// among the catalog's ports in ascending order (0 for the lowest): a dense
// index below len(AmplificationProtocols) for per-protocol counters.
func AmpPortRank(proto uint8, srcPort uint16) (int, bool) {
	w, bit := ampPortSet[srcPort>>6], uint64(1)<<(srcPort&63)
	if proto != ProtoUDP || w&bit == 0 {
		return 0, false
	}
	return int(ampRankBase[srcPort>>6]) + bits.OnesCount64(w&(bit-1)), true
}

// AmpProtocolByPort returns the catalog entry for a port.
func AmpProtocolByPort(port uint16) (AmpProtocol, bool) {
	for _, p := range AmplificationProtocols {
		if p.Port == port {
			return p, true
		}
	}
	return AmpProtocol{}, false
}

// PickAmpProtocols selects n distinct amplification protocols with
// popularity-weighted probability. n is clamped to the catalog size.
func PickAmpProtocols(r *stats.RNG, n int) []AmpProtocol {
	if n > len(AmplificationProtocols) {
		n = len(AmplificationProtocols)
	}
	weights := make([]float64, len(AmplificationProtocols))
	for i, p := range AmplificationProtocols {
		weights[i] = p.Weight
	}
	out := make([]AmpProtocol, 0, n)
	for len(out) < n {
		i := r.WeightedChoice(weights)
		if weights[i] == 0 {
			continue
		}
		weights[i] = 0
		out = append(out, AmplificationProtocols[i])
	}
	return out
}

// EphemeralPort draws a client-side ephemeral port (1024-65535).
func EphemeralPort(r *stats.RNG) uint16 {
	return uint16(1024 + r.Intn(64512))
}
