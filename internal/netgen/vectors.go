package netgen

import (
	"time"

	"repro/internal/fabric"
	"repro/internal/stats"
)

// Reflector is one amplifier host: its address, the AS that originates the
// address space, and the IXP member that hands its traffic into the fabric.
type Reflector struct {
	IP         uint32
	OriginAS   uint32
	HandoverAS uint32
}

// Vector generates the batches of one attack component for one time slot.
// pps is the packet rate allotted to this vector during the slot.
type Vector interface {
	// Batches appends this vector's packet batches for the slot
	// [start, start+dur) at rate pps toward (victimIP, victimAS).
	Batches(dst []fabric.Batch, start time.Time, dur time.Duration, pps float64,
		victimIP, victimAS uint32, r *stats.RNG) []fabric.Batch
}

// AmplificationVector is a UDP reflection/amplification attack using one
// service protocol and a pool of reflectors.
type AmplificationVector struct {
	Protocol   AmpProtocol
	Reflectors []Reflector

	// handovers groups the pool for batch emission; built on first use.
	handovers []ampHandover
	wsum      float64
	// varyPorts is the per-packet port hook every batch of the vector
	// shares: the service source port and an ephemeral destination. It
	// is set once the vector is built.
	varyPorts func(r *stats.RNG) (uint16, uint16)
}

// ampHandover is the part of the reflector pool behind one handover
// member, with everything a batch of it needs built once.
type ampHandover struct {
	as   uint32
	pool []uint32
	// weight skews the per-handover traffic split: the amplifier
	// populations behind different networks respond with very different
	// aggregate rates, so one or two handover members usually carry the
	// bulk of an attack. This per-attack skew is what spreads the
	// per-event drop rates across the whole 0..1 range (paper Fig 6).
	weight float64
	// varySrcIP draws a per-packet source from this handover's pool.
	varySrcIP func(r *stats.RNG) uint32
}

func (v *AmplificationVector) build(r *stats.RNG) {
	if v.varyPorts != nil {
		return
	}
	// Handovers in first-seen order.
	index := make(map[uint32]int)
	for _, rf := range v.Reflectors {
		i, seen := index[rf.HandoverAS]
		if !seen {
			i = len(v.handovers)
			index[rf.HandoverAS] = i
			v.handovers = append(v.handovers, ampHandover{as: rf.HandoverAS})
		}
		v.handovers[i].pool = append(v.handovers[i].pool, rf.IP)
	}
	for i := range v.handovers {
		h := &v.handovers[i]
		h.weight = r.Pareto(0.7, 1, 5000)
		v.wsum += h.weight
		pool := h.pool
		h.varySrcIP = func(r *stats.RNG) uint32 { return pool[r.Intn(len(pool))] }
	}
	v.varyPorts = func(r *stats.RNG) (uint16, uint16) {
		return v.Protocol.Port, EphemeralPort(r)
	}
}

// Batches implements Vector. It emits one batch per handover AS, with the
// per-packet source address drawn from that handover's reflectors and the
// amplification service port as source port. Traffic splits across
// handover members with a heavy-tailed per-attack weighting.
func (v *AmplificationVector) Batches(dst []fabric.Batch, start time.Time, dur time.Duration,
	pps float64, victimIP, victimAS uint32, r *stats.RNG) []fabric.Batch {
	v.build(r)
	if len(v.handovers) == 0 || pps <= 0 {
		return dst
	}
	total := int64(pps * dur.Seconds())
	if total <= 0 {
		return dst
	}
	for i := range v.handovers {
		h := &v.handovers[i]
		per := int64(float64(total) * h.weight / v.wsum)
		if per == 0 {
			per = 1
		}
		dst = append(dst, fabric.Batch{
			Time: start, Duration: dur,
			IngressAS: h.as, EgressAS: victimAS,
			SrcIP: h.pool[0], DstIP: victimIP,
			SrcPort: v.Protocol.Port, Proto: ProtoUDP,
			PacketSize: v.Protocol.PacketSize,
			Packets:    per,
			VaryPorts:  v.varyPorts,
			// Reflected traffic keeps the service source port; only the
			// destination port varies. Source-port FlowSpec rules can
			// therefore be evaluated per batch.
			FixedSrcPort: true,
			VarySrcIP:    h.varySrcIP,
		})
	}
	return dst
}

// SYNFloodVector is a direct spoofed TCP SYN flood against a small set of
// service ports, entering via a few transit members.
type SYNFloodVector struct {
	Handovers []uint32 // ingress members carrying the flood
	DstPorts  []uint16 // attacked service ports (e.g. 80, 443)

	varyPorts func(r *stats.RNG) (uint16, uint16) // built on first use
}

// spoofedSrcIP draws a spoofed source: uniform over unicast space. These
// do not resolve in the IP-to-AS table, exactly like real spoofed traffic
// defeats attribution.
func spoofedSrcIP(r *stats.RNG) uint32 {
	return 0x01000000 + uint32(r.Int63n(0xdf000000-0x01000000))
}

// Batches implements Vector.
func (v *SYNFloodVector) Batches(dst []fabric.Batch, start time.Time, dur time.Duration,
	pps float64, victimIP, victimAS uint32, r *stats.RNG) []fabric.Batch {
	if len(v.Handovers) == 0 || len(v.DstPorts) == 0 || pps <= 0 {
		return dst
	}
	total := int64(pps * dur.Seconds())
	if total <= 0 {
		return dst
	}
	per := total / int64(len(v.Handovers))
	if per == 0 {
		per = 1
	}
	if v.varyPorts == nil {
		v.varyPorts = func(r *stats.RNG) (uint16, uint16) {
			return EphemeralPort(r), v.DstPorts[r.Intn(len(v.DstPorts))]
		}
	}
	for _, h := range v.Handovers {
		dst = append(dst, fabric.Batch{
			Time: start, Duration: dur,
			IngressAS: h, EgressAS: victimAS,
			SrcIP: 0, DstIP: victimIP,
			Proto:      ProtoTCP,
			PacketSize: 60, // SYN-sized
			Packets:    per,
			VaryPorts:  v.varyPorts,
			VarySrcIP:  spoofedSrcIP,
		})
	}
	return dst
}

// RandomPortUDPVector is a UDP flood with random source and destination
// ports — the attack class port-list filtering cannot mitigate, producing
// the residual ~10% in the paper's Fig 14.
type RandomPortUDPVector struct {
	Handovers []uint32
}

// Batches implements Vector.
func (v *RandomPortUDPVector) Batches(dst []fabric.Batch, start time.Time, dur time.Duration,
	pps float64, victimIP, victimAS uint32, r *stats.RNG) []fabric.Batch {
	if len(v.Handovers) == 0 || pps <= 0 {
		return dst
	}
	total := int64(pps * dur.Seconds())
	if total <= 0 {
		return dst
	}
	per := total / int64(len(v.Handovers))
	if per == 0 {
		per = 1
	}
	for _, h := range v.Handovers {
		dst = append(dst, fabric.Batch{
			Time: start, Duration: dur,
			IngressAS: h, EgressAS: victimAS,
			SrcIP: 0, DstIP: victimIP,
			Proto:      ProtoUDP,
			PacketSize: 512,
			Packets:    per,
			VaryPorts: func(r *stats.RNG) (uint16, uint16) {
				// Avoid known amplification source ports so the event is
				// genuinely unfilterable by the port list.
				for {
					src := EphemeralPort(r)
					if !IsAmplificationPort(ProtoUDP, src) {
						return src, uint16(r.Intn(65536))
					}
				}
			},
			VarySrcIP: spoofedSrcIP,
		})
	}
	return dst
}

// RotatingPortVector walks the destination port space sequentially —
// "increasing port numbers" (§5.5). Source port is a fixed amplification
// port is NOT used; this is a direct flood.
type RotatingPortVector struct {
	Handovers []uint32
	next      uint32

	varyPorts func(r *stats.RNG) (uint16, uint16) // built on first use
}

// Batches implements Vector.
func (v *RotatingPortVector) Batches(dst []fabric.Batch, start time.Time, dur time.Duration,
	pps float64, victimIP, victimAS uint32, r *stats.RNG) []fabric.Batch {
	if len(v.Handovers) == 0 || pps <= 0 {
		return dst
	}
	total := int64(pps * dur.Seconds())
	if total <= 0 {
		return dst
	}
	per := total / int64(len(v.Handovers))
	if per == 0 {
		per = 1
	}
	if v.varyPorts == nil {
		v.varyPorts = func(r *stats.RNG) (uint16, uint16) {
			v.next++
			return EphemeralPort(r), uint16(v.next)
		}
	}
	for _, h := range v.Handovers {
		dst = append(dst, fabric.Batch{
			Time: start, Duration: dur,
			IngressAS: h, EgressAS: victimAS,
			SrcIP: 0, DstIP: victimIP,
			Proto:      ProtoUDP,
			PacketSize: 512,
			Packets:    per,
			VaryPorts:  v.varyPorts,
			VarySrcIP:  spoofedSrcIP,
		})
	}
	return dst
}
