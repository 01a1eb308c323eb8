// Package fabric simulates the IXP switching platform: member routers
// identified by their MAC addresses on the peering LAN, the special
// non-forwarding blackhole MAC that implements RTBH packet dropping, and
// the member-facing edge sampling that produces the data-plane record
// stream.
//
// Traffic enters the fabric as packet batches (aggregates of packets that
// share headers within a time slot). For each batch the fabric:
//
//  1. consults the route server for the ingress member's forwarding
//     decision toward the destination (drop fraction per that member's
//     accepted blackhole routes),
//  2. samples the batch at 1:N (binomial thinning),
//  3. emits one flow record per sampled packet, with the destination MAC
//     set to the blackhole MAC for dropped packets or the egress member's
//     router MAC otherwise.
//
// Record timestamps carry a configurable clock offset relative to the
// control plane, modeling the NTP skew between measurement systems that
// the paper estimates with a maximum-likelihood fit (Fig 2).
package fabric

import (
	"fmt"
	"time"

	"repro/internal/ipfix"
	"repro/internal/obs"
	"repro/internal/routeserver"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// BlackholeMAC is the layer-2 address that does not forward: packets
// addressed to it are dropped by the switching platform. The locally
// administered unicast prefix 0x06 avoids collisions with member MACs.
const BlackholeMAC ipfix.MAC = 0x06_00_00_00_06_66

// InternalMAC identifies the IXP's internal systems (route server,
// monitoring). The paper removes flows from/to internal devices (0.01% of
// records) before analysis; the simulator emits a small share of such
// flows so the cleaning step has something to clean.
const InternalMAC ipfix.MAC = 0x06_00_00_00_00_01

// MemberMAC derives the deterministic router MAC of a member AS on the
// peering LAN (locally administered, unicast).
func MemberMAC(asn uint32) ipfix.MAC {
	return ipfix.MAC(0x02_00_00_00_00_00 | uint64(asn)&0xffffffff)
}

// Batch is an aggregate of Packets packets sharing the same headers
// (modulo the optional per-packet variation hooks) within a time slot.
type Batch struct {
	// Time is the slot start; sampled packets are timestamped uniformly
	// within [Time, Time+Duration).
	Time     time.Time
	Duration time.Duration
	// IngressAS is the member that hands the traffic into the IXP (the
	// paper's "handover AS"); EgressAS is the member toward the
	// destination.
	IngressAS, EgressAS uint32
	// Packet headers.
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint8
	// PacketSize is the size of each packet in bytes.
	PacketSize int
	// Packets is the number of packets in the aggregate.
	Packets int64
	// VaryPorts, if non-nil, supplies per-sampled-packet ports (attacks
	// on random or rotating ports; ephemeral client source ports).
	VaryPorts func(r *stats.RNG) (src, dst uint16)
	// VarySrcIP, if non-nil, supplies per-sampled-packet source
	// addresses (reflector pools; spoofed floods).
	VarySrcIP func(r *stats.RNG) uint32
	// Internal marks IXP-internal traffic (destination is an internal
	// system, not a member).
	Internal bool
	// BilateralDropFraction models blackholing agreed outside the route
	// server (private/bilateral RTBH): the ingress member resolves its
	// own blackhole next hop to the blackhole MAC regardless of
	// route-server state. The paper attributes ~5% of dropped bytes to
	// such sources. The effective drop fraction is the maximum of this
	// and the route-server-derived fraction.
	BilateralDropFraction float64
	// Owner is the member AS a federated run anchors the batch to: the
	// batch is observed at whichever IXP that member connects to. For
	// victim-bound traffic this is the victim's peering AS regardless of
	// which member hands the traffic over; for outgoing and scan traffic
	// it is the host's own member. Single-IXP runs ignore it.
	Owner uint32
	// FixedSrcPort marks a VaryPorts hook that randomizes only the
	// destination port (amplification vectors: the reflected traffic
	// keeps the service source port). It lets Inject decide source-port
	// FlowSpec rules at batch granularity for the expected-drop counters
	// (Stats.PacketsDropped).
	FixedSrcPort bool
}

// Stats aggregates ground-truth counters maintained by the fabric,
// independent of sampling. The experiment harness uses them to validate
// what the sampled analysis recovers, and RegisterMetrics exposes them as
// observability gauges.
type Stats struct {
	Batches        int64 // packet batches injected
	PacketsIn      int64 // total packets offered
	PacketsDropped int64 // packets sent to the blackhole MAC (expected value, rounded per batch)
	BytesIn        int64
	BytesDropped   int64
	RecordsSampled int64
	DroppedSampled int64 // sampled records emitted with the blackhole MAC
}

// Fabric is the switching platform simulation. Not safe for concurrent
// use; the simulator drives it from its single event loop.
type Fabric struct {
	rs      *routeserver.Server
	sampler *sampling.Sampler
	rng     *stats.RNG
	emit    ipfix.BatchSink
	// ClockOffset is added to every data-plane timestamp, modeling NTP
	// skew between the control- and data-plane measurement systems.
	ClockOffset time.Duration

	stats Stats
	// fsCands are the FlowSpec rules that can discard packets of the batch
	// Inject is offering, kept to reuse their storage.
	fsCands routeserver.FlowCandidates
}

// SampleSource bundles the edge sampler and the per-record randomness a
// fabric draws from. A federated run shares one source across its
// per-IXP fabrics, so the interleaved draw sequence — and with it every
// sampled record — matches the single-fabric run over the same batch
// dispatch order exactly.
type SampleSource struct {
	sampler *sampling.Sampler
	rng     *stats.RNG
}

// NewSampleSource derives the sampler and record RNG from rng exactly as
// New does, so a fabric built over the source behaves identically to one
// built directly from rng.
func NewSampleSource(rate int64, rng *stats.RNG) (*SampleSource, error) {
	s, err := sampling.New(rate, rng.Fork(0xfab))
	if err != nil {
		return nil, err
	}
	return &SampleSource{sampler: s, rng: rng.Fork(0x5eed)}, nil
}

// New creates a fabric attached to route server rs, sampling at 1:rate,
// emitting sampled flow records through emit — one RecordBatch per
// injected packet batch, so all records of an emitted batch share their
// headers by construction (modulo the per-packet variation hooks).
func New(rs *routeserver.Server, rate int64, rng *stats.RNG, emit ipfix.BatchSink) (*Fabric, error) {
	src, err := NewSampleSource(rate, rng)
	if err != nil {
		return nil, err
	}
	return NewWithSource(rs, src, emit)
}

// NewWithSource creates a fabric drawing sampling and record randomness
// from src, which may be shared with other fabrics. Shared-source
// fabrics must be driven from a single goroutine.
func NewWithSource(rs *routeserver.Server, src *SampleSource, emit ipfix.BatchSink) (*Fabric, error) {
	if rs == nil {
		return nil, fmt.Errorf("fabric: nil route server")
	}
	if src == nil {
		return nil, fmt.Errorf("fabric: nil sample source")
	}
	if emit == nil {
		return nil, fmt.Errorf("fabric: nil record sink")
	}
	return &Fabric{rs: rs, sampler: src.sampler, rng: src.rng, emit: emit}, nil
}

// Stats returns the ground-truth counters accumulated so far.
func (f *Fabric) Stats() Stats { return f.stats }

// RegisterMetrics exposes the fabric's ground-truth and sampling counters
// under the "fabric." prefix. The gauges read live fabric state; snapshot
// from the goroutine driving the (single-threaded) fabric, or after the
// run finished. fabric.records_dropped_sampled counts sampled records
// emitted with the blackhole destination MAC — the number the analysis
// pipeline's dropped-record counter must reproduce exactly from the IPFIX
// archive alone.
func (f *Fabric) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("fabric.batches", func() int64 { return f.stats.Batches })
	reg.GaugeFunc("fabric.packets_in", func() int64 { return f.stats.PacketsIn })
	reg.GaugeFunc("fabric.packets_dropped", func() int64 { return f.stats.PacketsDropped })
	reg.GaugeFunc("fabric.bytes_in", func() int64 { return f.stats.BytesIn })
	reg.GaugeFunc("fabric.bytes_dropped", func() int64 { return f.stats.BytesDropped })
	reg.GaugeFunc("fabric.records_sampled", func() int64 { return f.stats.RecordsSampled })
	reg.GaugeFunc("fabric.records_dropped_sampled", func() int64 { return f.stats.DroppedSampled })
}

// Inject offers a packet batch to the fabric. It updates ground-truth
// counters and emits sampled flow records.
func (f *Fabric) Inject(b *Batch) error {
	if b.Packets <= 0 {
		return nil
	}
	if b.PacketSize <= 0 {
		return fmt.Errorf("fabric: batch with packet size %d", b.PacketSize)
	}
	f.stats.Batches++

	dropFrac := 0.0
	if !b.Internal {
		dropFrac = f.rs.DropFraction(b.IngressAS, b.DstIP)
		if b.BilateralDropFraction > dropFrac {
			dropFrac = b.BilateralDropFraction
			if dropFrac > 1 {
				dropFrac = 1
			}
		}
	}

	// Batch-level FlowSpec evaluation: when the ports the installed rules
	// can match on are batch-constant, whether the fine-grained discard
	// bites is a property of the batch, and the expected dropped-packet
	// count is exact. Batches that randomize the source port (ephemeral
	// client ports, random-port floods) are evaluated per sampled record
	// only; their expected FlowSpec contribution is treated as zero, which
	// is what the scenario's service-port discard rules make it.
	// A packet dies to FlowSpec if the ingress member imported a matching
	// rule or the egress member authored one (routeserver.Server.MatchFlowRule).
	// Only ports and protocol vary within a batch, so the rules that can
	// match it are picked once, for this decision and the sampled records'.
	fsMatch := false
	if !b.Internal {
		f.rs.FlowCandidates(&f.fsCands, b.IngressAS, b.EgressAS, b.DstIP)
		switch {
		case b.VaryPorts == nil:
			fsMatch = f.fsCands.Match(b.Proto, b.SrcPort, b.DstPort) != nil
		case b.FixedSrcPort:
			// Destination port varies per packet; only a rule that does
			// not constrain it can be decided at batch level.
			r := f.fsCands.Match(b.Proto, b.SrcPort, b.DstPort)
			fsMatch = r != nil && len(r.DstPorts) == 0
		}
	}

	f.stats.PacketsIn += b.Packets
	f.stats.BytesIn += b.Packets * int64(b.PacketSize)
	expectedDropped := int64(dropFrac*float64(b.Packets) + 0.5)
	var expectedFS int64
	if fsMatch {
		// FlowSpec discards whatever the RTBH path did not already claim.
		expectedFS = b.Packets - expectedDropped
	}
	f.stats.PacketsDropped += expectedDropped + expectedFS
	f.stats.BytesDropped += (expectedDropped + expectedFS) * int64(b.PacketSize)

	n := f.sampler.Sample(b.Packets)
	if n == 0 {
		return nil
	}
	f.stats.RecordsSampled += n

	egressMAC := MemberMAC(b.EgressAS)
	if b.Internal {
		egressMAC = InternalMAC
	}
	dur := b.Duration
	if dur <= 0 {
		dur = time.Nanosecond
	}
	out := ipfix.GetBatch()
	defer out.Release()
	ingressMAC := MemberMAC(b.IngressAS)
	for i := int64(0); i < n; i++ {
		out.Recs = append(out.Recs, ipfix.FlowRecord{
			SrcMAC:  ingressMAC,
			DstMAC:  egressMAC,
			SrcIP:   b.SrcIP,
			DstIP:   b.DstIP,
			SrcPort: b.SrcPort,
			DstPort: b.DstPort,
			Proto:   b.Proto,
			Packets: 1,
			Bytes:   uint64(b.PacketSize),
		})
		rec := &out.Recs[len(out.Recs)-1]
		off := time.Duration(f.rng.Int63n(int64(dur)))
		rec.Start = b.Time.Add(off + f.ClockOffset)
		if b.VaryPorts != nil {
			rec.SrcPort, rec.DstPort = b.VaryPorts(f.rng)
		}
		if b.VarySrcIP != nil {
			rec.SrcIP = b.VarySrcIP(f.rng)
		}
		if !b.Internal {
			switch {
			case f.rng.Bool(dropFrac):
				rec.DstMAC = BlackholeMAC
			case f.fsCands.Match(rec.Proto, rec.SrcPort, rec.DstPort) != nil:
				// Fine-grained discard: only the matching packets die.
				// The expected-value counters already accounted for this
				// at batch level (fsMatch above).
				rec.DstMAC = BlackholeMAC
			}
		}
		if rec.DstMAC == BlackholeMAC {
			f.stats.DroppedSampled++
		}
	}
	if err := f.emit(out); err != nil {
		return fmt.Errorf("fabric: emitting records: %w", err)
	}
	return nil
}
