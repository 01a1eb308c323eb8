// Package analysis provides the shared vocabulary of the measurement
// pipeline that reproduces the paper's study: parsed control-plane
// updates, dataset metadata (member router MACs, IP-to-AS mapping,
// PeeringDB), time slotting, and bounded distinct counters used by the
// streaming aggregators.
//
// The pipeline mirrors the paper's methodology:
//
//	control plane (MRT)  -> events:    RTBH events via 10-minute merge
//	                        load:      parallel-RTBH time series (Fig 3)
//	                        visibility: per-peer filtered shares (Fig 4)
//	data plane (IPFIX)   -> pipeline:  one streaming pass feeding
//	                        timealign, dropstats, anomaly, protomix,
//	                        hosts, collateral
//	both                 -> usecase:   event classification (Fig 19)
package analysis

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/ip2as"
	"repro/internal/ipfix"
	"repro/internal/mrt"
	"repro/internal/peeringdb"
)

// SlotDuration is the analysis time-slot size (the paper aggregates the
// data plane into five-minute slots).
const SlotDuration = 5 * time.Minute

// Slot returns the global slot index of t.
func Slot(t time.Time) int64 { return t.Unix() / int64(SlotDuration/time.Second) }

// Day returns the UTC day index of t relative to start.
func Day(start, t time.Time) int {
	return int(t.Sub(start) / (24 * time.Hour))
}

// ControlUpdate is one RTBH signaling action extracted from the
// control-plane archive.
type ControlUpdate struct {
	Time     time.Time
	Peer     uint32 // announcing route-server client
	Prefix   bgp.Prefix
	Announce bool
	OriginAS uint32 // rightmost AS_PATH hop (announcements only)
	// Communities carried on announcements; used to derive per-peer
	// visibility of targeted blackholes.
	Communities bgp.Communities
}

// ExpandUpdate appends the RTBH control updates carried by one BGP
// UPDATE to dst: withdrawals first (they qualify unconditionally — they
// carry no attributes), then the announced prefixes, which must carry
// the BLACKHOLE community to qualify. This is the single definition of
// what counts as RTBH signaling, shared by the batch MRT parser and the
// live mode's online analyzer.
func ExpandUpdate(dst []ControlUpdate, ts time.Time, peer uint32, upd *bgp.Update) []ControlUpdate {
	for _, p := range upd.Withdrawn {
		dst = append(dst, ControlUpdate{
			Time: ts, Peer: peer, Prefix: p, Announce: false,
		})
	}
	if len(upd.NLRI) > 0 && upd.Attrs.Communities.HasBlackhole() {
		for _, p := range upd.NLRI {
			dst = append(dst, ControlUpdate{
				Time: ts, Peer: peer, Prefix: p, Announce: true,
				OriginAS:    upd.Attrs.OriginAS(),
				Communities: upd.Attrs.Communities.Clone(),
			})
		}
	}
	return dst
}

// SortUpdates sorts control updates by time, keeping the relative order
// of equal timestamps (the order the route server processed them in).
func SortUpdates(us []ControlUpdate) {
	sort.SliceStable(us, func(i, j int) bool { return us[i].Time.Before(us[j].Time) })
}

// FlowUpdate is one FlowSpec signaling action extracted from the
// control-plane archive: a member announcing or withdrawing a
// fine-grained discard rule through the route server (the paper's §5.5
// mitigation alternative to RTBH).
type FlowUpdate struct {
	Time     time.Time
	Peer     uint32 // announcing route-server client
	Rule     *bgp.FlowRule
	Announce bool
}

// ExpandFlowSpec appends the FlowSpec actions carried by one BGP UPDATE
// to dst: nothing unless the update carries FlowSpec NLRI (RTBH updates
// pass through untouched), withdrawals first. Announcements qualify only
// with the traffic-rate-0 (discard) action — mirroring what the route
// server installs. Malformed FlowSpec attributes are skipped rather than
// fatal: the archive may interleave foreign multiprotocol updates the
// analysis does not model, exactly like ParseMRT skips non-RTBH routes.
func ExpandFlowSpec(dst []FlowUpdate, ts time.Time, peer uint32, upd *bgp.Update) []FlowUpdate {
	fsu, isFS, err := bgp.FlowSpecFromUpdate(upd)
	if err != nil || !isFS {
		return dst
	}
	for _, r := range fsu.Withdrawn {
		dst = append(dst, FlowUpdate{Time: ts, Peer: peer, Rule: r, Announce: false})
	}
	if fsu.Discards() {
		for _, r := range fsu.Announced {
			dst = append(dst, FlowUpdate{Time: ts, Peer: peer, Rule: r, Announce: true})
		}
	}
	return dst
}

// SortFlowUpdates sorts FlowSpec updates by time, keeping the relative
// order of equal timestamps.
func SortFlowUpdates(us []FlowUpdate) {
	sort.SliceStable(us, func(i, j int) bool { return us[i].Time.Before(us[j].Time) })
}

// ParseMRTAll extracts both signaling streams from an MRT archive
// written by the collector: the RTBH control updates and the FlowSpec
// rule actions, each sorted by time. Non-UPDATE records are skipped; see
// ExpandUpdate and ExpandFlowSpec for what qualifies. The same UPDATE
// never contributes to both — FlowSpec updates
// carry no IPv4 NLRI and no BLACKHOLE community, so ExpandUpdate yields
// nothing for them, and vice versa.
func ParseMRTAll(r io.Reader) ([]ControlUpdate, []FlowUpdate, error) {
	rd := mrt.NewReader(r)
	var out blocks[ControlUpdate]
	var flows blocks[FlowUpdate]
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		upd, isUpdate, err := rec.DecodeUpdate()
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: record at %v: %w", rec.Timestamp, err)
		}
		if !isUpdate {
			continue
		}
		out.cur = ExpandUpdate(out.tail(), rec.Timestamp, rec.PeerAS, upd)
		flows.cur = ExpandFlowSpec(flows.tail(), rec.Timestamp, rec.PeerAS, upd)
	}
	us, fs := out.flatten(), flows.flatten()
	SortUpdates(us)
	SortFlowUpdates(fs)
	return us, fs, nil
}

// blockLen is the length of one of blocks' blocks.
const blockLen = 4096

// blocks collects a stream of values in blocks of about blockLen, so
// that the slice they end up in is allocated once, at its exact length:
// growing one slice by append instead re-allocates, re-zeroes and copies
// it dozens of times over a paper-scale archive, and leaves it up to a
// quarter over-allocated.
type blocks[T any] struct {
	full [][]T
	cur  []T // the block to append to
}

// tail returns the block to append to, starting a new one once the
// current one holds blockLen values.
func (b *blocks[T]) tail() []T {
	if len(b.cur) >= blockLen {
		b.full = append(b.full, b.cur)
		b.cur = make([]T, 0, blockLen)
	}
	return b.cur
}

// flatten returns every value collected, in order, in one slice of
// exactly their number (nil for none).
func (b *blocks[T]) flatten() []T {
	n := len(b.cur)
	for _, blk := range b.full {
		n += len(blk)
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, blk := range b.full {
		out = append(out, blk...)
	}
	return append(out, b.cur...)
}

// Metadata carries the side tables the analysis joins against, mirroring
// the sources the paper uses: the IXP's interface database (MAC->member),
// routing tables (IP->origin AS) and PeeringDB.
type Metadata struct {
	// SamplingRate is the data plane's 1:N sampling denominator.
	SamplingRate int64
	// TrafficScale is the dataset's traffic-magnitude multiplier relative
	// to the repo's scaled-down defaults (zero means 1; ~50 is paper
	// magnitude). Volume-calibrated thresholds derive from it via Scale.
	TrafficScale float64
	// Start/End bound the measurement period.
	Start, End time.Time
	// MemberByMAC maps router MACs on the peering LAN to member ASNs.
	MemberByMAC map[ipfix.MAC]uint32
	// BlackholeMAC is the non-forwarding MAC implementing the drops.
	BlackholeMAC ipfix.MAC
	// InternalMACs identify IXP-internal systems whose flows are removed
	// during cleaning.
	InternalMACs map[ipfix.MAC]bool
	// IP2AS resolves origin ASes of traffic sources.
	IP2AS *ip2as.Table
	// PDB is the PeeringDB registry.
	PDB *peeringdb.Registry
}

// Validate reports missing mandatory metadata.
func (m *Metadata) Validate() error {
	switch {
	case m.SamplingRate < 1:
		return fmt.Errorf("analysis: sampling rate %d", m.SamplingRate)
	case len(m.MemberByMAC) == 0:
		return fmt.Errorf("analysis: no member MAC table")
	case m.BlackholeMAC == 0:
		return fmt.Errorf("analysis: blackhole MAC unset")
	case m.Start.IsZero() || !m.End.After(m.Start):
		return fmt.Errorf("analysis: invalid period %v..%v", m.Start, m.End)
	}
	return nil
}

// Scale returns the effective traffic-magnitude multiplier, normalizing
// the zero value (metadata predating the knob) to 1.
func (m *Metadata) Scale() float64 {
	if m.TrafficScale == 0 {
		return 1
	}
	return m.TrafficScale
}

// CalibratedSamplingRate is the 1:N sampling denominator at which the
// repo's sampled-count constants (anomaly.MinMagnitude) were tuned;
// every shipped world preset samples at this rate unless a numeric
// -scale coarsens it together with the traffic multiplier.
const CalibratedSamplingRate = 10000

// MagnitudeScale returns the factor by which per-slot *sampled* packet
// counts exceed the calibration point (TrafficScale 1 at 1:10000
// sampling): traffic multiplies sampled counts linearly, a coarser
// sampling denominator divides them, so the paper configuration
// (`-scale 50` = 50x traffic at 1:500000) leaves sampled magnitudes —
// and the constants derived from them — exactly where scale 1 put
// them. Scale-1 datasets always return 1: their constants are the
// calibration itself whatever their sampling rate (the sampling-rate
// ablation deliberately sweeps the denominator and must not have its
// thresholds re-derived under it).
func (m *Metadata) MagnitudeScale() float64 {
	s := m.Scale()
	if s == 1 {
		return 1
	}
	return s * CalibratedSamplingRate / float64(m.SamplingRate)
}

// MemberOf resolves a router MAC to its member ASN (0 if unknown).
func (m *Metadata) MemberOf(mac ipfix.MAC) uint32 { return m.MemberByMAC[mac] }

// IsInternal reports whether the record touches an internal system.
func (m *Metadata) IsInternal(rec *ipfix.FlowRecord) bool {
	return m.InternalMACs[rec.SrcMAC] || m.InternalMACs[rec.DstMAC]
}
