// Package anomaly implements the paper's pre-RTBH traffic analysis
// (§5.2-§5.4): per-prefix five-minute feature series, the five-feature
// EWMA detector (24-hour window, 2.5 standard deviations), the
// classification of pre-RTBH windows (Table 2), anomaly levels and
// offsets (Fig 12), and the anomaly amplification factor (Fig 13).
//
// The five features are (i) packets, (ii) flows, (iii) unique source
// addresses, (iv) unique destination ports, (v) non-TCP flows.
package anomaly

import (
	"cmp"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/events"
	"repro/internal/bgp"
	"repro/internal/stats"
)

// NumFeatures is the number of traffic features observed.
const NumFeatures = 5

// Feature indices.
const (
	FeatPackets = iota
	FeatFlows
	FeatSrcIPs
	FeatDstPorts
	FeatNonTCP
)

// FeatureNames are the display names of the five features.
var FeatureNames = [NumFeatures]string{"packets", "flows", "src-ips", "dst-ports", "non-tcp-flows"}

// Detector parameters (paper §5.3).
const (
	// Span is the EWMA span: 288 five-minute slots = 24 hours.
	Span = 288
	// DefaultThreshold is the anomaly threshold in standard deviations.
	DefaultThreshold = 2.5
	// MinMagnitude is the minimum feature value for a slot to count as
	// anomalous, calibrated to TrafficScale 1. The paper's vantage point
	// carries enough baseline traffic that the EWMA's standard deviation
	// absorbs isolated samples; at this reproduction's scaled-down
	// volumes a lone sampled packet in an otherwise empty window would
	// trivially exceed mean + 2.5*SD, so anomalies must additionally be
	// supported by a handful of samples (see DESIGN.md, substitutions).
	// Sampled feature magnitudes grow linearly with the sampled-volume
	// scale (traffic multiplier x sampling-denominator ratio — see
	// analysis.Metadata.MagnitudeScale), so the support floor scales
	// linearly too — see MinMagnitudeAt.
	MinMagnitude = 4
)

// MinMagnitudeAt derives the anomaly support floor for a dataset's
// sampled-magnitude scale (analysis.Metadata.MagnitudeScale, NOT the
// raw traffic multiplier: the paper configuration coarsens sampling in
// step with traffic, leaving sampled counts — and this floor — at their
// scale-1 values): MinMagnitude at scale 1, growing linearly with the
// sampled volumes, and never below the scale-1 floor — sub-scale worlds
// still need a handful of samples before a slot counts.
func MinMagnitudeAt(scale float64) float64 {
	if scale <= 1 {
		return MinMagnitude
	}
	return MinMagnitude * scale
}

// slotKey packs one prefix's five-minute slot into an integer, so that
// the per-record probe of the slot map takes the runtime's specialized
// 64-bit hash path: the prefix in the top 33 bits, as its leading Len
// address bits under a marker bit, and the slot plus slotBias in the low
// slotBits. The slots of years 0 to 9999 fit, and so does every slot an
// event's analysis window can hold: the archives' timestamps are 32-bit
// unix seconds and the metadata's period end an RFC 3339 time.
type slotKey uint64

const (
	slotBits = 31
	slotBias = 1 << (slotBits - 1)
)

// keyOf returns the key of canonical prefix p's slot, false if the slot
// lies outside the key's range.
func keyOf(p bgp.Prefix, slot int64) (slotKey, bool) {
	if slot < -slotBias || slot >= slotBias {
		return 0, false
	}
	code := 1<<p.Len | uint64(p.Addr)>>(32-p.Len)
	return slotKey(code<<slotBits | uint64(slot+slotBias)), true
}

func (k slotKey) prefix() bgp.Prefix {
	code := uint64(k) >> slotBits
	l := uint8(bits.Len64(code) - 1)
	return bgp.Prefix{Addr: uint32((code &^ (1 << l)) << (32 - l)), Len: l}
}

func (k slotKey) slot() int64 { return int64(k&(1<<slotBits-1)) - slotBias }

// slotFeat accumulates one slot's features; unique counts are bounded
// (saturation happens far above any detection threshold). It is the unit
// of copy-on-write sharing between an aggregator and its snapshots: owner
// names the aggregator that may write it in place.
type slotFeat struct {
	owner    analysis.Stamp
	packets  uint32
	nonTCP   uint32
	flows    analysis.BoundedSet
	srcIPs   analysis.BoundedSet
	dstPorts analysis.BoundedSet
}

// Aggregator collects per-slot features during the streaming pass. Feed
// it only records whose (prefix, time) the events index deems interesting
// (pre-window or event window); everything else is wasted memory.
type Aggregator struct {
	slots map[slotKey]*slotFeat
	cow   analysis.Cow

	// lastKey/last memoize the slot of the most recent Add: the records of
	// one traffic batch land in the same (prefix, five-minute slot), so the
	// map probe runs once per run. The memoised slot is always one
	// the aggregator owns: last is nil after a Snapshot and after the map
	// was replaced (UnmarshalBinary).
	lastKey slotKey
	last    *slotFeat
}

// New returns an empty aggregator.
func New() *Aggregator {
	return &Aggregator{slots: make(map[slotKey]*slotFeat), cow: analysis.NewCow()}
}

// own returns key's slot for writing: created if absent, copied first if
// it is shared with another aggregator.
func (a *Aggregator) own(key slotKey) *slotFeat {
	sf := a.slots[key]
	switch {
	case sf == nil:
		sf = &slotFeat{owner: a.cow.Stamp()}
		a.slots[key] = sf
	case !a.cow.Owns(sf.owner):
		sf = &slotFeat{
			owner:    a.cow.Copied(),
			packets:  sf.packets,
			nonTCP:   sf.nonTCP,
			flows:    sf.flows.Clone(),
			srcIPs:   sf.srcIPs.Clone(),
			dstPorts: sf.dstPorts.Clone(),
		}
		a.slots[key] = sf
	}
	return sf
}

// Add accumulates one sampled packet into the feature slot of prefix. A
// packet at a time outside the slot key's range is not kept: no event's
// analysis window reaches it (see slotKey).
func (a *Aggregator) Add(prefix bgp.Prefix, t time.Time, srcIP uint32, srcPort, dstPort uint16, proto uint8, pkts int64) {
	key, ok := keyOf(prefix, analysis.Slot(t))
	if !ok {
		return
	}
	sf := a.last
	if sf == nil || key != a.lastKey {
		sf = a.own(key)
		a.lastKey, a.last = key, sf
	}
	sf.packets += uint32(pkts)
	if proto != 6 {
		sf.nonTCP += uint32(pkts)
	}
	sf.flows.Add(analysis.Hash64(srcIP, 0, srcPort, dstPort, proto))
	sf.srcIPs.Add(uint64(srcIP))
	sf.dstPorts.Add(uint64(dstPort))
}

// Slots returns the number of populated feature slots.
func (a *Aggregator) Slots() int { return len(a.slots) }

// Merge folds o's feature slots into a. Slots present in only one
// aggregator are adopted; colliding slots sum their counters and merge
// their bounded distinct sets, which is what one pass over both streams
// leaves wherever only one side saw a (prefix, slot), and up to the sets'
// saturation (BoundedSet.Merge) where both did. o must not be used
// afterwards. An adopted slot keeps the stamp it came with, so a copies it
// before its first write.
func (a *Aggregator) Merge(o *Aggregator) {
	for k, osf := range o.slots {
		if a.slots[k] == nil {
			a.slots[k] = osf
			continue
		}
		sf := a.own(k)
		sf.packets += osf.packets
		sf.nonTCP += osf.nonTCP
		sf.flows.Merge(&osf.flows)
		sf.srcIPs.Merge(&osf.srcIPs)
		sf.dstPorts.Merge(&osf.dstPorts)
	}
}

// Snapshot returns an independent copy of the aggregator; further Adds on
// either side do not affect the other (Operator contract in
// internal/analysis). Only the slot map is copied: the slots stay shared
// until one side writes them (analysis.Cow), and a five-minute slot the
// stream has moved past is never written again.
func (a *Aggregator) Snapshot() *Aggregator {
	a.last = nil
	return &Aggregator{slots: maps.Clone(a.slots), cow: a.cow.Fork()}
}

// CowCopies returns how many slots the aggregator has copied on first
// write after a Snapshot or Merge.
func (a *Aggregator) CowCopies() int64 { return a.cow.Copies() }

// features returns the five feature values of a populated slot.
func (sf *slotFeat) features() [NumFeatures]float64 {
	return [NumFeatures]float64{
		FeatPackets:  float64(sf.packets),
		FeatFlows:    float64(sf.flows.Count()),
		FeatSrcIPs:   float64(sf.srcIPs.Count()),
		FeatDstPorts: float64(sf.dstPorts.Count()),
		FeatNonTCP:   float64(sf.nonTCP),
	}
}

// slotRef is one populated slot of a prefix.
type slotRef struct {
	slot int64
	feat *slotFeat
}

// slotsByPrefix lists each prefix's populated slots in ascending order.
func (a *Aggregator) slotsByPrefix() map[bgp.Prefix][]slotRef {
	by := make(map[bgp.Prefix][]slotRef)
	for k, sf := range a.slots {
		p := k.prefix()
		by[p] = append(by[p], slotRef{k.slot(), sf})
	}
	for _, refs := range by {
		slices.SortFunc(refs, func(x, y slotRef) int { return cmp.Compare(x.slot, y.slot) })
	}
	return by
}

// window cuts the slots in [from, to] out of a prefix's ascending list.
func window(refs []slotRef, from, to int64) []slotRef {
	refs = refs[sort.Search(len(refs), func(i int) bool { return refs[i].slot >= from }):]
	return refs[:sort.Search(len(refs), func(i int) bool { return refs[i].slot > to })]
}

// Anomaly is one detected anomalous slot in a pre-RTBH window.
type Anomaly struct {
	// SlotsBefore is the distance to the event start in slots (1 = the
	// slot immediately preceding the first announcement).
	SlotsBefore int
	// Level is the number of features anomalous in the slot (1..5).
	Level int
}

// Verdict is the per-event outcome of the pre-RTBH analysis.
type Verdict struct {
	EventID int
	// HasPreData reports whether any sample appeared in the 72-hour
	// pre-window; PreDataSlots counts the slots with samples (Fig 11).
	HasPreData   bool
	PreDataSlots int
	// Anomalies lists anomalous slots (Fig 12).
	Anomalies []Anomaly
	// Within10Min / Within1Hour report an anomaly at most 10 minutes /
	// 1 hour before the event (Table 2, §5.3).
	Within10Min bool
	Within1Hour bool
	// AmpFactor is the last pre-event slot's value divided by the
	// pre-window mean, per feature (Fig 13); zero when undefined.
	AmpFactor [NumFeatures]float64
	// LastSlotIsMax reports whether the last slot holds the window
	// maximum of the packets feature (§5.3 reports 15% of cases).
	LastSlotIsMax bool
	// HasEventData reports samples during the merged event window;
	// EventPackets counts them (§5.4).
	HasEventData bool
	EventPackets int64
}

// Analyze runs the detector for every event at traffic scale 1.
// threshold is in standard deviations (the paper uses 2.5 and reports
// stability up to 10).
func (a *Aggregator) Analyze(evs []*events.Event, periodEnd time.Time, threshold float64) []Verdict {
	return a.AnalyzeScaled(evs, periodEnd, threshold, 1)
}

// AnalyzeScaled is Analyze with the dataset's sampled-magnitude scale
// (analysis.Metadata.MagnitudeScale), which sets the anomaly support
// floor (MinMagnitudeAt): the EWMA threshold is relative (standard
// deviations) and needs no scaling, the absolute magnitude floor does.
//
// The scan is sparse: most pre-windows hold no sample at all and the rest
// hold few (Fig 11), so the work follows the populated slots, not the 865
// slots of the window. A fresh detector fed k zeros has all-zero sums, so
// the leading empty stretch is skipped (stats.EWMA.ResetZeros); a slot
// without samples can never be anomalous, so the scan stops at the last
// populated slot; and a detector's verdict is only used at or above the
// support floor, so below it the value is pushed untested — and past the
// last slot where its feature reaches the floor, not pushed at all: the
// detector is reset for the next event before anything reads it again.
// The verdicts are bit for bit those of observing every slot (see
// DESIGN.md, "Compose cost").
func (a *Aggregator) AnalyzeScaled(evs []*events.Event, periodEnd time.Time, threshold, scale float64) []Verdict {
	minMag := MinMagnitudeAt(scale)
	verdicts := make([]Verdict, 0, len(evs))
	detectors := [NumFeatures]*stats.EWMA{}
	for f := range detectors {
		detectors[f] = stats.NewEWMA(Span, threshold)
	}
	preSlots := int64(events.PreWindow / analysis.SlotDuration)
	slots := a.slotsByPrefix()
	var rows [][NumFeatures]float64 // the features of pre's slots

	for _, e := range evs {
		v := Verdict{EventID: e.ID}
		startSlot := analysis.Slot(e.Start())
		endSlot := analysis.Slot(e.End(periodEnd))

		var sum [NumFeatures]float64
		var last [NumFeatures]float64
		var maxPackets float64
		// A burst keeps the detector firing for its whole duration, so
		// contiguous anomalous slots are reported as one anomaly: its
		// nearest slot and its maximum level. Per-slot 10-minute/1-hour
		// flags are unaffected.
		runLevel, runNearest := 0, 0
		flushRun := func() {
			if runLevel > 0 {
				v.Anomalies = append(v.Anomalies, Anomaly{SlotsBefore: runNearest, Level: runLevel})
				runLevel = 0
			}
		}
		// The scan includes the announcement's own slot (offset 0): the
		// attack traffic preceding a fast-reaction announcement often
		// lands in the same five-minute slot as the announcement itself.
		own := slots[e.Prefix]
		first := startSlot - preSlots
		pre := window(own, first, startSlot)
		rows = rows[:0]
		for _, r := range pre {
			rows = append(rows, r.feat.features())
		}
		// Detector f is read up to slot until[f]-1 of pre, the last one
		// where feature f reaches the floor (none: until[f] is 0).
		var until [NumFeatures]int
		for i := len(rows) - 1; i >= 0; i-- {
			for f, v := range rows[i] {
				if until[f] == 0 && v >= minMag {
					until[f] = i + 1
				}
			}
		}
		for i, r := range pre {
			s := r.slot
			if i == 0 {
				for f := range detectors {
					if until[f] > 0 {
						detectors[f].ResetZeros(int(s - first))
					}
				}
			} else if gap := s - pre[i-1].slot - 1; gap > 0 {
				// Empty slots inside the populated stretch.
				for f := range detectors {
					for k := gap; i < until[f] && k > 0; k-- {
						detectors[f].Push(0)
					}
				}
				flushRun()
			}
			feats := rows[i]
			slotsBefore := int(startSlot - s)
			level := 0
			for f := range feats {
				switch {
				case i >= until[f]:
				case feats[f] < minMag:
					detectors[f].Push(feats[f])
				case detectors[f].Observe(feats[f]):
					level++
				}
				if s < startSlot {
					sum[f] += feats[f]
				}
			}
			if s < startSlot {
				if feats[FeatPackets] > 0 {
					v.PreDataSlots++
				}
				if feats[FeatPackets] > maxPackets {
					maxPackets = feats[FeatPackets]
				}
			}
			if level > 0 {
				if level > runLevel {
					runLevel = level
				}
				runNearest = slotsBefore
				if slotsBefore*int(analysis.SlotDuration/time.Minute) <= 10 {
					v.Within10Min = true
				}
				if slotsBefore*int(analysis.SlotDuration/time.Minute) <= 60 {
					v.Within1Hour = true
				}
			} else {
				flushRun()
			}
			if s == startSlot-1 {
				last = feats
			}
		}
		flushRun()
		v.HasPreData = v.PreDataSlots > 0
		for f := range sum {
			mean := sum[f] / float64(preSlots)
			if mean > 0 && last[f] > 0 {
				v.AmpFactor[f] = last[f] / mean
			}
		}
		v.LastSlotIsMax = last[FeatPackets] > 0 && last[FeatPackets] >= maxPackets

		for _, r := range window(own, startSlot, endSlot) {
			if r.feat.packets > 0 {
				v.HasEventData = true
				v.EventPackets += int64(r.feat.packets)
			}
		}
		verdicts = append(verdicts, v)
	}
	return verdicts
}

// ClassCounts is the Table 2 summary.
type ClassCounts struct {
	// NoData: no samples in the pre-window.
	NoData int
	// DataNoAnomaly: samples but no anomaly within 10 minutes.
	DataNoAnomaly int
	// DataAnomaly10Min: anomaly at most 10 minutes before the event.
	DataAnomaly10Min int
}

// Total returns the event count.
func (c ClassCounts) Total() int { return c.NoData + c.DataNoAnomaly + c.DataAnomaly10Min }

// Classify tallies verdicts into the Table 2 classes.
func Classify(vs []Verdict) ClassCounts {
	var c ClassCounts
	for i := range vs {
		switch {
		case !vs[i].HasPreData:
			c.NoData++
		case vs[i].Within10Min:
			c.DataAnomaly10Min++
		default:
			c.DataNoAnomaly++
		}
	}
	return c
}
