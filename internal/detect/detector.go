// Package detect closes the measurement loop: a streaming DRDoS
// detector over the live flow path that originates RTBH announcements
// through the route server when a victim's inbound rate crosses an
// attack threshold, and withdraws them when the attack subsides
// (IXmon-style, Subramani et al. — see DESIGN.md, "Closed-loop
// detection").
//
// Everything the detector keeps about one destination lives in one
// victim record under one slot geometry: packets per slot, the scan
// gate's tallies, the per-slot (proto, source port) vector cells that
// let a detection name its amplification services, and, once the victim
// first runs hot, its hysteresis.
package detect

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/ipfix"
	"repro/internal/obs"
)

// PeerASN is the detector's route-server session: a first-class
// mitigation peer alongside the member ASes (which start at 1001), in
// the private 16-bit range and distinct from the route server's own
// 64500.
const PeerASN uint32 = 64999

// Defaults for Config zero values. The threshold is calibrated to
// TrafficScale 1: it sits between the scaled-down attack floor (~200 pps
// of original traffic) and the busiest host baseline (single-digit pps —
// see DESIGN.md). Both bounds are traffic magnitudes and grow linearly
// with the dataset's TrafficScale, so the derived threshold does too
// (ThresholdAt): at paper magnitude (scale ~50, attack floor ~10k pps)
// the bar rises to ~6250 pps, preserving the detector's operating point
// between baseline and attack at every scale.
const (
	DefaultThreshold = 125.0
	DefaultWindow    = 5 * time.Minute
	DefaultCooldown  = 10 * time.Minute

	// retention is the horizon of live slots. It comfortably exceeds
	// the longest flow batch the scenario driver injects (quiet-host
	// baseline batches span a full day), so an attack's samples are never
	// evicted by a timestamp from the far side of the same day. With
	// slots of at least a second it is at most 93,600 slots.
	retention = 26 * time.Hour
)

// ThresholdAt derives the detection threshold for a dataset's traffic
// scale: DefaultThreshold at scale 1, scaling linearly with the traffic
// magnitudes it separates (host baselines below, attack rates above).
func ThresholdAt(scale float64) float64 {
	if scale <= 0 {
		scale = 1
	}
	return DefaultThreshold * scale
}

// Config parameterizes a Detector.
type Config struct {
	// Threshold is the estimated inbound packet rate (packets/s of
	// original traffic, i.e. sampled count scaled by SamplingRate) over
	// one window at which a victim is declared under attack. Zero
	// selects DefaultThreshold scaled by TrafficScale (ThresholdAt).
	Threshold float64
	// TrafficScale is the dataset's traffic-magnitude multiplier (see
	// scenario.Config.TrafficScale); zero means 1. It only affects the
	// derived default threshold — an explicit Threshold wins.
	TrafficScale float64
	// Window is the sliding detection window, between a second and half
	// the retention horizon; the detector buckets a fifth of it (at
	// least a second) per slot.
	// Zero selects DefaultWindow.
	Window time.Duration
	// Cooldown is how long a victim must stay below half the threshold
	// before the blackhole is withdrawn, measured in driver time
	// against the hottest window seen. Zero selects DefaultCooldown.
	Cooldown time.Duration
	// SamplingRate is the flow sampling denominator (1:N). Required.
	SamplingRate int64
	// BlackholeMAC marks records the fabric dropped; the detector uses
	// it to time the first post-announcement drop. Required for
	// mitigation-latency measurement, zero disables it.
	BlackholeMAC ipfix.MAC
}

// withDefaults returns cfg with zero values filled in, or an error for
// nonsensical values.
func (c Config) withDefaults() (Config, error) {
	if c.Threshold == 0 {
		c.Threshold = ThresholdAt(c.TrafficScale)
	}
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.Cooldown == 0 {
		c.Cooldown = DefaultCooldown
	}
	switch {
	case c.Threshold <= 0 || math.IsInf(c.Threshold, 0) || math.IsNaN(c.Threshold):
		return c, fmt.Errorf("detect: Threshold must be a positive finite rate, got %v", c.Threshold)
	case c.Cooldown < 0:
		return c, fmt.Errorf("detect: Cooldown must be >= 0, got %v", c.Cooldown)
	case c.SamplingRate <= 0:
		return c, fmt.Errorf("detect: SamplingRate must be positive, got %d", c.SamplingRate)
	case c.Window < time.Second || c.Window > retention/2:
		return c, fmt.Errorf("detect: Window must be between 1s and half the %v retention horizon, got %v", retention, c.Window)
	}
	return c, nil
}

// Detection is one detected attack and its mitigation lifecycle. Times
// tell the latency story end to end: the victim's traffic crossed the
// threshold in the window ending DetectedAt (flow time); the RTBH
// announcement entered the route server at AnnouncedAt (driver time);
// the first fabric drop at or after the announcement carried FirstDropAt
// (flow time); the blackhole was withdrawn at WithdrawnAt.
type Detection struct {
	ID          int
	Victim      uint32
	DetectedAt  time.Time
	RatePPS     float64
	Vectors     []Vector
	AnnouncedAt time.Time
	FirstDropAt time.Time
	WithdrawnAt time.Time
}

// Active reports whether the detection's blackhole is still announced.
func (d *Detection) Active() bool { return d.WithdrawnAt.IsZero() }

// Action is one control-plane instruction the detector wants executed:
// announce (or withdraw) the RTBH route for the victim. The run loop
// drains actions with Tick and originates the corresponding BGP
// updates through the route server.
type Action struct {
	Announce    bool
	Victim      uint32
	Time        time.Time
	DetectionID int
}

// detectorMetrics is the optional obs instrumentation ("detect.*").
type detectorMetrics struct {
	records       *obs.Counter
	detections    *obs.Counter
	announcements *obs.Counter
	withdrawals   *obs.Counter
	drops         *obs.Counter
}

// Detector is the streaming closed-loop engine. ObserveFlowBatch is safe
// to call from the collector goroutine concurrently with Tick and Status
// from the run loop; all state is guarded by one mutex, and the hot
// path does one map probe, a few tally updates and (rarely) a bounded
// window scan.
type Detector struct {
	mu      sync.Mutex
	cfg     Config
	victims map[uint32]*victim
	dets    []Detection
	pending []Action
	m       detectorMetrics

	// The slot geometry every victim shares. Flow timestamps are
	// bucketed into slot-wide slots, a window spans wslots of them, and
	// only the retain slots up to the highest slot ever observed
	// (maxSlot) are live. Eviction and every query are pure functions of
	// (geometry, observation multiset), so observation order never
	// changes what a query answers. swept is maxSlot at the last sweep.
	//
	// The flow timeline at an IXP is far from monotone: day-long
	// baseline batches put records up to ~24h ahead of the injection
	// clock, so a window anchored at the newest timestamp would race
	// past mid-day attacks. The horizon therefore retains comfortably
	// more than a day (retention) and a record re-checks every window it
	// can have changed, not just the newest one.
	slot    time.Duration
	wslots  int64
	retain  int64
	maxSlot int64
	swept   int64

	// detectPkts and hotPkts are the sampled-packet sums equivalent to
	// Threshold and Threshold/2 over one window.
	detectPkts float64
	hotPkts    int64
}

// New builds a detector. cfg zero values take the documented defaults;
// nonsense values are an error.
func New(cfg Config) (*Detector, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	slot := max(cfg.Window/5, time.Second)
	d := &Detector{
		cfg:     cfg,
		victims: make(map[uint32]*victim),
		slot:    slot,
		wslots:  int64((cfg.Window + slot - 1) / slot),
		retain:  int64((retention + slot - 1) / slot),
		maxSlot: minSlot,
		swept:   minSlot,
		m: detectorMetrics{
			records:       &obs.Counter{},
			detections:    &obs.Counter{},
			announcements: &obs.Counter{},
			withdrawals:   &obs.Counter{},
			drops:         &obs.Counter{},
		},
	}
	windowSec := (time.Duration(d.wslots) * slot).Seconds()
	d.detectPkts = cfg.Threshold * windowSec / float64(cfg.SamplingRate)
	d.hotPkts = max(int64(math.Ceil(d.detectPkts/2)), 1)
	return d, nil
}

// RegisterMetrics registers the detector's counters and gauges
// ("detect.*") on reg.
func (d *Detector) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("detect.records", d.m.records)
	reg.RegisterCounter("detect.detections", d.m.detections)
	reg.RegisterCounter("detect.announcements", d.m.announcements)
	reg.RegisterCounter("detect.withdrawals", d.m.withdrawals)
	reg.RegisterCounter("detect.blackholed_records", d.m.drops)
	reg.GaugeFunc("detect.active", func() int64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return int64(d.activeLocked())
	})
	reg.GaugeFunc("detect.tracked_victims", func() int64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return int64(d.trackedLocked())
	})
	reg.GaugeFunc("detect.pending_actions", func() int64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return int64(len(d.pending))
	})
}

// activeLocked counts the detections whose blackhole is still up.
func (d *Detector) activeLocked() int {
	n := 0
	for i := range d.dets {
		if d.dets[i].Active() {
			n++
		}
	}
	return n
}

// trackedLocked counts the victims holding slots; a record that a sweep
// released is kept only for its hysteresis.
func (d *Detector) trackedLocked() int {
	n := 0
	for _, v := range d.victims {
		if v.maxSlot != minSlot {
			n++
		}
	}
	return n
}

// mitigating reports whether h's latest detection is still active.
func (d *Detector) mitigating(h *hysteresis) bool {
	return h != nil && h.det >= 0 && d.dets[h.det].Active()
}

// ObserveFlowBatch folds one batch of collected records into the victim
// records, in order and under a single lock acquisition, and runs the
// detection check for each record's destination. Call it on every batch
// the collector delivers, in arrival order. It borrows b per the
// ipfix.RecordBatch contract.
func (d *Detector) ObserveFlowBatch(b *ipfix.RecordBatch) {
	if b.Len() == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range b.Recs {
		d.observeFlowLocked(&b.Recs[i])
	}
}

func (d *Detector) observeFlowLocked(rec *ipfix.FlowRecord) {
	d.m.records.Inc()
	s, pkts := d.slotOf(rec.Start), int64(rec.Packets)
	if s > d.maxSlot {
		d.maxSlot = s
		// Amortized eviction: a full sweep only when the horizon has
		// moved a quarter of its span since the last one. Queries
		// filter dead slots themselves, so the sweep is purely a memory
		// bound.
		if d.swept == minSlot || d.maxSlot-d.swept >= d.retain/4+1 {
			d.sweep()
		}
	}
	v := d.victims[rec.DstIP]
	if d.cfg.BlackholeMAC != 0 && rec.DstMAC == d.cfg.BlackholeMAC {
		d.m.drops.Inc()
		if v != nil {
			d.noteDropLocked(v.hyst, rec.Start)
		}
	}
	if s < d.horizon() {
		// Dead on arrival: no window sum changes. Keeping it out of the
		// tallies also preserves the rings' no-live-collision invariant.
		return
	}
	if v == nil {
		v = &victim{maxSlot: minSlot}
		d.victims[rec.DstIP] = v
	}
	v.maxSlot = max(v.maxSlot, s)
	v.rate.add(s, pkts, rateList, d.retain)

	// The scan gate. Every window this record can change ends in
	// [s, s+wslots), and those windows' slots all lie inside the three
	// gate buckets around s; their combined tally bounds every such
	// window sum from above. Under hotPkts nothing crossed either
	// threshold, so the quiet majority of records skips both the window
	// scan and the vector cells. Vector cells therefore only tally
	// records from hot regions: the handful of quiet packets preceding
	// the gate opening are absent from a detection's vector shares,
	// which is fine for naming the dominant amplification services.
	cs, n := floorDiv(s, d.wslots), d.retain/d.wslots+2
	if v.gate.add(cs, pkts, gateList, n)+v.gate.get(cs-1, n)+v.gate.get(cs+1, n) < d.hotPkts {
		return
	}
	if h := v.hyst; d.mitigating(h) && !h.hotEnd.IsZero() && s+d.wslots <= d.slotOf(h.hotEnd) {
		// Mitigation is already active and every window this record
		// touches ends at or before the hysteresis frontier: the scan
		// could neither advance the cooldown (hotEnd is a monotone max)
		// nor fire again (an active detection blocks new ones), so the
		// record is fully absorbed by the packet tally. The bulk of an
		// attack's records arrive here once its blackhole is up.
		return
	}
	if v.vecs == nil {
		v.vecs = make(map[int64][]cell)
	}
	cells := v.vecs[s]
	// Store back only when the list grew; in-place increments (the
	// common case) need no map write.
	if grown := addCell(cells, int64(makeVectorKey(rec.Proto, rec.SrcPort)), pkts); len(grown) != len(cells) {
		v.vecs[s] = grown
	}
	d.scanVictimLocked(rec.DstIP, v, s)
}

// floorDiv is integer division rounding toward negative infinity, so
// slot→bucket mapping stays consistent for pre-1970 timestamps.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// scanVictimLocked examines the windows the observation in slot s can
// have changed (only those — windows not containing s had their chance
// when their own records arrived), updating hysteresis and firing a
// detection if a fresh window crosses the threshold.
func (d *Detector) scanVictimLocked(id uint32, v *victim, s int64) {
	var (
		bestEnd  int64
		bestPkts int64
		hotEnd   int64
		hasBest  bool
		hasHot   bool
	)
	clearedEnd := int64(math.MinInt64)
	if h := v.hyst; h != nil && !h.clearedEnd.IsZero() {
		clearedEnd = d.slotOf(h.clearedEnd) // slotEnd(s) maps back to slot s+1's start
	}
	d.windowsAt(v, s, func(endSlot, pkts int64) {
		if pkts >= d.hotPkts && (!hasHot || endSlot > hotEnd) {
			hotEnd, hasHot = endSlot, true
		}
		if float64(pkts) >= d.detectPkts && endSlot >= clearedEnd &&
			(!hasBest || pkts > bestPkts) {
			bestEnd, bestPkts, hasBest = endSlot, pkts, true
		}
	})
	if hasHot {
		if v.hyst == nil {
			v.hyst = &hysteresis{det: -1}
		}
		if t := d.slotEnd(hotEnd); t.After(v.hyst.hotEnd) {
			v.hyst.hotEnd = t
		}
	}
	if v.hyst == nil || d.mitigating(v.hyst) || !hasBest {
		return
	}
	windowSec := (time.Duration(d.wslots) * d.slot).Seconds()
	det := Detection{
		ID:         len(d.dets),
		Victim:     id,
		DetectedAt: d.slotEnd(bestEnd),
		RatePPS:    float64(bestPkts) * float64(d.cfg.SamplingRate) / windowSec,
		Vectors:    d.topVectors(v, bestEnd, 3),
	}
	v.hyst.det = det.ID
	d.dets = append(d.dets, det)
	d.pending = append(d.pending, Action{
		Announce: true, Victim: id, Time: det.DetectedAt, DetectionID: det.ID,
	})
	d.m.detections.Inc()
}

// noteDropLocked records the first fabric drop at or after the victim's
// current announcement. Flow timestamps arrive out of order, so an
// earlier qualifying drop may show up later and replaces the stamp.
func (d *Detector) noteDropLocked(h *hysteresis, t time.Time) {
	if h == nil || h.det < 0 {
		return
	}
	det := &d.dets[h.det]
	if det.AnnouncedAt.IsZero() || t.Before(det.AnnouncedAt) {
		return
	}
	if det.FirstDropAt.IsZero() || t.Before(det.FirstDropAt) {
		det.FirstDropAt = t
	}
}

// Tick advances the hysteresis to driver time `now` and drains the
// pending control-plane actions: announcements queued by detections
// since the last Tick (stamped with `now` as their announcement time),
// then withdrawals for victims whose cooldown expired. Call it from the
// run loop right before dispatching control traffic; the returned
// actions are in deterministic order (queue order, then withdrawals by
// victim address).
func (d *Detector) Tick(now time.Time) []Action {
	d.mu.Lock()
	defer d.mu.Unlock()
	acts := d.pending
	d.pending = nil
	for i := range acts {
		if acts[i].Announce {
			acts[i].Time = now
			d.dets[acts[i].DetectionID].AnnouncedAt = now
			d.m.announcements.Inc()
		}
	}
	var expired []*Detection
	for i := range d.dets {
		det := &d.dets[i]
		if det.Active() && now.Sub(d.victims[det.Victim].hyst.hotEnd) >= d.cfg.Cooldown {
			expired = append(expired, det)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].Victim < expired[j].Victim })
	for _, det := range expired {
		h := d.victims[det.Victim].hyst
		h.clearedEnd = h.hotEnd
		det.WithdrawnAt = now
		acts = append(acts, Action{
			Announce: false, Victim: det.Victim, Time: now, DetectionID: det.ID,
		})
		d.m.withdrawals.Inc()
	}
	return acts
}

// Status is a consistent copy of the detector's externally visible
// state, for the /api/detections endpoint and post-run summaries.
type Status struct {
	ThresholdPPS float64
	Window       time.Duration
	Cooldown     time.Duration
	Slot         time.Duration
	Records      int64
	Tracked      int
	Active       int
	Pending      int
	Detections   []Detection
}

// Status returns a snapshot of the detection log and counters. The
// returned slice is a copy the caller may retain.
func (d *Detector) Status() *Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := &Status{
		ThresholdPPS: d.cfg.Threshold,
		Window:       d.cfg.Window,
		Cooldown:     d.cfg.Cooldown,
		Slot:         d.slot,
		Tracked:      d.trackedLocked(),
		Active:       d.activeLocked(),
		Pending:      len(d.pending),
		Detections:   make([]Detection, len(d.dets)),
	}
	st.Records = d.m.records.Value()
	copy(st.Detections, d.dets)
	for i := range st.Detections {
		st.Detections[i].Vectors = append([]Vector(nil), st.Detections[i].Vectors...)
	}
	return st
}
