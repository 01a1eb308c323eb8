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

	// retention is the sketch horizon. It comfortably exceeds the
	// longest flow batch the scenario driver injects (quiet-host baseline
	// batches span a full day), so an attack's samples are never evicted
	// by a timestamp from the far side of the same day.
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
	// the sketch horizon; the sketches bucket a fifth of it per slot.
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
		return c, fmt.Errorf("detect: Window must be between 1s and half the %v sketch horizon, got %v", retention, c.Window)
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

// victimState is the per-victim hysteresis.
type victimState struct {
	active bool
	det    int // index into detections; valid once any detection fired
	// hotEnd is the end of the latest window at or above half the
	// threshold (flow time, monotone). Cooldown counts from here.
	hotEnd time.Time
	// clearedEnd consumes windows: after a withdrawal only windows
	// ending strictly later can re-trigger, so one attack's retained
	// samples cannot re-announce in a loop.
	clearedEnd time.Time
}

// detectorMetrics is the optional obs instrumentation ("detect.*").
type detectorMetrics struct {
	records       *obs.Counter
	detections    *obs.Counter
	announcements *obs.Counter
	withdrawals   *obs.Counter
	drops         *obs.Counter
}

// gateInline is the victimGate's inline capacity: buckets tracked in
// fixed arrays before the gate grows a ring. Most destinations are
// scan/one-off targets touching a bucket or two, so the inline form
// keeps the gate map's footprint tiny.
const gateInline = 4

// victimGate is one victim's scan-gate tallies: packets per
// window-width bucket of slots. It starts as a fixed inline array of
// (bucket, tally) pairs — linear-scanned, never pruned; stale entries
// only overcount, which the gate (a sound upper bound) tolerates. Past
// gateInline distinct buckets it upgrades to a ring over the retention
// span. Two live buckets can never collide in the ring (they would be a
// full retention apart), so a mismatched occupant is always dead and
// its tally is simply discarded — the ring needs no sweep at all. Kept
// per victim because records arrive batch-grouped by destination: the
// hot structure stays cache-resident across a batch's run of records.
type victimGate struct {
	sids   [gateInline]int64 // inline bucket ids; minSlot when unused
	stally [gateInline]int64
	used   int32
	ids    []int64 // ring; nil while inline
	tally  []int64
}

func newVictimGate() *victimGate {
	g := &victimGate{}
	for i := range g.sids {
		g.sids[i] = minSlot
	}
	return g
}

// toRing upgrades the gate to ring form of n cells, keeping the newest
// occupant of any colliding cell (the older is necessarily dead).
func (g *victimGate) toRing(n int64) {
	g.ids = make([]int64, n)
	g.tally = make([]int64, n)
	for i := range g.ids {
		g.ids[i] = minSlot
	}
	for k := int32(0); k < g.used; k++ {
		cs := g.sids[k]
		i := ringIdx(cs, n)
		if g.ids[i] == minSlot || g.ids[i] < cs {
			g.ids[i] = cs
			g.tally[i] = g.stally[k]
		}
	}
}

// add folds pkts into bucket cs and returns its tally. n is the ring
// size used on upgrade.
func (g *victimGate) add(cs, pkts, n int64) int64 {
	if g.ids == nil {
		for k := int32(0); k < g.used; k++ {
			if g.sids[k] == cs {
				g.stally[k] += pkts
				return g.stally[k]
			}
		}
		if g.used < gateInline {
			g.sids[g.used] = cs
			g.stally[g.used] = pkts
			g.used++
			return pkts
		}
		g.toRing(n)
	}
	i := ringIdx(cs, n)
	if g.ids[i] != cs {
		g.ids[i] = cs
		g.tally[i] = 0
	}
	g.tally[i] += pkts
	return g.tally[i]
}

// read returns bucket cs's tally, zero when untracked.
func (g *victimGate) read(cs, n int64) int64 {
	if g.ids == nil {
		for k := int32(0); k < g.used; k++ {
			if g.sids[k] == cs {
				return g.stally[k]
			}
		}
		return 0
	}
	i := ringIdx(cs, n)
	if g.ids[i] != cs {
		return 0
	}
	return g.tally[i]
}

// ringIdx maps a (possibly negative) bucket index onto the ring.
func ringIdx(cs, n int64) int64 {
	i := cs % n
	if i < 0 {
		i += n
	}
	return i
}

// Detector is the streaming closed-loop engine. ObserveFlowBatch is safe
// to call from the collector goroutine concurrently with Tick and Status
// from the run loop; all state is guarded by one mutex, and the hot
// path does a map update plus (rarely) a bounded window scan.
type Detector struct {
	mu      sync.Mutex
	cfg     Config
	slot    time.Duration
	wslots  int64
	rate    *Rate
	vectors *Vectors
	state   map[uint32]*victimState
	dets    []Detection
	pending []Action
	m       detectorMetrics

	// detectPkts and hotPkts are the sampled-packet sums equivalent to
	// Threshold and Threshold/2 over one window.
	detectPkts float64
	hotPkts    int64

	// gate is the scan gate: per-victim packet tallies over wslots-wide
	// buckets. Every window an observation in slot s can change lies
	// inside the three buckets around s, so when their sum stays under
	// hotPkts no window crossed anything and the scan is skipped — the
	// quiet majority of records never pays more than a ring update.
	// Tallies may overcount evicted fine slots (the gate is an upper
	// bound), which keeps maintenance trivial. A victim's gate goes when
	// the rate sketch sweeps the victim: its buckets then lie more than a
	// horizon behind any live record's, so reading them already gave 0.
	gate map[uint32]*victimGate
}

// New builds a detector. cfg zero values take the documented defaults;
// nonsense values are an error.
func New(cfg Config) (*Detector, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	slot := max(cfg.Window/5, time.Second) // the sketch bucket width
	d := &Detector{
		cfg:     cfg,
		slot:    slot,
		wslots:  int64((cfg.Window + slot - 1) / slot),
		rate:    NewRate(slot, retention),
		vectors: NewVectors(slot, retention),
		state:   make(map[uint32]*victimState),
		gate:    make(map[uint32]*victimGate),
		m: detectorMetrics{
			records:       &obs.Counter{},
			detections:    &obs.Counter{},
			announcements: &obs.Counter{},
			withdrawals:   &obs.Counter{},
			drops:         &obs.Counter{},
		},
	}
	d.rate.evicted = func(victim uint32) { delete(d.gate, victim) }
	windowSec := (time.Duration(d.wslots) * slot).Seconds()
	d.detectPkts = cfg.Threshold * windowSec / float64(cfg.SamplingRate)
	d.hotPkts = int64(math.Ceil(d.detectPkts / 2))
	if d.hotPkts < 1 {
		d.hotPkts = 1
	}
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
		return int64(d.rate.Victims())
	})
	reg.GaugeFunc("detect.pending_actions", func() int64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return int64(len(d.pending))
	})
}

func (d *Detector) activeLocked() int {
	n := 0
	for _, st := range d.state {
		if st.active {
			n++
		}
	}
	return n
}

// ObserveFlowBatch folds one batch of collected records into the
// sketches, in order and under a single lock acquisition, and runs the
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
	victim := rec.DstIP
	pkts := int64(rec.Packets)
	d.rate.Observe(victim, rec.Start, pkts)

	if d.cfg.BlackholeMAC != 0 && rec.DstMAC == d.cfg.BlackholeMAC {
		d.m.drops.Inc()
		d.noteDropLocked(victim, rec.Start)
	}

	// The scan gate. Every window this record can change ends in
	// [s, s+wslots), and those windows' slots all lie inside the three
	// coarse buckets around s; their combined tally bounds every such
	// window sum from above. Under hotPkts nothing crossed either
	// threshold, so the quiet majority of records skips both the window
	// scan and the vector sketch. Vectors therefore only tallies records
	// from hot regions — the handful of quiet packets preceding the gate
	// opening are absent from a detection's vector shares, which is fine
	// for naming the dominant amplification services.
	s := d.rate.slotOf(rec.Start)
	if s < d.rate.horizon() {
		// Dead on arrival: the rate sketch dropped it, so no window sum
		// changed. Keeping it out of the gate also preserves the ring's
		// no-live-collision invariant.
		return
	}
	cs := floorDiv(s, d.wslots)
	g := d.gate[victim]
	if g == nil {
		g = newVictimGate()
		d.gate[victim] = g
	}
	n := d.coarseRetain()
	if g.add(cs, pkts, n)+g.read(cs-1, n)+g.read(cs+1, n) < d.hotPkts {
		return
	}
	if st := d.state[victim]; st != nil && st.active &&
		!st.hotEnd.IsZero() && s+d.wslots <= d.rate.slotOf(st.hotEnd) {
		// Mitigation is already active and every window this record
		// touches ends at or before the hysteresis frontier: the scan
		// could neither advance the cooldown (hotEnd is a monotone max)
		// nor fire again (active blocks detections), so the record is
		// fully absorbed by the rate tallies. The bulk of an attack's
		// records arrive here once its blackhole is up.
		return
	}
	d.vectors.Observe(victim, rec.Start, rec.Proto, rec.SrcPort, pkts)
	d.scanVictimLocked(victim, s)
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

// coarseRetain is the gate ring size: the retention horizon in
// window-width buckets, plus slack so two live buckets can never share
// a ring cell.
func (d *Detector) coarseRetain() int64 {
	return d.rate.retain/d.wslots + 2
}

// scanVictimLocked examines the windows the observation in slot s can
// have changed (only those — windows not containing s had their chance
// when their own records arrived), updating hysteresis and firing a
// detection if a fresh window crosses the threshold.
func (d *Detector) scanVictimLocked(victim uint32, s int64) {
	st := d.state[victim]
	var (
		bestEnd  int64
		bestPkts int64
		hotEnd   int64
		hasBest  bool
		hasHot   bool
	)
	clearedEnd := int64(math.MinInt64)
	if st != nil && !st.clearedEnd.IsZero() {
		clearedEnd = d.rate.slotOf(st.clearedEnd) // SlotEnd(s) maps back to slot s+1's start; see below
	}
	d.rate.WindowsAt(victim, s, d.wslots, func(endSlot, pkts int64) {
		if pkts >= d.hotPkts && (!hasHot || endSlot > hotEnd) {
			hotEnd, hasHot = endSlot, true
		}
		if float64(pkts) >= d.detectPkts && endSlot >= clearedEnd &&
			(!hasBest || pkts > bestPkts) {
			bestEnd, bestPkts, hasBest = endSlot, pkts, true
		}
	})
	if hasHot {
		if st == nil {
			st = &victimState{det: -1}
			d.state[victim] = st
		}
		if t := d.rate.SlotEnd(hotEnd); t.After(st.hotEnd) {
			st.hotEnd = t
		}
	}
	if st == nil || st.active || !hasBest {
		return
	}
	windowSec := (time.Duration(d.wslots) * d.slot).Seconds()
	det := Detection{
		ID:         len(d.dets),
		Victim:     victim,
		DetectedAt: d.rate.SlotEnd(bestEnd),
		RatePPS:    float64(bestPkts) * float64(d.cfg.SamplingRate) / windowSec,
		Vectors:    d.vectors.Top(victim, bestEnd, d.wslots, 3),
	}
	st.active = true
	st.det = det.ID
	d.dets = append(d.dets, det)
	d.pending = append(d.pending, Action{
		Announce: true, Victim: victim, Time: det.DetectedAt, DetectionID: det.ID,
	})
	d.m.detections.Inc()
}

// noteDropLocked records the first fabric drop at or after the victim's
// current announcement. Flow timestamps arrive out of order, so an
// earlier qualifying drop may show up later and replaces the stamp.
func (d *Detector) noteDropLocked(victim uint32, t time.Time) {
	st := d.state[victim]
	if st == nil || st.det < 0 {
		return
	}
	det := &d.dets[st.det]
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
	var expired []uint32
	for victim, st := range d.state {
		if st.active && now.Sub(st.hotEnd) >= d.cfg.Cooldown {
			expired = append(expired, victim)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	for _, victim := range expired {
		st := d.state[victim]
		st.active = false
		st.clearedEnd = st.hotEnd
		d.dets[st.det].WithdrawnAt = now
		acts = append(acts, Action{
			Announce: false, Victim: victim, Time: now, DetectionID: st.det,
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
		Tracked:      d.rate.Victims(),
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
