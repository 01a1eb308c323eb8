package detect

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ipfix"
)

const testBlackholeMAC ipfix.MAC = 0x06_00_00_00_06_66

func testConfig() Config {
	return Config{
		Threshold:    125,
		Window:       5 * time.Minute,
		Cooldown:     10 * time.Minute,
		SamplingRate: 10000,
		BlackholeMAC: testBlackholeMAC,
	}
}

func flowRec(victim uint32, t time.Time, proto uint8, srcPort uint16) *ipfix.FlowRecord {
	return &ipfix.FlowRecord{
		Start: t, SrcIP: 0x0a000001, DstIP: victim,
		SrcPort: srcPort, DstPort: 1234, Proto: proto,
		Packets: 1, Bytes: 1000,
	}
}

func observe(d *Detector, rec *ipfix.FlowRecord) {
	d.ObserveFlowBatch(&ipfix.RecordBatch{Recs: []ipfix.FlowRecord{*rec}})
}

// TestDetectorLifecycle drives one synthetic attack through the whole
// loop: quiet baseline (no detection), a burst over the threshold
// (detection + announce action), a blackholed record (first-drop
// stamp), cooldown expiry (withdraw action).
func TestDetectorLifecycle(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)

	// Baseline: one sampled packet per half hour (≈5 pps estimated at
	// 1:10000) is far under every bar.
	for i := 0; i < 10; i++ {
		observe(d, flowRec(0xC0A80001, base.Add(time.Duration(i)*30*time.Minute), 6, 443))
	}
	if acts := d.Tick(base.Add(10 * time.Minute)); len(acts) != 0 {
		t.Fatalf("baseline produced actions: %+v", acts)
	}

	// Burst: 8 sampled packets inside one window is ~267 pps estimated
	// at 1:10000, over the 125 pps threshold.
	victim := uint32(0xC0A80002)
	for i := 0; i < 8; i++ {
		observe(d, flowRec(victim, base.Add(10*time.Minute+time.Duration(i)*30*time.Second), 17, 123))
	}
	acts := d.Tick(base.Add(15 * time.Minute))
	if len(acts) != 1 || !acts[0].Announce || acts[0].Victim != victim {
		t.Fatalf("want one announce for %x, got %+v", victim, acts)
	}
	st := d.Status()
	if len(st.Detections) != 1 || st.Active != 1 {
		t.Fatalf("status after detection: %+v", st)
	}
	det := st.Detections[0]
	if det.RatePPS < 125 {
		t.Fatalf("detection rate %v under threshold", det.RatePPS)
	}
	if len(det.Vectors) == 0 || det.Vectors[0].SrcPort != 123 || det.Vectors[0].Proto != 17 {
		t.Fatalf("detection vectors %+v do not name udp/123", det.Vectors)
	}
	if !det.AnnouncedAt.Equal(base.Add(15 * time.Minute)) {
		t.Fatalf("announced at %v, want the Tick instant", det.AnnouncedAt)
	}

	// A blackholed record before the announcement must not stamp the
	// drop; one after it must.
	early := flowRec(victim, det.AnnouncedAt.Add(-time.Minute), 17, 123)
	early.DstMAC = testBlackholeMAC
	observe(d, early)
	if got := d.Status().Detections[0]; !got.FirstDropAt.IsZero() {
		t.Fatalf("pre-announcement drop stamped FirstDropAt=%v", got.FirstDropAt)
	}
	dropT := det.AnnouncedAt.Add(30 * time.Second)
	drop := flowRec(victim, dropT, 17, 123)
	drop.DstMAC = testBlackholeMAC
	observe(d, drop)
	if got := d.Status().Detections[0]; !got.FirstDropAt.Equal(dropT) {
		t.Fatalf("FirstDropAt=%v, want %v", got.FirstDropAt, dropT)
	}

	// No withdraw while the cooldown has not expired relative to the
	// hottest window.
	if acts := d.Tick(base.Add(20 * time.Minute)); len(acts) != 0 {
		t.Fatalf("premature actions: %+v", acts)
	}
	// Far past the cooldown the blackhole comes down.
	acts = d.Tick(base.Add(40 * time.Minute))
	if len(acts) != 1 || acts[0].Announce || acts[0].Victim != victim {
		t.Fatalf("want one withdraw for %x, got %+v", victim, acts)
	}
	st = d.Status()
	if st.Active != 0 || st.Detections[0].Active() {
		t.Fatalf("status after withdraw: %+v", st)
	}

	// The same retained samples must not re-trigger...
	observe(d, flowRec(victim, base.Add(14*time.Minute), 17, 123))
	if acts := d.Tick(base.Add(41 * time.Minute)); len(acts) != 0 {
		t.Fatalf("stale window re-triggered: %+v", acts)
	}
	// ...but a genuinely new burst must.
	for i := 0; i < 8; i++ {
		observe(d, flowRec(victim, base.Add(60*time.Minute+time.Duration(i)*30*time.Second), 17, 123))
	}
	acts = d.Tick(base.Add(65 * time.Minute))
	if len(acts) != 1 || !acts[0].Announce || acts[0].DetectionID != 1 {
		t.Fatalf("want a second announce, got %+v", acts)
	}
}

// TestDetectorEvaluate scores a synthetic detection log against ground
// truth.
func TestDetectorEvaluate(t *testing.T) {
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	truth := []TruthAttack{
		{EventID: 1, Victim: 10, Start: base, End: base.Add(30 * time.Minute), PPS: 1000},
		{EventID: 2, Victim: 20, Start: base.Add(time.Hour), End: base.Add(90 * time.Minute), PPS: 500},
	}
	dets := []Detection{
		{ID: 0, Victim: 10, DetectedAt: base.Add(4 * time.Minute),
			AnnouncedAt: base.Add(5 * time.Minute), FirstDropAt: base.Add(6 * time.Minute)},
		{ID: 1, Victim: 99, DetectedAt: base.Add(10 * time.Minute)}, // false positive
	}
	ev := Evaluate(dets, truth, 5*time.Minute)
	if ev.TruePositives != 1 || ev.FalsePositives != 1 || ev.DetectedAtk != 1 {
		t.Fatalf("eval %+v", ev)
	}
	if ev.Precision != 0.5 || ev.Recall != 0.5 {
		t.Fatalf("precision %v recall %v", ev.Precision, ev.Recall)
	}
	a := ev.PerAttack[0]
	if !a.Detected || a.DetectLatency != 4*time.Minute || a.AnnounceLatency != 5*time.Minute ||
		!a.HasDrop || a.DropLatency != 6*time.Minute {
		t.Fatalf("attack outcome %+v", a)
	}
	if ev.PerAttack[1].Detected {
		t.Fatalf("attack 2 wrongly detected: %+v", ev.PerAttack[1])
	}
	out := ev.Render()
	if !strings.Contains(out, "precision 0.500") || !strings.Contains(out, "MISSED") {
		t.Fatalf("render:\n%s", out)
	}
}

// TestConfigValidation rejects nonsense configurations.
func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Threshold: -1, SamplingRate: 1},
		{Threshold: math.NaN(), SamplingRate: 1},
		{Threshold: math.Inf(1), SamplingRate: 1},
		{Window: -time.Minute, SamplingRate: 1},
		{Cooldown: -time.Second, SamplingRate: 1},
		{SamplingRate: 0},
		{SamplingRate: 1, Window: time.Millisecond},
		{SamplingRate: 1, Window: 14 * time.Hour},
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: config %+v accepted", i, c)
		}
	}
	d, err := New(Config{SamplingRate: 10000})
	if err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	// Zero keeps the default window and cooldown; it does not withdraw
	// on the first quiet tick.
	if st := d.Status(); st.Window != DefaultWindow || st.Cooldown != DefaultCooldown {
		t.Errorf("zero window and cooldown = %v and %v, want %v and %v",
			st.Window, st.Cooldown, DefaultWindow, DefaultCooldown)
	}
}

// TestSweepKeepsDetections streams one-off destinations across nine
// horizons: the sweep releases and drops their records, so the tracked
// victims stay bounded, and the detections equal those of a detector
// that never sweeps.
func TestSweepKeepsDetections(t *testing.T) {
	d, _ := New(testConfig())
	keep, _ := New(testConfig())
	keep.swept = math.MaxInt64 // maxSlot never gets a quarter horizon past it
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	for h := 0; h < 240; h++ {
		at, b := base.Add(time.Duration(h)*time.Hour), &ipfix.RecordBatch{}
		for i := 0; i < 20; i++ {
			b.Recs = append(b.Recs, *flowRec(uint32(h*100+i), at.Add(time.Duration(i)*time.Second), 6, 443))
		}
		for i := 0; h%7 == 0 && i < 8; i++ { // an attack on a fresh victim
			b.Recs = append(b.Recs, *flowRec(uint32(1<<24+h), at.Add(time.Duration(i)*30*time.Second), 17, 123))
		}
		for _, det := range []*Detector{d, keep} {
			det.ObserveFlowBatch(b)
			det.Tick(at.Add(time.Hour))
		}
		// A destination is released two horizons and at most a quarter
		// horizon after its hour: 59 hours of 21 destinations.
		if n := d.Status().Tracked; n > 59*21 {
			t.Fatalf("hour %d: %d tracked victims", h, n)
		}
	}
	got, want := d.Status(), keep.Status()
	if want.Tracked != 240*20+35 || len(want.Detections) != 35 ||
		!reflect.DeepEqual(got.Detections, want.Detections) {
		t.Fatalf("%d victims tracked against %d never swept; detections %v, want %v",
			got.Tracked, want.Tracked, got.Detections, want.Detections)
	}
}

// TestDetectionVectorsWithinWindow pins the shared horizon: a
// detection's vector shares count only the slots its window sum counts,
// so they never name packets the window left out. Slot 0 dies when
// another destination's record moves the horizon to slot 1.
func TestDetectionVectorsWithinWindow(t *testing.T) {
	d, _ := New(testConfig())
	slot := func(s int) time.Time { return time.Unix(0, 0).Add(time.Duration(s)*time.Minute + time.Second) }
	victim := uint32(0xC0A80002)
	for i := 0; i < 2; i++ {
		observe(d, flowRec(victim, slot(0), 17, 123))
	}
	observe(d, flowRec(victim+1, slot(1560), 6, 443))
	for i := 0; i < 4; i++ {
		observe(d, flowRec(victim, slot(1), 17, 123))
	}
	dets := d.Status().Detections
	if len(dets) != 1 {
		t.Fatalf("want one detection, got %+v", dets)
	}
	var vecPkts int64
	for _, v := range dets[0].Vectors {
		vecPkts += v.Pkts
	}
	if window := int64(math.Round(dets[0].RatePPS * 300 / 10000)); vecPkts > window {
		t.Fatalf("vectors %v name %d packets, the window counted %d", dets[0].Vectors, vecPkts, window)
	}
}
