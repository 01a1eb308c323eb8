package detect

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// TruthAttack is one ground-truth DDoS attack from the scenario
// generator: the victim host address and the attack's real span,
// independent of whether any operator reacted to it.
type TruthAttack struct {
	EventID int
	Victim  uint32
	Start   time.Time
	End     time.Time
	PPS     float64
}

// AttackOutcome scores one ground-truth attack against the detection
// log.
type AttackOutcome struct {
	EventID int
	Victim  uint32
	Start   time.Time
	PPS     float64
	// Duration is the attack's real length.
	Duration time.Duration
	// Detected reports whether at least one detection matched; the
	// latencies below are measured from attack onset using the earliest
	// matching detection and are meaningless when false.
	Detected bool
	// DetectLatency is onset → the end of the triggering window (flow
	// time).
	DetectLatency time.Duration
	// AnnounceLatency is onset → the RTBH announcement entering the
	// route server (driver time).
	AnnounceLatency time.Duration
	// DropLatency is onset → the first fabric drop at or after the
	// announcement; HasDrop reports whether any was observed (an attack
	// can end, or the run drain, before its first sampled drop).
	DropLatency time.Duration
	HasDrop     bool
}

// Eval scores a detection log against the ground truth.
type Eval struct {
	Attacks        int // ground-truth attacks
	Detections     int // detections fired
	TruePositives  int // detections matching some attack
	FalsePositives int // detections matching none
	DetectedAtk    int // attacks with at least one matching detection
	Precision      float64
	Recall         float64
	PerAttack      []AttackOutcome
}

// Evaluate matches detections against ground-truth attacks: a detection
// is a true positive when its victim address equals an attack's victim
// and its window end falls within [Start-slack, End+slack]. slack
// absorbs the window trailing an attack edge (a window that closes just
// after the last attack packet still describes it).
func Evaluate(dets []Detection, truth []TruthAttack, slack time.Duration) *Eval {
	ev := &Eval{Attacks: len(truth), Detections: len(dets)}
	byVictim := make(map[uint32][]int, len(truth))
	for i := range truth {
		byVictim[truth[i].Victim] = append(byVictim[truth[i].Victim], i)
	}
	// earliest matching detection per attack
	first := make(map[int]*Detection, len(truth))
	for i := range dets {
		d := &dets[i]
		matched := false
		for _, ti := range byVictim[d.Victim] {
			t := &truth[ti]
			if d.DetectedAt.Before(t.Start.Add(-slack)) || d.DetectedAt.After(t.End.Add(slack)) {
				continue
			}
			matched = true
			if cur := first[ti]; cur == nil || d.DetectedAt.Before(cur.DetectedAt) {
				first[ti] = d
			}
		}
		if matched {
			ev.TruePositives++
		} else {
			ev.FalsePositives++
		}
	}
	for ti := range truth {
		t := &truth[ti]
		out := AttackOutcome{
			EventID:  t.EventID,
			Victim:   t.Victim,
			Start:    t.Start,
			PPS:      t.PPS,
			Duration: t.End.Sub(t.Start),
		}
		if d := first[ti]; d != nil {
			out.Detected = true
			ev.DetectedAtk++
			out.DetectLatency = d.DetectedAt.Sub(t.Start)
			out.AnnounceLatency = d.AnnouncedAt.Sub(t.Start)
			if !d.FirstDropAt.IsZero() {
				out.DropLatency = d.FirstDropAt.Sub(t.Start)
				out.HasDrop = true
			}
		}
		ev.PerAttack = append(ev.PerAttack, out)
	}
	sort.Slice(ev.PerAttack, func(i, j int) bool {
		return ev.PerAttack[i].Start.Before(ev.PerAttack[j].Start)
	})
	if ev.Detections > 0 {
		ev.Precision = float64(ev.TruePositives) / float64(ev.Detections)
	}
	if ev.Attacks > 0 {
		ev.Recall = float64(ev.DetectedAtk) / float64(ev.Attacks)
	}
	return ev
}

// Render writes a human-readable evaluation table: the headline
// precision/recall line, then one row per attack with its mitigation
// latencies.
func (ev *Eval) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attacks %d detections %d tp %d fp %d precision %.3f recall %.3f\n",
		ev.Attacks, ev.Detections, ev.TruePositives, ev.FalsePositives,
		ev.Precision, ev.Recall)
	for i := range ev.PerAttack {
		a := &ev.PerAttack[i]
		fmt.Fprintf(&b, "  attack ev%-4d %-15s onset %s dur %7s pps %7.0f ",
			a.EventID, ipString(a.Victim), a.Start.UTC().Format("01-02 15:04"),
			a.Duration.Round(time.Second), a.PPS)
		if !a.Detected {
			b.WriteString("MISSED\n")
			continue
		}
		fmt.Fprintf(&b, "detect +%s announce +%s", a.DetectLatency.Round(time.Second),
			a.AnnounceLatency.Round(time.Second))
		if a.HasDrop {
			fmt.Fprintf(&b, " drop +%s", a.DropLatency.Round(time.Second))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}
